"""Canonical scheduler states shared by every consumer of the engine kernel.

A *scheduler state* is the finite, hashable description of the whole system
that the transition kernel (:mod:`repro.engine.transition`) expands:

* under FSYNC/SSYNC a state is simply the anonymous multiset of
  ``(position, color)`` pairs (the paper's configuration);
* under ASYNC a robot may be between its Look and Move phases, so the
  state additionally records each robot's phase, the snapshot it took (if
  any) and the action it committed to (if any).

Robots are anonymous, so states are canonicalised by sorting the per-robot
records; two states that differ only by a permutation of the robots are
identified, which keeps the reachable state space small.  States hash on
first use and cache the value (:meth:`SchedulerState.__hash__`), because
the explorer keys every frontier and graph lookup on them.

The module sits in the engine layer so that the simulator, the model
checker and the campaign runner can all share it without layering cycles.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import Optional, Tuple

from ..core.algorithm import Algorithm
from ..core.grid import Grid, Node
from ..core.robot import Robot
from ..core.world import World

__all__ = [
    "AsyncRobotState",
    "SchedulerState",
    "FrozenSnapshot",
    "initial_state",
    "world_from_state",
    "freeze_snapshot",
]

#: Frozen snapshot: sorted tuple of (offset, content) pairs; content is None
#: (wall) or a sorted color tuple.
FrozenSnapshot = Tuple[Tuple[Tuple[int, int], Optional[Tuple[str, ...]]], ...]


class AsyncRobotState:
    """One robot's record inside a canonical scheduler state.

    Slotted: explorations hold hundreds of thousands of records, so dropping
    the per-instance ``__dict__`` is a measurable memory and attribute-access
    win on the kernel's hottest data.

    Hand-rolled (rather than a frozen dataclass) so the canonical sort key
    and the hash can be *cached in slots*: ``SchedulerState.from_records``
    sorts by :meth:`key` on every single successor the explorer generates,
    and a dataclass would rebuild the 6-tuple on each call.  Semantics are
    identical to the previous ``@dataclass(frozen=True, slots=True)``
    declaration — same constructor signature and defaults, value equality
    and hashing over the six fields, :class:`dataclasses.FrozenInstanceError`
    on mutation — with both caches dropped on pickling (string hashing is
    per-process, see :class:`SchedulerState`).
    """

    __slots__ = ("pos", "color", "phase", "snapshot", "pending_color", "pending_move", "_key", "_hash")

    def __init__(
        self,
        pos: Node,
        color: str,
        phase: str = "idle",  # "idle" | "looked" | "computed"
        snapshot: Optional[FrozenSnapshot] = None,
        pending_color: Optional[str] = None,
        pending_move: Optional[Tuple[int, int]] = None,
    ) -> None:
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "color", color)
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "snapshot", snapshot)
        object.__setattr__(self, "pending_color", pending_color)
        object.__setattr__(self, "pending_move", pending_move)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _fields(self):
        return (self.pos, self.color, self.phase, self.snapshot, self.pending_color, self.pending_move)

    def __eq__(self, other):
        if other.__class__ is AsyncRobotState:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            cached = hash(self._fields())
            object.__setattr__(self, "_hash", cached)
            return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AsyncRobotState(pos={self.pos!r}, color={self.color!r}, phase={self.phase!r}, "
            f"snapshot={self.snapshot!r}, pending_color={self.pending_color!r}, "
            f"pending_move={self.pending_move!r})"
        )

    def __getstate__(self):
        # Ship only the six fields; both caches are per-process.
        return self._fields()

    def __setstate__(self, fields) -> None:
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def key(self):
        try:
            return self._key
        except AttributeError:
            cached = (
                self.pos,
                self.color,
                self.phase,
                self.snapshot if self.snapshot is not None else (),
                self.pending_color or "",
                self.pending_move if self.pending_move is not None else (9, 9),
            )
            object.__setattr__(self, "_key", cached)
            return cached


@dataclass(frozen=True)
class SchedulerState:
    """A canonical state of the whole system under a given synchrony model.

    Slotted manually (``robots`` plus the lazily filled ``_hash`` cache);
    the hash cache is deliberately *not* pickled — string hashing is
    randomized per process, so a cached value carried across a process
    boundary would corrupt any hash container mixing shipped and locally
    built states (say, a campaign report's state unpickled next to states
    built in this process).
    """

    __slots__ = ("robots", "_hash")

    robots: Tuple[AsyncRobotState, ...]

    @classmethod
    def from_records(cls, records) -> "SchedulerState":
        return cls(robots=tuple(sorted(records, key=AsyncRobotState.key)))

    def occupied_nodes(self) -> Tuple[Node, ...]:
        return tuple(sorted({robot.pos for robot in self.robots}))

    def all_idle(self) -> bool:
        return all(robot.phase == "idle" for robot in self.robots)

    def sort_key(self):
        """An injective, totally ordered key (used to pick orbit representatives).

        The records' :meth:`AsyncRobotState.key` tuples, compared across
        states of one grid.  A snapshot cell is ``None`` off the grid and a
        colour tuple on it, and the two are never compared: comparison
        reaches two snapshots only when the records tie on position, colour
        and phase ``"looked"``, so both snapshots were taken at that one
        position and their off-grid cells coincide.  A grid symmetry maps a
        snapshot together with its position, so this holds for mapped
        records too.
        """
        return tuple(robot.key() for robot in self.robots)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            cached = hash(self.robots)
            object.__setattr__(self, "_hash", cached)
            return cached

    def __getstate__(self):
        # Ship only the records: the hash cache is per-process (see class
        # docstring) and must be recomputed on the receiving side.
        return self.robots

    def __setstate__(self, robots) -> None:
        object.__setattr__(self, "robots", robots)


def initial_state(algorithm: Algorithm, grid: Grid) -> SchedulerState:
    """The canonical initial state for an algorithm on a grid."""
    placement = algorithm.placement(grid.m, grid.n)
    return SchedulerState.from_records(
        AsyncRobotState(pos=node, color=color) for node, color in placement
    )


def world_from_state(grid: Grid, state: SchedulerState) -> World:
    """Materialise a :class:`~repro.core.world.World` from a canonical state.

    Robot identifiers are assigned positionally; they are only used to keep
    track of which record an action applies to within one expansion step.
    """
    robots = [
        Robot(rid=index, pos=record.pos, color=record.color)
        for index, record in enumerate(state.robots)
    ]
    return World(grid=grid, robots=robots)


def freeze_snapshot(snapshot) -> FrozenSnapshot:
    """Canonicalise a snapshot dictionary into a hashable tuple."""
    return tuple(sorted(snapshot.items()))
