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
identified, which keeps the reachable state space small.  A record is a
tuple laid out in its sort order and a state is the tuple of its sorted
records, so the hashing, equality and sorting that the explorer keys every
frontier and graph lookup on run in C, on one flat value.

The module sits in the engine layer so that the simulator, the model
checker and the campaign runner can all share it without layering cycles.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from operator import itemgetter
from typing import Iterable, Optional, Tuple

from ..core.algorithm import Algorithm
from ..core.grid import Grid, Node
from ..core.robot import Robot
from ..core.world import World

__all__ = [
    "AsyncRobotState",
    "SchedulerState",
    "FrozenSnapshot",
    "NO_MOVE",
    "IDLE_TAIL",
    "initial_state",
    "world_from_state",
    "freeze_snapshot",
]

#: Frozen snapshot: sorted tuple of (offset, content) pairs; content is None
#: (wall) or a sorted color tuple.
FrozenSnapshot = Tuple[Tuple[Tuple[int, int], Optional[Tuple[str, ...]]], ...]

#: The ``pending_move`` field of a record with no pending move; it sorts
#: after every unit move.
NO_MOVE = (9, 9)

#: The last three fields of a record with no snapshot and nothing pending,
#: which every idle record has.
IDLE_TAIL = ((), "", NO_MOVE)

#: Builds a record or a state from fields already in tuple form, without a
#: Python frame: ``build(AsyncRobotState, (pos, color, "idle") + IDLE_TAIL)``.
build = tuple.__new__


def _refuse_assignment(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _record_fields(
    pos: Node,
    color: str,
    phase: str = "idle",  # "idle" | "looked" | "computed"
    snapshot: Optional[FrozenSnapshot] = None,
    pending_color: Optional[str] = None,
    pending_move: Optional[Tuple[int, int]] = None,
) -> tuple:
    """The keyword constructor's fields in tuple order, absent ones encoded."""
    return (
        pos,
        color,
        phase,
        () if snapshot is None else snapshot,
        pending_color or "",
        NO_MOVE if pending_move is None else pending_move,
    )


class AsyncRobotState(tuple):
    """One robot's record inside a canonical scheduler state.

    A tuple ``(pos, color, phase, snapshot, pending_color, pending_move)``
    in which ``()``, ``""`` and :data:`NO_MOVE` stand for no snapshot, no
    pending colour and no pending move.  Tuple order is therefore the
    record's sort order, and hashing and equality cover the six fields.
    The kernel builds records with :data:`build` from fields already in
    this form; the keyword constructor takes ``None`` for an absent field,
    and the attribute views read ``None`` for one.

    Frozen: assignment and deletion raise
    :class:`dataclasses.FrozenInstanceError`, and there is no ``__dict__``.
    """

    __slots__ = ()

    def __new__(cls, *args, **fields) -> "AsyncRobotState":
        """A record from the arguments of :func:`_record_fields`.

        With no argument at all this is the pre-tuple pickle path: see
        :meth:`__setstate__`.
        """
        if not args and not fields:
            return build(cls)
        return build(cls, _record_fields(*args, **fields))

    pos = property(itemgetter(0), doc="The robot's node.")
    color = property(itemgetter(1), doc="The robot's light.")
    phase = property(itemgetter(2), doc='The robot\'s phase: "idle", "looked" or "computed".')

    @property
    def snapshot(self) -> Optional[FrozenSnapshot]:
        """The snapshot a ``"looked"`` robot took, else ``None``."""
        return self[3] or None

    @property
    def pending_color(self) -> Optional[str]:
        """The colour a ``"computed"`` robot committed to, else ``None``."""
        return self[4] or None

    @property
    def pending_move(self) -> Optional[Tuple[int, int]]:
        """The move a ``"computed"`` robot committed to, else ``None``."""
        move = self[5]
        return None if move == NO_MOVE else move

    __setattr__ = _refuse_assignment
    __delattr__ = _refuse_deletion

    def __getnewargs__(self) -> tuple:
        # The stored fields are already encoded, and encoding is idempotent,
        # so the constructor rebuilds the same record from them.
        return tuple(self)

    def __setstate__(self, state) -> None:
        """Accept the field tuple a pre-tuple pickle carries, and drop it.

        A record pickled before records were tuples decodes as NEWOBJ with
        no argument, then BUILD with its old fields.  A tuple cannot be
        filled after it is created, so such a record stays the empty, inert
        value the zero-argument path built.  Nothing reads these records:
        they come only from explorations an older verdict store kept, and a
        stored exploration never answers a check.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AsyncRobotState(pos={self.pos!r}, color={self.color!r}, phase={self.phase!r}, "
            f"snapshot={self.snapshot!r}, pending_color={self.pending_color!r}, "
            f"pending_move={self.pending_move!r})"
        )


class SchedulerState(tuple):
    """A canonical state of the whole system under a given synchrony model.

    The tuple of its robots' records in sorted order, so hashing, equality
    and the order that picks orbit representatives are tuple operations.
    Frozen and without ``__dict__``, like :class:`AsyncRobotState`.
    """

    __slots__ = ()

    def __new__(cls, robots: Iterable[AsyncRobotState] = ()) -> "SchedulerState":
        """The state of ``robots``, which must already be sorted.

        With no argument this is also the pre-tuple pickle path: see
        :meth:`__setstate__`.  New pickles rebuild through the inherited
        ``tuple.__getnewargs__``.
        """
        return build(cls, robots)

    @classmethod
    def from_records(cls, records: Iterable[AsyncRobotState]) -> "SchedulerState":
        return build(cls, sorted(records))

    @property
    def robots(self) -> "SchedulerState":
        """The records in sorted order: the state itself."""
        return self

    def occupied_nodes(self) -> Tuple[Node, ...]:
        return tuple(sorted({record[0] for record in self}))

    def all_idle(self) -> bool:
        return all(record[2] == "idle" for record in self)

    def sort_key(self) -> "SchedulerState":
        """An injective, totally ordered key (used to pick orbit representatives).

        The state itself, compared as a tuple across states of one grid.  A
        snapshot cell is ``None`` off the grid and a colour tuple on it, and
        the two are never compared: comparison reaches two snapshots only
        when the records tie on position, colour and phase ``"looked"``, so
        both snapshots were taken at that one position and their off-grid
        cells coincide.  A grid symmetry maps a snapshot together with its
        position, so this holds for mapped records too.
        """
        return self

    __setattr__ = _refuse_assignment
    __delattr__ = _refuse_deletion

    def __setstate__(self, state) -> None:
        """Accept the records a pre-tuple pickle carries, and drop them.

        As for :meth:`AsyncRobotState.__setstate__`: a state pickled before
        states were tuples decodes as the empty, inert state, and nothing
        reads it.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SchedulerState(robots={tuple(self)!r})"


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
        for index, record in enumerate(state)
    ]
    return World(grid=grid, robots=robots)


def freeze_snapshot(snapshot) -> FrozenSnapshot:
    """Canonicalise a snapshot dictionary into a hashable tuple."""
    return tuple(sorted(snapshot.items()))
