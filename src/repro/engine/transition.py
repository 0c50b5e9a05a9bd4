"""The transition-system kernel: every successor, over state records.

This module implements the paper's Look-Compute-Move successor semantics
for all three synchrony models over canonical scheduler states
(:mod:`repro.engine.states`).  The model checker
(:mod:`repro.checking.model_checker` via :mod:`repro.engine.explorer`)
runs a frontier search over every transition it generates, and
:mod:`repro.impossibility.refuter` searches it too.

It is one of two implementations of those semantics.  The walk
(:mod:`repro.engine.walk`), which the simulator and the campaign runner's
walk tasks run, re-implements them over a :class:`~repro.core.world.World`
to follow one scheduled path, and never calls this module.  Keeping the
walk independent lets it check the kernel, and the differential test in
``tests/engine/test_quotient_fuzz.py`` keeps the two equal: on random
rule tables, seeded walks must stay within each table's exhaustive
verdict.

Semantics notes (shared by both implementations):

* **FSYNC** branches over every combination of per-robot action choices
  (ties between distinct enabled actions are resolved by the scheduler,
  hence adversarially).
* **SSYNC** additionally branches over every non-empty subset of *enabled*
  robots; activating a disabled robot is a no-op, so restricting to enabled
  robots loses no behaviours.
* **ASYNC** exposes three atomic steps per cycle (Look / Compute / Move);
  the color change decided during Compute becomes visible before the Move,
  which is the paper's "intermediate configuration".  A Look by a robot
  that is not enabled leads to a no-op Compute, so such Looks are pruned;
  this does not remove any reachable configuration.
* A move off the grid raises :class:`~repro.core.errors.IllegalMoveError`,
  as :meth:`~repro.core.world.World.move` does in the walk, so no state
  with a robot outside the grid is ever explored.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import List, Optional, Protocol, Sequence, Tuple, runtime_checkable

from ..core.algorithm import Algorithm
from ..core.errors import IllegalMoveError
from ..core.grid import Grid
from .matcher import LocalMatcher
from .states import AsyncRobotState, SchedulerState, freeze_snapshot, initial_state

__all__ = ["MODELS", "TransitionSystem", "AlgorithmTransitionSystem"]

#: The synchrony models the kernel implements.
MODELS = ("FSYNC", "SSYNC", "ASYNC")


@runtime_checkable
class TransitionSystem(Protocol):
    """What every engine consumer needs from a transition system.

    ``initial()`` is the canonical start state; ``successors(state)`` is the
    complete list of states one scheduler step can reach.  A state with no
    successors is terminal.
    """

    algorithm: Algorithm
    grid: Grid
    model: str

    def initial(self) -> SchedulerState: ...

    def successors(self, state: SchedulerState) -> List[SchedulerState]: ...


class AlgorithmTransitionSystem:
    """The authoritative FSYNC/SSYNC/ASYNC successor generator.

    One instance carries a :class:`~repro.engine.matcher.LocalMatcher`, so
    reusing the instance across many expansions (or across repeated checks
    of the same ``(algorithm, grid, model)`` triple) amortises snapshot and
    rule-match computation.
    """

    __slots__ = ("algorithm", "grid", "model", "matcher", "_expand")

    def __init__(self, algorithm: Algorithm, grid: Grid, model: str,
                 matcher: Optional[LocalMatcher] = None) -> None:
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}")
        self.algorithm = algorithm
        self.grid = grid
        self.model = model
        self.matcher = matcher if matcher is not None else LocalMatcher(algorithm, grid)
        self._expand = {
            "FSYNC": self._successors_fsync,
            "SSYNC": self._successors_ssync,
            "ASYNC": self._successors_async,
        }[model]

    # ------------------------------------------------------------------
    # TransitionSystem protocol
    # ------------------------------------------------------------------
    def initial(self) -> SchedulerState:
        return initial_state(self.algorithm, self.grid)

    def successors(self, state: SchedulerState) -> List[SchedulerState]:
        """All scheduler-reachable successor states of ``state``."""
        return self._expand(state)

    def is_terminal(self, state: SchedulerState) -> bool:
        return not self._expand(state)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _enabled_choices(self, state: SchedulerState):
        """Per-robot distinct actions in a configuration-only state."""
        records = state.robots
        matcher = self.matcher
        choices = []
        for index, record in enumerate(records):
            actions = matcher.actions(records, record.pos, record.color)
            if actions:
                choices.append((index, actions))
        return choices

    def _off_grid(self, origin, destination) -> IllegalMoveError:
        """The error for a move leaving the grid (the walk raises the same type)."""
        grid = self.grid
        return IllegalMoveError(
            f"{self.algorithm.name} [{self.model}]: a robot attempts to move from {origin}"
            f" to {destination}, outside the {grid.m}x{grid.n} grid"
        )

    def _apply_synchronous(
        self,
        state: SchedulerState,
        moves: Sequence[Tuple[int, Optional[str], Optional[Tuple[int, int]]]],
    ) -> SchedulerState:
        """Apply simultaneous (index, new_color, world_move) updates to a state.

        Raises :class:`IllegalMoveError` when a move leaves the grid.
        """
        m, n = self.grid.m, self.grid.n
        records = list(state.robots)
        for index, new_color, world_move in moves:
            record = records[index]
            pos = record.pos
            if world_move is not None:
                pos = (pos[0] + world_move[0], pos[1] + world_move[1])
                if not (0 <= pos[0] < m and 0 <= pos[1] < n):
                    raise self._off_grid(record.pos, pos)
            records[index] = AsyncRobotState(pos=pos, color=new_color if new_color else record.color)
        return SchedulerState.from_records(records)

    # ------------------------------------------------------------------
    # FSYNC / SSYNC
    # ------------------------------------------------------------------
    def _successors_fsync(self, state: SchedulerState) -> List[SchedulerState]:
        choices = self._enabled_choices(state)
        if not choices:
            return []
        successors = []
        for combo in product(*[actions for _, actions in choices]):
            moves = [
                (index, action.new_color, action.world_move)
                for (index, _), action in zip(choices, combo)
            ]
            successors.append(self._apply_synchronous(state, moves))
        return successors

    def _successors_ssync(self, state: SchedulerState) -> List[SchedulerState]:
        choices = self._enabled_choices(state)
        if not choices:
            return []
        successors = []
        indices = [index for index, _ in choices]
        by_index = dict(choices)
        for size in range(1, len(indices) + 1):
            for subset in combinations(indices, size):
                for combo in product(*[by_index[index] for index in subset]):
                    moves = [
                        (index, action.new_color, action.world_move)
                        for index, action in zip(subset, combo)
                    ]
                    successors.append(self._apply_synchronous(state, moves))
        return successors

    # ------------------------------------------------------------------
    # ASYNC
    # ------------------------------------------------------------------
    def _successors_async(self, state: SchedulerState) -> List[SchedulerState]:
        records = state.robots
        matcher = self.matcher
        algorithm = self.algorithm
        successors: List[SchedulerState] = []
        for index, record in enumerate(records):
            if record.phase == "idle":
                # Offer a Look only to enabled robots: a disabled robot's
                # cycle is a no-op and pruning it does not change reachable
                # configurations.
                if not matcher.matches(records, record.pos, record.color):
                    continue
                updated = list(records)
                updated[index] = AsyncRobotState(
                    pos=record.pos,
                    color=record.color,
                    phase="looked",
                    snapshot=freeze_snapshot(matcher.snapshot(records, record.pos)),
                )
                successors.append(SchedulerState.from_records(updated))
            elif record.phase == "looked":
                matches = matcher.matches_for_frozen(record.snapshot, record.color)
                actions = algorithm.distinct_actions(matches)
                if not actions:
                    updated = list(records)
                    updated[index] = AsyncRobotState(pos=record.pos, color=record.color)
                    successors.append(SchedulerState.from_records(updated))
                    continue
                for action in actions:
                    updated = list(records)
                    updated[index] = AsyncRobotState(
                        pos=record.pos,
                        color=action.new_color,
                        phase="computed",
                        pending_color=action.new_color,
                        pending_move=action.world_move,
                    )
                    successors.append(SchedulerState.from_records(updated))
            elif record.phase == "computed":
                pos = record.pos
                if record.pending_move is not None:
                    pos = (pos[0] + record.pending_move[0], pos[1] + record.pending_move[1])
                    if not (0 <= pos[0] < self.grid.m and 0 <= pos[1] < self.grid.n):
                        raise self._off_grid(record.pos, pos)
                updated = list(records)
                updated[index] = AsyncRobotState(pos=pos, color=record.color)
                successors.append(SchedulerState.from_records(updated))
        return successors
