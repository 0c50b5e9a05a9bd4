"""Schedulers (the paper's adversarial "daemon").

Section 2.1: a scheduler decides when each robot executes its Look, Compute
and Move phases.

* **FSYNC**: at every instant, all robots execute a full synchronous cycle.
* **SSYNC**: at every instant, a non-empty subset of the robots executes a
  full synchronous cycle.
* **ASYNC**: Look, Compute and Move phases of different robots interleave
  arbitrarily; a robot may move based on an outdated snapshot.

The scheduler is always assumed *fair*: every robot is activated infinitely
often.  The simulator enforces an operational version of fairness (a robot
that stays enabled is eventually activated); exhaustive exploration of
scheduler nondeterminism is the job of :mod:`repro.checking`.

For the SSYNC and ASYNC simulators this module provides concrete scheduler
policies: random (seeded), sequential/round-robin, and single-robot-at-a-
time policies that reproduce the step-by-step executions drawn in the
paper's figures for the ASYNC algorithms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from .errors import SchedulerError

__all__ = [
    "SsyncScheduler",
    "FullActivation",
    "SingleSequential",
    "SingleRandom",
    "RandomSubset",
    "AsyncScheduler",
    "SequentialAsync",
    "RandomAsync",
    "PhaseChoice",
]


# ---------------------------------------------------------------------------
# SSYNC schedulers
# ---------------------------------------------------------------------------
class SsyncScheduler:
    """Base class of SSYNC activation policies.

    Subclasses implement :meth:`select`, which receives the identifiers of
    the currently *enabled* robots and must return a non-empty subset of
    them.  (Activating a disabled robot is a no-op, so restricting the
    choice to enabled robots loses no behaviours.)
    """

    def select(self, round_index: int, enabled: Sequence[int]) -> List[int]:
        raise NotImplementedError

    def checked_select(self, round_index: int, enabled: Sequence[int]) -> List[int]:
        """Call :meth:`select` and validate the result."""
        chosen = list(self.select(round_index, enabled))
        if not chosen:
            raise SchedulerError("SSYNC scheduler selected an empty activation set")
        if not set(chosen) <= set(enabled):
            raise SchedulerError(
                f"SSYNC scheduler selected robots {chosen} outside the enabled set {list(enabled)}"
            )
        return sorted(set(chosen))


@dataclass
class FullActivation(SsyncScheduler):
    """Activate every enabled robot: the FSYNC scheduler seen as an SSYNC one.

    FSYNC runs as SSYNC under this scheduler: :func:`~repro.core.simulator.run_fsync`
    is the SSYNC walk with a ``FullActivation``, and the kernel's FSYNC
    successors are its SSYNC successors on the full enabled set.
    """

    def select(self, round_index: int, enabled: Sequence[int]) -> List[int]:
        return list(enabled)


@dataclass
class SingleSequential(SsyncScheduler):
    """Activate exactly one enabled robot per round, cycling by identifier.

    This is the "centralised" scheduler: it is a legal SSYNC (and ASYNC)
    scheduler, and it is the schedule under which the paper's ASYNC
    algorithm figures are drawn (one robot acts at a time).
    """

    _cursor: int = 0

    def select(self, round_index: int, enabled: Sequence[int]) -> List[int]:
        ordered = sorted(enabled)
        for candidate in ordered:
            if candidate >= self._cursor:
                self._cursor = candidate + 1
                return [candidate]
        self._cursor = ordered[0] + 1
        return [ordered[0]]


@dataclass
class SingleRandom(SsyncScheduler):
    """Activate one enabled robot chosen uniformly at random (seeded)."""

    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def select(self, round_index: int, enabled: Sequence[int]) -> List[int]:
        return [self._rng.choice(sorted(enabled))]


@dataclass
class RandomSubset(SsyncScheduler):
    """Activate a uniformly random non-empty subset of the enabled robots."""

    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def select(self, round_index: int, enabled: Sequence[int]) -> List[int]:
        ordered = sorted(enabled)
        chosen = [rid for rid in ordered if self._rng.random() < 0.5]
        if not chosen:
            chosen = [self._rng.choice(ordered)]
        return chosen


# ---------------------------------------------------------------------------
# ASYNC schedulers
# ---------------------------------------------------------------------------

#: A pending atomic step offered to the ASYNC scheduler: the robot identifier
#: and the phase it would execute next (``"look"``, ``"compute"`` or
#: ``"move"``).
PhaseChoice = Tuple[int, str]


class AsyncScheduler:
    """Base class of ASYNC interleaving policies.

    Subclasses implement :meth:`choose`, which receives the list of pending
    atomic steps (one per robot that can currently advance) and returns the
    one to execute.
    """

    def choose(self, step_index: int, candidates: Sequence[PhaseChoice]) -> PhaseChoice:
        raise NotImplementedError

    def checked_choose(self, step_index: int, candidates: Sequence[PhaseChoice]) -> PhaseChoice:
        choice = self.choose(step_index, candidates)
        if choice not in candidates:
            raise SchedulerError(
                f"ASYNC scheduler chose {choice}, not among the candidates {list(candidates)}"
            )
        return choice


@dataclass
class SequentialAsync(AsyncScheduler):
    """Run one robot's full Look-Compute-Move cycle at a time.

    Mid-cycle robots are always preferred, so a started cycle finishes
    before another robot begins.  Ties are broken by robot identifier.
    This is the schedule used by the paper's ASYNC figures, and also a
    legal SSYNC/sequential execution.
    """

    def choose(self, step_index: int, candidates: Sequence[PhaseChoice]) -> PhaseChoice:
        in_progress = [c for c in candidates if c[1] != "look"]
        pool = in_progress if in_progress else list(candidates)
        return sorted(pool)[0]


@dataclass
class RandomAsync(AsyncScheduler):
    """Pick a uniformly random pending atomic step (seeded).

    This freely interleaves Look, Compute and Move phases of different
    robots and therefore exercises the stale-snapshot hazards that
    distinguish ASYNC from SSYNC.
    """

    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def choose(self, step_index: int, candidates: Sequence[PhaseChoice]) -> PhaseChoice:
        return self._rng.choice(sorted(candidates))
