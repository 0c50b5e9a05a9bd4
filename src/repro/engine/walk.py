"""The Look-Compute-Move execution engine: a lazy single-path walk.

Where the explorer (:mod:`repro.engine.explorer`) branches over *every*
scheduler choice of the kernel (:mod:`repro.engine.transition`), the walk
follows *one* path, letting a pluggable scheduler policy
(:mod:`repro.core.scheduler`) and a tie-break policy resolve the
nondeterminism one step at a time.  It does not call the kernel: it
re-implements the same semantics over a mutable
:class:`~repro.core.world.World` with robot identities, which keeps a walk
an independent check of the kernel.  The differential test in
``tests/engine/test_quotient_fuzz.py`` keeps the two equal: on random
rule tables, seeded walks must stay within each table's exhaustive
verdict.  The engines:

* :func:`run_fsync` — every robot executes a full cycle at every instant.
  That is SSYNC with every enabled robot activated (activating a disabled
  robot is a no-op), so FSYNC runs through the SSYNC loop under the
  :class:`~repro.core.scheduler.FullActivation` scheduler;
* :func:`run_ssync` — a scheduler-selected non-empty subset of the robots
  executes a full synchronous cycle at every instant;
* :func:`run_async` — Look, Compute and Move phases of different robots
  interleave arbitrarily; the color change decided during Compute becomes
  visible *before* the corresponding Move, which is exactly the
  "intermediate configuration" the paper reasons about for its ASYNC
  algorithms.

A walk records its initial configuration and its events, nothing else:
the :class:`~repro.core.execution.ExecutionResult` derives the trace, the
final configuration and the visited nodes from those two, so a campaign
walk that reads only the verdict builds one configuration.

Nondeterministic rule/view selection (Section 2.2: "one combination of a
view and a rule is selected by the scheduler") is resolved by a tie-break
policy: ``"error"`` (fail loudly — useful to certify that an algorithm is
behaviour-deterministic along its executions), ``"first"`` (declaration
order) or ``"random"``.  The random policy draws from a **per-run**
``random.Random(seed)`` instance — never from module-level RNG state — and
the seed is recorded on the :class:`~repro.core.execution.ExecutionResult`
so any run can be replayed exactly.

All snapshot construction and rule matching goes through one
:class:`~repro.engine.matcher.LocalMatcher` per run, so recurring local
neighbourhoods (a robot sweeping an empty row) are evaluated once.  Callers
that run many executions of the same algorithm (campaigns, scaling sweeps)
can pass ``matcher=`` explicitly — typically obtained from a
:class:`~repro.engine.matcher.MatcherCache` — to start every run warm.

The synchronous loop evaluates every robot's matches once per round, in
one call (:meth:`~repro.engine.matcher.LocalMatcher.batched_matches`,
each key read off the matcher's node table), and those matches drive
both the enabled-set test and the round execution — one matcher pass per
round instead of the two per-robot passes the naive check-then-execute
loop would make.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.algorithm import Action, Algorithm, Match
from ..core.configuration import Configuration
from ..core.errors import AmbiguousActionError, SimulationError
from ..core.execution import Event, ExecutionResult
from ..core.grid import Grid
from ..core.robot import Robot
from ..core.scheduler import (
    AsyncScheduler,
    FullActivation,
    RandomAsync,
    RandomSubset,
    SsyncScheduler,
)
from ..core.world import World
from .matcher import LocalKey, LocalMatcher
from .states import FrozenSnapshot

__all__ = [
    "TieBreak",
    "default_step_budget",
    "run_fsync",
    "run_ssync",
    "run_async",
    "run",
]


class TieBreak:
    """Policies for resolving ambiguous (multi-outcome) rule matches."""

    ERROR = "error"
    FIRST = "first"
    RANDOM = "random"

    ALL = (ERROR, FIRST, RANDOM)

    @classmethod
    def validate(cls, policy: str) -> str:
        if policy not in cls.ALL:
            raise SimulationError(f"unknown tie-break policy {policy!r}")
        return policy


def default_step_budget(grid: Grid, k: int, model: str) -> int:
    """A generous step budget for bounded simulation.

    The paper's algorithms complete exploration in Theta(m * n) robot moves;
    the budget below leaves ample slack (per-robot cycles, turning overhead,
    ASYNC phase granularity) so that hitting it reliably signals
    non-termination rather than slowness.
    """
    base = 40 * grid.num_nodes * max(k, 1) + 400
    if model == "ASYNC":
        return 4 * base
    return base


def _resolve(
    algorithm: Algorithm,
    matches: Sequence[Match],
    actions: Sequence[Action],
    tie_break: str,
    rng: random.Random,
) -> Match:
    """Pick the match to execute among a non-empty list of matches.

    ``actions`` are the matches' distinct actions.
    """
    if len(actions) == 1 or tie_break == TieBreak.FIRST:
        return matches[0]
    if tie_break == TieBreak.RANDOM:
        return rng.choice(list(matches))
    raise AmbiguousActionError(
        f"{algorithm.name}: ambiguous enabled actions {[str(a) for a in actions]}"
        f" (rules {[m.rule.name for m in matches]})"
    )


def _result(
    algorithm: Algorithm,
    grid: Grid,
    model: str,
    initial: Configuration,
    events: List[Event],
    steps: int,
    terminated: bool,
    seed: int,
    tie_break: str,
) -> ExecutionResult:
    return ExecutionResult(
        algorithm_name=algorithm.name,
        model=model,
        grid=grid,
        initial=initial,
        events=events,
        steps=steps,
        terminated=terminated,
        termination_reason="terminal" if terminated else "max_steps",
        seed=seed,
        tie_break=tie_break,
    )


def _enabled_robots(matcher: LocalMatcher, world: World) -> List[Robot]:
    """All enabled robots in ``world`` (memoized matching)."""
    robots = world.robots
    return [robot for robot in robots if matcher.matches(robots, robot.pos, robot.color)]


def _round_matches(matcher: LocalMatcher, world: World) -> List[Tuple[Robot, Tuple[Match, ...]]]:
    """``(robot, matches)`` for every *enabled* robot, via one batched pass.

    This is the synchronous loop's per-round pass: the returned matches
    are reused for the round execution instead of being recomputed per
    activated robot.
    """
    return [(robot, matches) for robot, matches in matcher.batched_matches(world.robots) if matches]


# ---------------------------------------------------------------------------
# Synchronous engines (FSYNC / SSYNC)
# ---------------------------------------------------------------------------
def _synchronous_round(
    algorithm: Algorithm,
    world: World,
    events: List[Event],
    active: Sequence[Tuple[Robot, Tuple[Match, ...]]],
    round_index: int,
    tie_break: str,
    rng: random.Random,
) -> None:
    """Execute one synchronous cycle for the given ``(robot, matches)`` pairs.

    All activated robots observe the same pre-round configuration — their
    matches were computed against it in one batched pass — and their color
    changes and movements are applied simultaneously afterwards.
    """
    decisions: List[Tuple[Robot, Match]] = [
        (robot, _resolve(algorithm, matches, algorithm.distinct_actions(matches), tie_break, rng))
        for robot, matches in active
    ]

    # Apply all color changes and movements simultaneously.
    for robot, match in decisions:
        world.set_color(robot.rid, match.action.new_color)
    for robot, match in decisions:
        new_pos = world.move(robot.rid, match.action.world_move)
        events.append(
            Event(
                time=round_index,
                rid=robot.rid,
                phase="cycle",
                rule=match.rule.name,
                symmetry=match.symmetry.name,
                old_pos=robot.pos,
                new_pos=new_pos,
                old_color=robot.color,
                new_color=match.action.new_color,
            )
        )


def _run_synchronous(
    algorithm: Algorithm,
    grid: Grid,
    model: str,
    scheduler: SsyncScheduler,
    max_steps: Optional[int],
    tie_break: str,
    seed: int,
    matcher: Optional[LocalMatcher],
) -> ExecutionResult:
    """The FSYNC/SSYNC loop: each round ``scheduler`` activates some enabled robots."""
    TieBreak.validate(tie_break)
    rng = random.Random(seed)
    matcher = matcher if matcher is not None else LocalMatcher(algorithm, grid)
    world = algorithm.initial_world(grid)
    initial = world.configuration()
    events: List[Event] = []
    budget = max_steps if max_steps is not None else default_step_budget(grid, algorithm.k, model)

    steps = budget
    for round_index in range(budget):
        enabled = _round_matches(matcher, world)
        if not enabled:
            steps = round_index
            break
        # checked_select returns rids sorted, so the activated robots act
        # in rid order: that order fixes the order in which tie-break
        # randomness is consumed and events land.
        chosen = scheduler.checked_select(round_index, [robot.rid for robot, _ in enabled])
        by_rid = {robot.rid: (robot, matches) for robot, matches in enabled}
        _synchronous_round(
            algorithm, world, events, [by_rid[rid] for rid in chosen], round_index, tie_break, rng
        )
    terminated = steps < budget or not _round_matches(matcher, world)
    return _result(algorithm, grid, model, initial, events, steps, terminated, seed, tie_break)


def run_fsync(
    algorithm: Algorithm,
    grid: Grid,
    max_steps: Optional[int] = None,
    tie_break: str = TieBreak.ERROR,
    seed: int = 0,
    matcher: Optional[LocalMatcher] = None,
) -> ExecutionResult:
    """Simulate the algorithm under the fully synchronous scheduler.

    FSYNC is SSYNC under :class:`~repro.core.scheduler.FullActivation`:
    the run is :func:`run_ssync`'s loop with every enabled robot activated
    each round.  ``matcher`` may be supplied (typically from a shared
    :class:`~repro.engine.matcher.MatcherCache`) to reuse snapshot/match
    memo tables across runs; by default each run gets a private one.
    """
    return _run_synchronous(
        algorithm, grid, "FSYNC", FullActivation(), max_steps, tie_break, seed, matcher
    )


def run_ssync(
    algorithm: Algorithm,
    grid: Grid,
    scheduler: Optional[SsyncScheduler] = None,
    max_steps: Optional[int] = None,
    tie_break: str = TieBreak.FIRST,
    seed: int = 0,
    matcher: Optional[LocalMatcher] = None,
) -> ExecutionResult:
    """Simulate the algorithm under a semi-synchronous scheduler."""
    scheduler = scheduler if scheduler is not None else RandomSubset(seed=seed)
    return _run_synchronous(algorithm, grid, "SSYNC", scheduler, max_steps, tie_break, seed, matcher)


# ---------------------------------------------------------------------------
# Asynchronous engine
# ---------------------------------------------------------------------------
@dataclass(slots=True)
class _AsyncRobotState:
    """Per-robot cycle state in the ASYNC engine."""

    phase: str = "idle"  # "idle" -> "looked" -> "computed" -> "idle"
    snapshot: Optional[FrozenSnapshot] = None
    pending: Optional[Match] = None


def run_async(
    algorithm: Algorithm,
    grid: Grid,
    scheduler: Optional[AsyncScheduler] = None,
    max_steps: Optional[int] = None,
    tie_break: str = TieBreak.FIRST,
    seed: int = 0,
    matcher: Optional[LocalMatcher] = None,
) -> ExecutionResult:
    """Simulate the algorithm under an asynchronous scheduler.

    The engine exposes three scheduler-visible atomic steps per cycle:

    * ``look`` — the robot snapshots its radius-``phi`` neighbourhood;
    * ``compute`` — the robot evaluates its rules *against the stored
      snapshot* and, if a rule matches, immediately changes its light (the
      change is visible to subsequent Looks of other robots) and records
      the pending movement;
    * ``move`` — the robot performs the recorded movement.

    The snapshot is stored frozen and matched at Compute the way the
    kernel matches its stored snapshots: the Look reuses the key the
    enabled test computed, and both steps read the matcher's frozen
    snapshot and frozen action memos.  A robot that is not enabled at
    Look time is not offered a Look step: its whole cycle would be a no-op
    and skipping it does not change the set of reachable configurations
    (it only avoids unbounded stuttering in bounded simulations).
    """
    TieBreak.validate(tie_break)
    rng = random.Random(seed)
    scheduler = scheduler if scheduler is not None else RandomAsync(seed=seed)
    matcher = matcher if matcher is not None else LocalMatcher(algorithm, grid)
    world = algorithm.initial_world(grid)
    initial = world.configuration()
    events: List[Event] = []
    budget = max_steps if max_steps is not None else default_step_budget(grid, algorithm.k, "ASYNC")

    states: Dict[int, _AsyncRobotState] = {robot.rid: _AsyncRobotState() for robot in world.robots}

    steps = budget
    for step_index in range(budget):
        candidates: List[Tuple[int, str]] = []
        # The key of each robot offered a Look, for its snapshot.
        looks: Dict[int, LocalKey] = {}
        robots = world.robots
        for robot in robots:
            state = states[robot.rid]
            if state.phase == "looked":
                candidates.append((robot.rid, "compute"))
            elif state.phase == "computed":
                candidates.append((robot.rid, "move"))
            else:
                key = matcher.local_key(robots, robot.pos)
                if matcher.matches_for_key(key, robot.color):
                    candidates.append((robot.rid, "look"))
                    looks[robot.rid] = key
        if not candidates:
            steps = step_index
            break

        rid, phase = scheduler.checked_choose(step_index, candidates)
        robot = world.robot(rid)
        state = states[rid]

        if phase == "look":
            state.snapshot = matcher.frozen_snapshot_for_key(looks[rid])
            state.phase = "looked"
            events.append(
                Event(
                    time=step_index,
                    rid=rid,
                    phase="look",
                    rule=None,
                    symmetry=None,
                    old_pos=robot.pos,
                    new_pos=robot.pos,
                    old_color=robot.color,
                    new_color=robot.color,
                )
            )
        elif phase == "compute":
            snapshot, state.snapshot = state.snapshot, None
            matches = matcher.matches_for_frozen(snapshot, robot.color)
            if not matches:
                state.phase = "idle"
            else:
                actions = matcher.actions_for_frozen(snapshot, robot.color)
                match = _resolve(algorithm, matches, actions, tie_break, rng)
                world.set_color(rid, match.action.new_color)
                state.pending = match
                state.phase = "computed"
                events.append(
                    Event(
                        time=step_index,
                        rid=rid,
                        phase="compute",
                        rule=match.rule.name,
                        symmetry=match.symmetry.name,
                        old_pos=robot.pos,
                        new_pos=robot.pos,
                        old_color=robot.color,
                        new_color=match.action.new_color,
                    )
                )
        elif phase == "move":
            match = state.pending
            new_pos = world.move(rid, match.action.world_move)
            events.append(
                Event(
                    time=step_index,
                    rid=rid,
                    phase="move",
                    rule=match.rule.name,
                    symmetry=match.symmetry.name,
                    old_pos=robot.pos,
                    new_pos=new_pos,
                    old_color=robot.color,
                    new_color=robot.color,
                )
            )
            state.phase = "idle"
            state.pending = None
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown ASYNC phase {phase!r}")

    # Budget exhausted: terminal only if every robot is idle and disabled.
    terminated = steps < budget or (
        all(state.phase == "idle" for state in states.values())
        and not _enabled_robots(matcher, world)
    )
    return _result(algorithm, grid, "ASYNC", initial, events, steps, terminated, seed, tie_break)


def run(
    algorithm: Algorithm,
    grid: Grid,
    model: str,
    **kwargs,
) -> ExecutionResult:
    """Dispatch to the engine for ``model`` (``"FSYNC"``, ``"SSYNC"`` or ``"ASYNC"``)."""
    if model == "FSYNC":
        return run_fsync(algorithm, grid, **kwargs)
    if model == "SSYNC":
        return run_ssync(algorithm, grid, **kwargs)
    if model == "ASYNC":
        return run_async(algorithm, grid, **kwargs)
    raise SimulationError(f"unknown synchrony model {model!r}")
