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

* :func:`run_fsync` — every robot executes a full cycle at every instant;
* :func:`run_ssync` — a scheduler-selected non-empty subset of the robots
  executes a full synchronous cycle at every instant;
* :func:`run_async` — Look, Compute and Move phases of different robots
  interleave arbitrarily; the color change decided during Compute becomes
  visible *before* the corresponding Move, which is exactly the
  "intermediate configuration" the paper reasons about for its ASYNC
  algorithms.

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

The synchronous engines step through a *batched* fast path: each round the
matcher builds one neighbourhood index for the whole configuration and
evaluates every robot's matches in a single pass
(:meth:`~repro.engine.matcher.LocalMatcher.batched_matches`), and those
matches drive both the enabled-set test and the round execution — one
matcher pass per round instead of the two per-robot passes the naive
check-then-execute loop would make.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.algorithm import Action, Algorithm, Match
from ..core.configuration import Configuration
from ..core.errors import AmbiguousActionError, SimulationError
from ..core.execution import Event, ExecutionResult
from ..core.grid import Grid, Node
from ..core.robot import Robot
from ..core.scheduler import AsyncScheduler, RandomAsync, RandomSubset, SsyncScheduler
from ..core.views import Snapshot
from ..core.world import World
from .matcher import LocalMatcher

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
    tie_break: str,
    rng: random.Random,
) -> Match:
    """Pick the match to execute among a non-empty list of matches."""
    actions = algorithm.distinct_actions(matches)
    if len(actions) == 1 or tie_break == TieBreak.FIRST:
        return matches[0]
    if tie_break == TieBreak.RANDOM:
        return rng.choice(list(matches))
    raise AmbiguousActionError(
        f"{algorithm.name}: ambiguous enabled actions {[str(a) for a in actions]}"
        f" (rules {[m.rule.name for m in matches]})"
    )


def _visit(visited: Set[Node], world: World) -> None:
    for robot in world.robots:
        visited.add(robot.pos)


@dataclass(slots=True)
class _Recorder:
    """Shared bookkeeping between the three execution engines."""

    algorithm: Algorithm
    world: World
    model: str
    record_trace: bool
    seed: Optional[int] = None
    tie_break: Optional[str] = None
    trace: List[Configuration] = field(default_factory=list)
    events: List[Event] = field(default_factory=list)
    visited: Set[Node] = field(default_factory=set)
    initial: Configuration = field(init=False)

    def __post_init__(self) -> None:
        _visit(self.visited, self.world)
        self.initial = self.world.configuration()
        if self.record_trace:
            self.trace.append(self.initial)

    def snapshot_config(self) -> None:
        if self.record_trace:
            config = self.world.configuration()
            if not self.trace or self.trace[-1] != config:
                self.trace.append(config)

    def result(self, steps: int, terminated: bool, reason: str) -> ExecutionResult:
        final = self.world.configuration()
        if self.record_trace and (not self.trace or self.trace[-1] != final):
            self.trace.append(final)
        return ExecutionResult(
            algorithm_name=self.algorithm.name,
            model=self.model,
            grid=self.world.grid,
            initial=self.initial,
            final=final,
            trace=self.trace,
            events=self.events,
            visited=self.visited,
            steps=steps,
            terminated=terminated,
            termination_reason=reason,
            seed=self.seed,
            tie_break=self.tie_break,
        )


def _enabled_robots(matcher: LocalMatcher, world: World) -> List[Robot]:
    """All enabled robots in ``world`` (memoized matching)."""
    robots = world.robots
    return [robot for robot in robots if matcher.matches(robots, robot.pos, robot.color)]


def _round_matches(matcher: LocalMatcher, world: World) -> List[Tuple[Robot, Tuple[Match, ...]]]:
    """``(robot, matches)`` for every *enabled* robot, via one batched pass.

    This is the synchronous engines' per-round fast path: the matcher builds
    the neighbourhood index once for the whole configuration, and the
    returned matches are reused for the round execution instead of being
    recomputed per activated robot.
    """
    return [(robot, matches) for robot, matches in matcher.batched_matches(world.robots) if matches]


# ---------------------------------------------------------------------------
# Synchronous engines (FSYNC / SSYNC)
# ---------------------------------------------------------------------------
def _synchronous_round(
    algorithm: Algorithm,
    recorder: _Recorder,
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
    world = recorder.world
    decisions: List[Tuple[Robot, Match]] = [
        (robot, _resolve(algorithm, matches, tie_break, rng)) for robot, matches in active
    ]

    # Apply all color changes and movements simultaneously.
    for robot, match in decisions:
        world.set_color(robot.rid, match.action.new_color)
    for robot, match in decisions:
        new_pos = world.move(robot.rid, match.action.world_move)
        recorder.events.append(
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
    _visit(recorder.visited, world)
    recorder.snapshot_config()


def run_fsync(
    algorithm: Algorithm,
    grid: Grid,
    max_steps: Optional[int] = None,
    tie_break: str = TieBreak.ERROR,
    seed: int = 0,
    record_trace: bool = True,
    matcher: Optional[LocalMatcher] = None,
) -> ExecutionResult:
    """Simulate the algorithm under the fully synchronous scheduler.

    ``matcher`` may be supplied (typically from a shared
    :class:`~repro.engine.matcher.MatcherCache`) to reuse snapshot/match
    memo tables across runs; by default each run gets a private one.
    """
    TieBreak.validate(tie_break)
    rng = random.Random(seed)
    matcher = matcher if matcher is not None else LocalMatcher(algorithm, grid)
    world = algorithm.initial_world(grid)
    recorder = _Recorder(algorithm, world, "FSYNC", record_trace, seed=seed, tie_break=tie_break)
    budget = max_steps if max_steps is not None else default_step_budget(grid, algorithm.k, "FSYNC")

    for round_index in range(budget):
        enabled = _round_matches(matcher, world)
        if not enabled:
            return recorder.result(round_index, True, "terminal")
        _synchronous_round(algorithm, recorder, enabled, round_index, tie_break, rng)
    terminated = not _round_matches(matcher, world)
    reason = "terminal" if terminated else "max_steps"
    return recorder.result(budget, terminated, reason)


def run_ssync(
    algorithm: Algorithm,
    grid: Grid,
    scheduler: Optional[SsyncScheduler] = None,
    max_steps: Optional[int] = None,
    tie_break: str = TieBreak.FIRST,
    seed: int = 0,
    record_trace: bool = True,
    matcher: Optional[LocalMatcher] = None,
) -> ExecutionResult:
    """Simulate the algorithm under a semi-synchronous scheduler."""
    TieBreak.validate(tie_break)
    rng = random.Random(seed)
    scheduler = scheduler if scheduler is not None else RandomSubset(seed=seed)
    matcher = matcher if matcher is not None else LocalMatcher(algorithm, grid)
    world = algorithm.initial_world(grid)
    recorder = _Recorder(algorithm, world, "SSYNC", record_trace, seed=seed, tie_break=tie_break)
    budget = max_steps if max_steps is not None else default_step_budget(grid, algorithm.k, "SSYNC")

    for round_index in range(budget):
        enabled = _round_matches(matcher, world)
        if not enabled:
            return recorder.result(round_index, True, "terminal")
        chosen = scheduler.checked_select(round_index, [robot.rid for robot, _ in enabled])
        by_rid = {robot.rid: (robot, matches) for robot, matches in enabled}
        # Preserve the scheduler's activation order exactly (it fixes the
        # order in which tie-break randomness is consumed and events land).
        _synchronous_round(
            algorithm, recorder, [by_rid[rid] for rid in chosen], round_index, tie_break, rng
        )
    terminated = not _round_matches(matcher, world)
    reason = "terminal" if terminated else "max_steps"
    return recorder.result(budget, terminated, reason)


# ---------------------------------------------------------------------------
# Asynchronous engine
# ---------------------------------------------------------------------------
@dataclass(slots=True)
class _AsyncRobotState:
    """Per-robot cycle state in the ASYNC engine."""

    phase: str = "idle"  # "idle" -> "looked" -> "computed" -> "idle"
    snapshot: Optional[Snapshot] = None
    pending: Optional[Action] = None
    pending_rule: Optional[str] = None
    pending_symmetry: Optional[str] = None


def run_async(
    algorithm: Algorithm,
    grid: Grid,
    scheduler: Optional[AsyncScheduler] = None,
    max_steps: Optional[int] = None,
    tie_break: str = TieBreak.FIRST,
    seed: int = 0,
    record_trace: bool = True,
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

    A robot that is not enabled at Look time is not offered a Look step:
    its whole cycle would be a no-op and skipping it does not change the
    set of reachable configurations (it only avoids unbounded stuttering in
    bounded simulations).
    """
    TieBreak.validate(tie_break)
    rng = random.Random(seed)
    scheduler = scheduler if scheduler is not None else RandomAsync(seed=seed)
    matcher = matcher if matcher is not None else LocalMatcher(algorithm, grid)
    world = algorithm.initial_world(grid)
    recorder = _Recorder(algorithm, world, "ASYNC", record_trace, seed=seed, tie_break=tie_break)
    budget = max_steps if max_steps is not None else default_step_budget(grid, algorithm.k, "ASYNC")

    states: Dict[int, _AsyncRobotState] = {robot.rid: _AsyncRobotState() for robot in world.robots}

    for step_index in range(budget):
        candidates: List[Tuple[int, str]] = []
        for robot in world.robots:
            state = states[robot.rid]
            if state.phase == "looked":
                candidates.append((robot.rid, "compute"))
            elif state.phase == "computed":
                candidates.append((robot.rid, "move"))
            elif matcher.enabled(world.robots, robot.pos, robot.color):
                candidates.append((robot.rid, "look"))
        if not candidates:
            return recorder.result(step_index, True, "terminal")

        rid, phase = scheduler.checked_choose(step_index, candidates)
        robot = world.robot(rid)
        state = states[rid]

        if phase == "look":
            state.snapshot = matcher.snapshot(world.robots, robot.pos)
            state.phase = "looked"
            recorder.events.append(
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
            assert state.snapshot is not None
            matches = matcher.matches_for_snapshot(state.snapshot, robot.color)
            if not matches:
                state.phase = "idle"
                state.snapshot = None
            else:
                match = _resolve(algorithm, matches, tie_break, rng)
                world.set_color(rid, match.action.new_color)
                state.pending = match.action
                state.pending_rule = match.rule.name
                state.pending_symmetry = match.symmetry.name
                state.phase = "computed"
                recorder.events.append(
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
                recorder.snapshot_config()
        elif phase == "move":
            assert state.pending is not None
            new_pos = world.move(rid, state.pending.world_move)
            recorder.events.append(
                Event(
                    time=step_index,
                    rid=rid,
                    phase="move",
                    rule=state.pending_rule,
                    symmetry=state.pending_symmetry,
                    old_pos=robot.pos,
                    new_pos=new_pos,
                    old_color=robot.color,
                    new_color=robot.color,
                )
            )
            state.phase = "idle"
            state.snapshot = None
            state.pending = None
            state.pending_rule = None
            state.pending_symmetry = None
            _visit(recorder.visited, world)
            recorder.snapshot_config()
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown ASYNC phase {phase!r}")

    # Budget exhausted: terminal only if every robot is idle and disabled.
    all_idle = all(state.phase == "idle" for state in states.values())
    terminated = all_idle and not _enabled_robots(matcher, world)
    reason = "terminal" if terminated else "max_steps"
    return recorder.result(budget, terminated, reason)


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
