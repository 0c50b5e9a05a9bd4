"""Benchmark: engine exploration throughput, caches and campaign backends.

Tracks the perf trajectory of the exhaustive checker across PRs in a
machine-readable ledger, ``BENCH_engine.json`` at the repo root:

* **seed vs engine** (PR 1 trajectory) — a faithful copy of the pre-engine
  model checker (one ad-hoc successor generator materialising a ``World``
  per expansion, no memoization) against the unified kernel, on the 3x3
  suites;
* **4x4 FSYNC exhaustive check** (PR 2 trajectory) — the cold public path
  (fresh transition system and matcher per check) against the persistent
  :class:`~repro.engine.matcher.MatcherCache` fast path;
* **cross-size cache reuse** — hit rates of one shared cache swept across
  a family of grid sizes (the matcher's keys are grid-size independent);
* **pooled reuse** (PR 3 trajectory) — two consecutive small-grid checks on
  one persistent :class:`~repro.engine.backend.PoolBackend`; the second
  check must hit the backend's coordinator cache warmed by the first;
* **reduction quotients** (PR 4 trajectory) — the suite ASYNC case
  (:data:`repro.engine.suites.REDUCTION_BENCH_CASE`) checked unreduced
  and under ``reduction="grid"``: the verdicts must be byte-identical,
  and the quotient ratio and wall times land in the ledger;
* **pooled campaigns** — one exhaustive sweep run through a two-worker
  :class:`~repro.engine.backend.PoolBackend`; reports must be identical to
  the serial engine's;
* **verdict store** (PR 9 trajectory) — the same exhaustive sweep run
  twice against one on-disk :class:`~repro.engine.store.VerdictStore`:
  the cold pass computes and durably records every verdict, the warm pass
  must be answered entirely from the store; both passes are
  parity-enforced against a store-less serial engine and the cold/warm
  wall ratio (the re-check speedup every later consumer inherits) lands
  in the ledger with a >= 10x gate;
* **sort-key cache** (PR 6 trajectory) — the
  ``SchedulerState.from_records`` micro-benchmark (re-sorting
  already-seen records, the kernel's hottest state-construction
  operation).

Run directly:

* ``python benchmarks/bench_engine.py`` — full pass; prints the tables,
  rewrites ``BENCH_engine.json``, and fails loudly unless the engine beats
  the seed checker by >= 2x on 3x3 FSYNC *and* the cache fast path beats
  the cold path by >= 2x on the 4x4 FSYNC exhaustive check;
* ``python benchmarks/bench_engine.py --smoke`` — quick pass wired into
  ``make verify``: re-measures the 3x3 FSYNC check and fails if it has
  regressed more than 3x against the recorded ``BENCH_engine.json``
  baseline (nothing is rewritten).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from itertools import combinations, product
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms import get
from repro.checking import check_terminating_exploration, explore_state_space
from repro.core import Grid
from repro.core.algorithm import Action, Algorithm, Match
from repro.core.rules import CellKind, CellSpec, Guard, occ
from repro.core.views import Symmetry, ball_offsets
from repro.engine import (
    REDUCTION_BENCH_CASE,
    AlgorithmTransitionSystem,
    ParallelCampaignEngine,
    PoolBackend,
    SchedulerState,
    SerialBackend,
    VerdictStore,
    exhaustive_check_tasks,
    explore,
    initial_state,
)
from repro.engine.states import AsyncRobotState, world_from_state

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: The case the ``--smoke`` regression guard is keyed on.
SMOKE_CASE = "fsync_phi2_l2_chir_k2 3x3 [FSYNC] kernel"
#: ``make verify`` fails when the smoke case is more than this factor slower
#: than the recorded baseline.
SMOKE_REGRESSION_FACTOR = 3.0
#: The same-machine reference the smoke guard normalizes by: the seed
#: checker runs the identical workload, so the *ratio* kernel/seed is
#: comparable across machines while absolute states/s are not.
SMOKE_REFERENCE_CASE = "fsync_phi2_l2_chir_k2 3x3 [FSYNC] seed"

#: The ASYNC exploration whose records the ``from_records`` bench re-sorts.
FROM_RECORDS_CASE = ("async_phi2_l2_nochir_k4", 4, 4, "ASYNC")

#: The grid sizes of the exhaustive sweep the pooled and verdict-store
#: benches run (Algorithm 1, FSYNC, grid quotient).
SWEEP_SIZES = [(3, 3), (3, 4), (4, 3), (4, 4)]

#: Warm verdict-store hits must beat the cold computing pass by at least
#: this factor on the exhaustive sweep (a same-machine ratio, so the gate
#: is hardware-independent like ``kernel_vs_seed``).
STORE_WARM_SPEEDUP_FLOOR = 10.0


# ---------------------------------------------------------------------------
# The seed checker, reproduced verbatim (pre-engine implementation)
#
# It carries its own copy of the interpretive match chain it was measured
# with (Algorithm.matches_for_robot -> Rule.matches -> Guard.matches ->
# CellSpec.matches, re-reading the guard and applying the symmetry matrix
# to every cell on every call), so the yardstick the smoke guard divides
# by stays fixed when the library's matcher gets faster.
# ---------------------------------------------------------------------------
def _seed_cell_matches(spec: CellSpec, content) -> bool:
    if spec.kind is CellKind.ANY:
        return True
    if spec.kind is CellKind.WALL:
        return content is None
    if spec.kind is CellKind.EMPTY:
        return content == ()
    if spec.kind is CellKind.FREE:
        return content is None or content == ()
    return content is not None and content == spec.colors


def _seed_guard_matches(guard: Guard, snapshot, symmetry: Symmetry, center_default: CellSpec) -> bool:
    explicit = guard.as_dict()
    for offset in ball_offsets(guard.phi):
        if offset == (0, 0):
            spec = explicit.get(offset)
            if spec is None:
                spec = center_default if center_default is not None else guard.default
        else:
            spec = explicit.get(offset, guard.default)
        if spec.kind is CellKind.ANY:
            continue
        if not _seed_cell_matches(spec, snapshot[symmetry.apply(offset)]):
            return False
    return True


def _seed_matches_for_robot(algorithm: Algorithm, world, robot) -> List[Match]:
    snapshot = world.snapshot(robot.pos, algorithm.phi)
    result: List[Match] = []
    for rule in algorithm.rules_for_color(robot.color):
        for symmetry in algorithm.symmetries():
            if _seed_guard_matches(rule.guard, snapshot, symmetry, occ(rule.self_color)):
                action = Action(new_color=rule.new_color, world_move=rule.world_move(symmetry))
                result.append(Match(rule=rule, symmetry=symmetry, action=action))
    return result


def _seed_enabled_choices(algorithm: Algorithm, grid: Grid, state: SchedulerState):
    world = world_from_state(grid, state)
    choices = []
    for index, robot in enumerate(world.robots):
        actions = algorithm.distinct_actions(_seed_matches_for_robot(algorithm, world, robot))
        if actions:
            choices.append((index, actions))
    return choices


def _seed_apply_synchronous(
    state: SchedulerState, moves: Sequence[Tuple[int, Optional[str], Optional[Tuple[int, int]]]]
) -> SchedulerState:
    records = list(state.robots)
    for index, new_color, world_move in moves:
        record = records[index]
        pos = record.pos
        if world_move is not None:
            pos = (pos[0] + world_move[0], pos[1] + world_move[1])
        records[index] = AsyncRobotState(pos=pos, color=new_color if new_color else record.color)
    return SchedulerState.from_records(records)


def _seed_successors(algorithm: Algorithm, grid: Grid, state: SchedulerState, model: str):
    choices = _seed_enabled_choices(algorithm, grid, state)
    if not choices:
        return []
    successors = []
    if model == "FSYNC":
        for combo in product(*[actions for _, actions in choices]):
            moves = [
                (index, action.new_color, action.world_move)
                for (index, _), action in zip(choices, combo)
            ]
            successors.append(_seed_apply_synchronous(state, moves))
        return successors
    # SSYNC
    indices = [index for index, _ in choices]
    by_index = dict(choices)
    for size in range(1, len(indices) + 1):
        for subset in combinations(indices, size):
            for combo in product(*[by_index[index] for index in subset]):
                moves = [
                    (index, action.new_color, action.world_move)
                    for index, action in zip(subset, combo)
                ]
                successors.append(_seed_apply_synchronous(state, moves))
    return successors


def seed_explore(algorithm: Algorithm, grid: Grid, model: str) -> Dict[SchedulerState, List[SchedulerState]]:
    """The pre-engine state-space exploration (DFS stack, no memoization)."""
    root = initial_state(algorithm, grid)
    graph: Dict[SchedulerState, List[SchedulerState]] = {}
    stack = [root]
    while stack:
        state = stack.pop()
        if state in graph:
            continue
        succ = _seed_successors(algorithm, grid, state, model)
        graph[state] = succ
        for nxt in succ:
            if nxt not in graph:
                stack.append(nxt)
    return graph


# ---------------------------------------------------------------------------
# Measurement harness
# ---------------------------------------------------------------------------
def _measure(run, repetitions: int) -> Tuple[float, int]:
    """(seconds per run, states per run) over ``repetitions`` full checks."""
    states = run()  # warm-up, also yields the per-run state count
    start = time.perf_counter()
    for _ in range(repetitions):
        run()
    elapsed = time.perf_counter() - start
    return elapsed / repetitions, states


def _case(
    name: str,
    wall_s: float,
    states: int,
    *,
    cache_hit_rate: Optional[float] = None,
    workers: Optional[int] = None,
) -> dict:
    row = {
        "case": name,
        "states": states,
        "wall_s": wall_s,
        "states_per_s": states / wall_s if wall_s else float("inf"),
    }
    if cache_hit_rate is not None:
        row["cache_hit_rate"] = cache_hit_rate
    if workers is not None:
        row["workers"] = workers
    return row


# ---------------------------------------------------------------------------
# Benchmark sections
# ---------------------------------------------------------------------------
def bench_seed_vs_engine(name: str, model: str, repetitions: int) -> List[dict]:
    """The PR-1 trajectory: seed checker vs cold engine vs reused kernel (3x3)."""
    algorithm = get(name)
    grid = Grid(3, 3)
    label = f"{name} 3x3 [{model}]"

    seed_s, states = _measure(lambda: len(seed_explore(algorithm, grid, model)), repetitions)
    cold_s, _ = _measure(lambda: len(explore_state_space(algorithm, grid, model=model)), repetitions)
    kernel = AlgorithmTransitionSystem(algorithm, grid, model)
    kernel_s, _ = _measure(lambda: explore(kernel).num_states, repetitions)
    return [
        _case(f"{label} seed", seed_s, states),
        _case(f"{label} cold", cold_s, states),
        _case(f"{label} kernel", kernel_s, states),
    ]


def bench_fsync_4x4(repetitions: int) -> List[dict]:
    """The PR-2 trajectory: the 4x4 FSYNC exhaustive check, two ways.

    *cold* rebuilds the transition system and matcher per check (the public
    default), *cached* threads one :class:`SerialBackend` — and so its
    persistent matcher cache — through repeated checks (the campaign/sweep
    fast path).
    """
    algorithm = get("fsync_phi2_l2_chir_k2")
    grid = Grid(4, 4)
    label = "fsync_phi2_l2_chir_k2 4x4 [FSYNC]"

    cold_s, states = _measure(
        lambda: check_terminating_exploration(algorithm, grid, model="FSYNC").states_explored,
        repetitions,
    )

    backend = SerialBackend()

    def cached_check() -> int:
        return check_terminating_exploration(
            algorithm, grid, model="FSYNC", backend=backend
        ).states_explored

    cached_s, _ = _measure(cached_check, repetitions)
    hit_rate = backend.cache.stats.hit_rate
    return [
        _case(f"{label} cold", cold_s, states),
        _case(f"{label} cached", cached_s, states, cache_hit_rate=hit_rate),
    ]


def bench_cross_size_cache() -> Tuple[List[dict], float]:
    """Hit rates of one shared cache swept across grid sizes.

    Returns the per-size rows plus the hit rate observed on the *last* size
    — reached with a cache warmed purely on other sizes, so any nonzero
    value demonstrates cross-size reuse.
    """
    algorithm = get("fsync_phi2_l2_chir_k2")
    sizes = [(3, 3), (3, 4), (4, 3), (3, 5), (4, 4), (4, 5), (5, 5)]
    backend = SerialBackend()
    cache = backend.cache
    rows: List[dict] = []
    final_rate = 0.0
    for m, n in sizes:
        grid = Grid(m, n)
        before = cache.stats.snapshot()
        start = time.perf_counter()
        result = check_terminating_exploration(algorithm, grid, model="FSYNC", backend=backend)
        wall = time.perf_counter() - start
        delta = cache.stats.delta_since(before)
        rows.append(
            _case(
                f"cross-size sweep {m}x{n} [FSYNC]",
                wall,
                result.states_explored,
                cache_hit_rate=delta.hit_rate,
            )
        )
        final_rate = delta.hit_rate
    return rows, final_rate


def bench_pooled_reuse() -> Tuple[List[dict], float]:
    """The PR-3 trajectory: two consecutive checks on one persistent pool.

    Both checks run in the calling process on the :class:`PoolBackend`'s
    persistent coordinator cache, so the second one hits the patterns the
    first one memoized.  Returns the row plus the second check's hit rate.
    """
    algorithm = get("fsync_phi2_l2_chir_k2")
    grid = Grid(3, 3)
    label = "fsync_phi2_l2_chir_k2 3x3 [FSYNC]"
    serial_check = check_terminating_exploration(algorithm, grid, model="FSYNC")
    states = serial_check.states_explored

    start = time.perf_counter()
    with PoolBackend() as backend:
        first = check_terminating_exploration(algorithm, grid, model="FSYNC", backend=backend)
        second = check_terminating_exploration(algorithm, grid, model="FSYNC", backend=backend)
    pooled_s = time.perf_counter() - start
    # RuntimeError, not assert: parity must hold even under ``python -O``,
    # or a diverging run could be recorded as a passing baseline.
    if first != serial_check or second != serial_check:
        raise RuntimeError("pooled check diverged from the serial check")

    reuse_rate = second.matcher_stats["hit_rate"]
    return [_case(f"{label} 2x pooled", pooled_s, 2 * states, cache_hit_rate=reuse_rate)], reuse_rate


def _reduction_case(repetitions: int = 1) -> Dict[str, Tuple[float, "object"]]:
    """Wall time and CheckResult of the reduction bench case per spec."""
    name, m, n, model = REDUCTION_BENCH_CASE
    algorithm = get(name)
    grid = Grid(m, n)
    outcomes: Dict[str, Tuple[float, object]] = {}
    for spec in ("none", "grid"):
        # The verdict run is itself the first timed run, so the smoke guard
        # (repetitions=1) pays exactly one exploration per spec.
        start = time.perf_counter()
        result = check_terminating_exploration(algorithm, grid, model=model, reduction=spec)
        for _ in range(repetitions - 1):
            check_terminating_exploration(algorithm, grid, model=model, reduction=spec)
        wall = (time.perf_counter() - start) / repetitions
        outcomes[spec] = (wall, result)
    base = outcomes["none"][1]
    for spec, (_, result) in outcomes.items():
        if (result.terminates, result.explores, result.ok, result.counterexample) != (
            base.terminates,
            base.explores,
            base.ok,
            base.counterexample,
        ):
            # RuntimeError, not assert: verdict parity must hold even under
            # ``python -O`` or a diverging reduction becomes the baseline.
            raise RuntimeError(f"reduction={spec!r} changed the verdict of the bench case")
    return outcomes


def bench_reduction(repetitions: int) -> Tuple[List[dict], float]:
    """The suite ASYNC case checked unreduced and under the grid quotient.

    Checks :data:`REDUCTION_BENCH_CASE` unreduced and under the grid
    quotient; verdicts must agree (enforced).  Returns the rows plus the
    state quotient ratio none/grid.
    """
    name, m, n, model = REDUCTION_BENCH_CASE
    label = f"{name} {m}x{n} [{model}]"
    outcomes = _reduction_case(repetitions)
    rows = [
        _case(f"{label} reduction={spec}", wall, result.states_explored)
        for spec, (wall, result) in outcomes.items()
    ]
    grid_states = outcomes["grid"][1].states_explored
    none_states = outcomes["none"][1].states_explored
    return rows, none_states / grid_states if grid_states else float("inf")


def bench_pooled_sweep(workers: int = 2) -> List[dict]:
    """One exhaustive sweep on a persistent pool.

    Runs the :data:`SWEEP_SIZES` ``kind="check"`` task list through a
    ``workers``-process :class:`PoolBackend`; the reports must reproduce
    the serial engine's exactly (enforced).
    """
    algorithm = get("fsync_phi2_l2_chir_k2")
    tasks = exhaustive_check_tasks(algorithm, sizes=SWEEP_SIZES, reduction="grid")
    label = f"fsync_phi2_l2_chir_k2 exhaustive sweep x{len(tasks)} [FSYNC]"
    serial_reports = ParallelCampaignEngine().run_tasks(tasks)
    states = sum(report.steps for report in serial_reports)

    start = time.perf_counter()
    with PoolBackend(workers=workers) as backend:
        pooled_reports = ParallelCampaignEngine(backend=backend).run_tasks(tasks)
    pooled_s = time.perf_counter() - start

    # RuntimeError, not assert: parity must hold even under ``python -O``,
    # or a diverging pool could be recorded as a passing baseline.
    if pooled_reports != serial_reports:
        raise RuntimeError("pooled campaign diverged from the serial engine")
    return [_case(f"{label} pooled", pooled_s, states, workers=workers)]


def _store_sweep(store_path: Path) -> Tuple[int, int, float, float, dict]:
    """One exhaustive sweep cold (computing) then warm (store hits only).

    Runs the :data:`SWEEP_SIZES` task list through a serial engine
    backed by an on-disk :class:`VerdictStore` twice and returns
    ``(task_count, states, cold_s, warm_s, store_stats)``.  Both passes
    are parity-enforced against a store-less serial engine, and the warm
    pass must be answered entirely from the store.
    """
    algorithm = get("fsync_phi2_l2_chir_k2")
    tasks = exhaustive_check_tasks(algorithm, sizes=SWEEP_SIZES, reduction="grid")
    serial_reports = ParallelCampaignEngine().run_tasks(tasks)
    states = sum(report.steps for report in serial_reports)

    with VerdictStore(store_path) as store:
        engine = ParallelCampaignEngine(store=store)
        start = time.perf_counter()
        cold_reports = engine.run_tasks(tasks)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm_reports = engine.run_tasks(tasks)
        warm_s = time.perf_counter() - start
        stats = store.stats

    # RuntimeError, not assert: cached verdicts must stay byte-identical
    # to computed ones even under ``python -O``; ``store_stats`` rides
    # ``compare=False``, so ``==`` checks exactly the verdict fields.
    if cold_reports != serial_reports:
        raise RuntimeError("store-backed cold sweep diverged from the serial engine")
    if warm_reports != serial_reports:
        raise RuntimeError("warm store sweep diverged from the serial engine")
    if any(report.store_stats["outcome"] != "hit" for report in warm_reports):
        raise RuntimeError("warm sweep was not answered entirely from the store")
    return len(tasks), states, cold_s, warm_s, stats


def bench_store() -> Tuple[List[dict], float, dict]:
    """The PR-9 trajectory: the exhaustive sweep, cold vs warm verdict store.

    The cold pass computes and durably records every verdict of the
    :data:`SWEEP_SIZES` task list; the warm pass re-requests the
    identical tasks and must be served entirely from the store with
    byte-identical reports (enforced inside :func:`_store_sweep`).  The
    cold/warm ratio is the re-check speedup every later consumer of an
    already-checked spec inherits.  Returns the rows, that ratio, and the
    store's counter snapshot.
    """
    with tempfile.TemporaryDirectory(prefix="bench-verdict-store-") as root:
        task_count, states, cold_s, warm_s, stats = _store_sweep(Path(root) / "verdicts")
    label = f"fsync_phi2_l2_chir_k2 exhaustive sweep x{task_count} [FSYNC]"
    rows = [
        _case(f"{label} store cold", cold_s, states),
        _case(f"{label} store warm", warm_s, states),
    ]
    return rows, cold_s / warm_s if warm_s else float("inf"), stats


#: Warm requests timed per ``bench_service`` run (enough to average out
#: socket jitter without dominating the suite's wall clock).
SERVICE_WARM_REQUESTS = 50


def bench_service() -> Tuple[List[dict], float, float, dict]:
    """Warm-hit ``POST /v1/check`` latency through the HTTP service.

    Starts the in-process threaded server over a throwaway on-disk store,
    issues one cold check (computes and records the verdict), then times
    :data:`SERVICE_WARM_REQUESTS` warm requests end-to-end through real
    loopback HTTP.  Two gates are enforced as RuntimeErrors (they survive
    ``python -O``): every warm response must be served from the store —
    ``store_stats.outcome == "hit"`` and a frozen miss counter, i.e. a
    warm hit never re-enters the engine — and its verdict bytes must be
    identical to the cold response's.  Returns
    ``(rows, warm_latency_s, cold_s, store_stats)``.
    """
    from repro.engine.spec import canonical_json
    from repro.service import VerificationService, start_in_thread
    from repro.service.client import ServiceClient

    spec = {
        "algorithm": "fsync_phi2_l2_chir_k2",
        "m": 3,
        "n": 3,
        "model": "FSYNC",
        "reduction": "grid",
    }
    with tempfile.TemporaryDirectory(prefix="bench-service-") as root:
        store = VerdictStore(Path(root) / "verdicts")
        service = VerificationService(store)
        server, _ = start_in_thread(service)
        try:
            client = ServiceClient(server.url)
            start = time.perf_counter()
            cold = client.check(spec)
            cold_s = time.perf_counter() - start
            cold_verdict = canonical_json(cold["verdict"])
            misses_after_cold = store.stats["misses"]
            latencies = []
            for _ in range(SERVICE_WARM_REQUESTS):
                start = time.perf_counter()
                warm = client.check(spec)
                latencies.append(time.perf_counter() - start)
                if warm["observability"]["store_stats"]["outcome"] != "hit":
                    raise RuntimeError("a warm service check re-entered the engine")
                if canonical_json(warm["verdict"]) != cold_verdict:
                    raise RuntimeError("a warm HTTP verdict diverged from the cold one")
            if store.stats["misses"] != misses_after_cold:
                raise RuntimeError("the store recorded new misses during the warm requests")
            stats = store.stats
            states = cold["verdict"]["states_explored"]
        finally:
            server.shutdown()
            service.close()
    warm_s = sum(latencies) / len(latencies)
    label = "service POST /v1/check fsync_phi2_l2_chir_k2 3x3 [FSYNC]"
    rows = [
        _case(f"{label} cold", cold_s, states),
        _case(f"{label} warm hit", warm_s, states),
    ]
    return rows, warm_s, cold_s, stats


def bench_from_records(repetitions: int) -> Tuple[List[dict], float]:
    """The ``SchedulerState.from_records`` sort-key cache micro-benchmark.

    Re-sorts the record tuples of a real ASYNC exploration two ways: with
    the records it already holds (whose :meth:`AsyncRobotState.key` caches
    are warm — the explorer's steady state, where successor construction
    reuses parent records) and with freshly constructed copies (cold
    caches, the pre-PR-6 cost).  Returns the rows plus warm-vs-cold
    speedup; "states" counts the states rebuilt per run.
    """
    name, m, n, model = FROM_RECORDS_CASE
    algorithm = get(name)
    exploration = explore(AlgorithmTransitionSystem(algorithm, Grid(m, n), model))
    record_sets = [state.robots for state in exploration.states]

    def warm() -> int:
        for robots in record_sets:
            SchedulerState.from_records(robots)
        return len(record_sets)

    def cold() -> int:
        for robots in record_sets:
            SchedulerState.from_records(
                AsyncRobotState(r.pos, r.color, r.phase, r.snapshot, r.pending_color, r.pending_move)
                for r in robots
            )
        return len(record_sets)

    warm_s, states = _measure(warm, repetitions)
    cold_s, _ = _measure(cold, repetitions)
    label = f"from_records x{states} [{model} records]"
    return (
        [
            _case(f"{label} cached keys", warm_s, states),
            _case(f"{label} fresh records", cold_s, states),
        ],
        cold_s / warm_s if warm_s else float("inf"),
    )


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
def _by_case(rows: List[dict]) -> Dict[str, dict]:
    return {row["case"]: row for row in rows}


def _print_table(rows: List[dict]) -> None:
    header = f"{'case':52s} {'states':>7s} {'wall ms':>9s} {'states/s':>10s} {'cache':>6s}"
    print(header)
    print("-" * len(header))
    for row in rows:
        cache = f"{row['cache_hit_rate']:.0%}" if "cache_hit_rate" in row else "-"
        print(
            f"{row['case']:52s} {row['states']:7d} {row['wall_s'] * 1e3:9.2f}"
            f" {row['states_per_s']:10.0f} {cache:>6s}"
        )


def run_full(repetitions: int, output: Path) -> int:
    rows: List[dict] = []
    rows += bench_seed_vs_engine("fsync_phi2_l2_chir_k2", "FSYNC", repetitions)
    rows += bench_seed_vs_engine("fsync_phi2_l2_chir_k2", "SSYNC", repetitions)
    rows += bench_seed_vs_engine("fsync_phi1_l2_chir_k3", "SSYNC", repetitions)
    rows += bench_fsync_4x4(repetitions)
    cross_rows, cross_rate = bench_cross_size_cache()
    rows += cross_rows
    pooled_rows, pooled_reuse_rate = bench_pooled_reuse()
    rows += pooled_rows
    reduction_rows, grid_quotient_x = bench_reduction(max(1, repetitions // 10))
    rows += reduction_rows
    rows += bench_pooled_sweep()
    store_rows, store_x, store_stats = bench_store()
    rows += store_rows
    service_rows, service_warm_s, service_cold_s, service_store_stats = bench_service()
    rows += service_rows
    records_rows, records_x = bench_from_records(max(1, repetitions // 10))
    rows += records_rows

    by_case = _by_case(rows)
    engine_x = (
        by_case["fsync_phi2_l2_chir_k2 3x3 [FSYNC] seed"]["wall_s"]
        / by_case["fsync_phi2_l2_chir_k2 3x3 [FSYNC] kernel"]["wall_s"]
    )
    fsync44_x = (
        by_case["fsync_phi2_l2_chir_k2 4x4 [FSYNC] cold"]["wall_s"]
        / by_case["fsync_phi2_l2_chir_k2 4x4 [FSYNC] cached"]["wall_s"]
    )

    _print_table(rows)
    print(f"\n3x3 FSYNC: engine kernel is {engine_x:.2f}x the seed checker")
    print(f"4x4 FSYNC exhaustive check: persistent-cache fast path is {fsync44_x:.2f}x the cold path")
    print(f"cross-size matcher-cache hit rate on the final sweep size: {cross_rate:.0%}")
    print(f"3x3 FSYNC twice on one pool: {pooled_reuse_rate:.0%} cache hits on the second check")
    reduction_label = "{} {}x{} [{}]".format(*REDUCTION_BENCH_CASE)
    print(
        f"{reduction_label}: unreduced/grid-quotient state ratio {grid_quotient_x:.2f}"
        " (verdicts identical)"
    )
    print(
        f"exhaustive sweep against the verdict store: warm hits are {store_x:.2f}x"
        f" the cold computing pass ({store_stats['hits']} hits,"
        f" {store_stats['misses']} misses, byte-identical reports)"
    )
    print(
        f"HTTP service: warm /v1/check hits answer in {service_warm_s * 1e3:.2f} ms"
        f" end-to-end ({service_cold_s / service_warm_s:.1f}x the cold request,"
        f" {service_store_stats['hits']} hits, verdicts byte-identical, engine never re-entered)"
    )
    print(f"from_records with cached sort keys: {records_x:.2f}x fresh records")

    ok = True
    if engine_x < 2.0:
        print("FAIL: expected >= 2x engine-vs-seed improvement on 3x3 FSYNC", file=sys.stderr)
        ok = False
    if fsync44_x < 2.0:
        print(
            "FAIL: expected >= 2x cached-vs-cold improvement on the 4x4 FSYNC exhaustive check",
            file=sys.stderr,
        )
        ok = False
    if cross_rate <= 0.0:
        print("FAIL: expected a nonzero cross-size matcher-cache hit rate", file=sys.stderr)
        ok = False
    if pooled_reuse_rate <= 0.0:
        print(
            "FAIL: expected a nonzero cross-exploration hit rate on the second pooled check",
            file=sys.stderr,
        )
        ok = False
    if store_x < STORE_WARM_SPEEDUP_FLOOR:
        print(
            f"FAIL: expected warm verdict-store hits to beat the cold pass by"
            f" >= {STORE_WARM_SPEEDUP_FLOOR:.0f}x on the exhaustive sweep"
            f" (measured {store_x:.1f}x)",
            file=sys.stderr,
        )
        ok = False
    if service_warm_s >= service_cold_s:
        print(
            "FAIL: expected a warm HTTP check (store hit) to answer faster than the"
            " cold computing request",
            file=sys.stderr,
        )
        ok = False
    if records_x <= 1.0:
        print(
            "FAIL: expected cached sort keys to beat fresh records in from_records",
            file=sys.stderr,
        )
        ok = False
    if not ok:
        # Leave the previously recorded baseline in place: a failing run
        # must never become the yardstick future smoke passes are held to.
        print(f"not updating {output} (gates failed)", file=sys.stderr)
        return 1

    payload = {
        "schema": 2,
        "generated_unix": int(time.time()),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "repetitions": repetitions,
        "cases": rows,
        "headline": {
            "engine_vs_seed_3x3_fsync": engine_x,
            "fsync_4x4_exhaustive_speedup": fsync44_x,
            "cross_size_cache_hit_rate": cross_rate,
            "pooled_cross_exploration_hit_rate": pooled_reuse_rate,
            "reduction_bench_case": reduction_label,
            "reduction_grid_quotient_vs_unreduced": grid_quotient_x,
            "store_warm_vs_cold_sweep": store_x,
            "store_stats": store_stats,
            "service_warm_hit_latency_s": service_warm_s,
            "service_cold_check_s": service_cold_s,
            "service_warm_requests": SERVICE_WARM_REQUESTS,
            "service_store_stats": service_store_stats,
            "from_records_cached_keys_vs_fresh": records_x,
        },
        # The guard compares the machine-independent *ratio* of the kernel
        # to the same-machine seed reference, not absolute states/s.
        "smoke_guard": {
            "case": SMOKE_CASE,
            "reference_case": SMOKE_REFERENCE_CASE,
            "kernel_vs_seed": engine_x,
            "states_per_s": by_case[SMOKE_CASE]["states_per_s"],
            "max_regression_factor": SMOKE_REGRESSION_FACTOR,
            # The verdict-store floor the smoke guard re-measures: warm
            # hits vs the cold computing pass on the exhaustive sweep,
            # gated on the absolute (machine-independent) ratio floor.
            "store_warm_vs_cold": store_x,
            "store_warm_floor": STORE_WARM_SPEEDUP_FLOOR,
        },
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {output}")
    print("OK: all benchmark gates passed")
    return 0


def run_smoke(repetitions: int, baseline_path: Path) -> int:
    """The ``make verify`` guard: 3x3 FSYNC regression + reduction soundness.

    Both the kernel case and the seed reference are re-measured on the
    *current* machine and compared as a ratio against the recorded ratio,
    so the guard tracks code regressions rather than hardware differences.
    The reduction guard then re-checks the suite ASYNC bench case: the
    ``grid`` quotient must reach the unreduced verdict (the verdict parity
    is enforced inside :func:`_reduction_case`).  Last the
    verdict-store guard re-runs the exhaustive sweep cold and warm against
    a throwaway on-disk store: warm hits must stay byte-identical to
    computed reports (enforced inside :func:`_store_sweep`) and keep the
    absolute :data:`STORE_WARM_SPEEDUP_FLOOR` speedup.
    """
    algorithm = get("fsync_phi2_l2_chir_k2")
    grid = Grid(3, 3)
    seed_s, states = _measure(lambda: len(seed_explore(algorithm, grid, "FSYNC")), repetitions)
    kernel = AlgorithmTransitionSystem(algorithm, grid, "FSYNC")
    kernel_s, _ = _measure(lambda: explore(kernel).num_states, repetitions)
    current_ratio = seed_s / kernel_s
    print(
        f"smoke: {SMOKE_CASE}: {states / kernel_s:.0f} states/s,"
        f" {current_ratio:.1f}x the seed reference ({states} states)"
    )

    outcomes = _reduction_case()  # raises on a verdict divergence
    print(
        "smoke: {} {}x{} [{}]: grid {} states vs none {} states,"
        " verdict unchanged".format(
            *REDUCTION_BENCH_CASE,
            outcomes["grid"][1].states_explored,
            outcomes["none"][1].states_explored,
        )
    )

    # Verdict-store guard: warm hits must stay byte-identical to computed
    # reports (enforced inside ``_store_sweep``) and keep the absolute
    # speedup floor — a same-machine ratio, so no baseline is needed.
    with tempfile.TemporaryDirectory(prefix="smoke-verdict-store-") as root:
        task_count, _, store_cold_s, store_warm_s, _ = _store_sweep(Path(root) / "verdicts")
    store_ratio = store_cold_s / store_warm_s if store_warm_s else float("inf")
    print(
        f"smoke: verdict store, exhaustive sweep x{task_count}: warm hits"
        f" {store_ratio:.1f}x the cold pass (parity verified)"
    )
    if store_ratio < STORE_WARM_SPEEDUP_FLOOR:
        print(
            f"FAIL: warm verdict-store hits fell below the"
            f" {STORE_WARM_SPEEDUP_FLOOR:.0f}x floor on the exhaustive sweep"
            f" ({store_ratio:.1f}x)",
            file=sys.stderr,
        )
        return 1

    if not baseline_path.exists():
        print(f"smoke: no baseline at {baseline_path}; run `make bench` to record one")
        return 0
    baseline = json.loads(baseline_path.read_text())
    guard = baseline.get("smoke_guard", {})
    recorded_ratio = guard.get("kernel_vs_seed")
    if not recorded_ratio:
        print("smoke: baseline has no kernel_vs_seed entry; run `make bench` to refresh it")
        return 0
    factor = guard.get("max_regression_factor", SMOKE_REGRESSION_FACTOR)
    floor = recorded_ratio / factor
    print(f"smoke: baseline ratio {recorded_ratio:.1f}x, regression floor {floor:.1f}x")
    if current_ratio < floor:
        print(
            f"FAIL: 3x3 FSYNC check regressed more than {factor:.0f}x against the"
            f" recorded baseline ({current_ratio:.1f}x < {floor:.1f}x vs seed)",
            file=sys.stderr,
        )
        return 1
    print("OK: within the regression budget")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="quick regression guard only")
    parser.add_argument("--repetitions", type=int, default=None, help="explicit repetition count")
    parser.add_argument(
        "--output", type=Path, default=BENCH_PATH, help="where to write BENCH_engine.json"
    )
    args = parser.parse_args(argv)

    if args.smoke:
        repetitions = args.repetitions if args.repetitions is not None else 20
        return run_smoke(repetitions, args.output)
    repetitions = args.repetitions if args.repetitions is not None else 100
    return run_full(repetitions, args.output)


if __name__ == "__main__":
    raise SystemExit(main())
