"""Tests for the pluggable execution backends and their lifecycles."""

from __future__ import annotations

import multiprocessing
import time
from functools import partial

import pytest

from repro.algorithms import get
from repro.checking import check_terminating_exploration, enumerate_reachable, explore_state_space
from repro.analysis.scaling import round_complexity_sweep, state_space_sweep
from repro.engine import (
    AlgorithmTransitionSystem,
    CampaignJournal,
    CampaignTask,
    ExecutionBackend,
    ExplorationPool,
    ParallelCampaignEngine,
    PoolBackend,
    SerialBackend,
    VerdictStore,
    backend_cache,
    exhaustive_check_tasks,
    explore,
    explore_sharded,
    grid_sweep_tasks,
    run_task,
)
from repro.core import Grid
from repro.core.errors import StateSpaceLimitExceeded
from repro.engine.store import HIT, MISS
from repro.verification import exhaustive_sweep, grid_sweep, verify_algorithm


def _serial_exploration(algorithm, grid, model, **kwargs):
    return explore(AlgorithmTransitionSystem(algorithm, grid, model), **kwargs)


def _assert_same_exploration(actual, expected):
    assert actual.num_states == expected.num_states
    assert actual.states == expected.states
    assert actual.succ == expected.succ
    assert actual.index == expected.index
    assert actual.reduced == expected.reduced
    assert actual.edge_syms == expected.edge_syms


def _refuse_tasks(tasks):
    raise AssertionError("a task list was shipped to the backend")


#: Every backend configuration: the serial reference, a two-worker
#: ``PoolBackend`` owning its pool, one wrapping a pool its caller owns,
#: and a one-worker ``PoolBackend``, whose pool runs tasks in this process.
BACKENDS = ["serial", "pool", "shared-pool", "inline-pool"]


def make_backend(kind, shared_pool):
    """A fresh backend of ``kind``; ``shared-pool`` wraps ``shared_pool``."""
    if kind == "serial":
        return SerialBackend()
    if kind == "shared-pool":
        return PoolBackend(shared_pool)
    return PoolBackend(workers=2 if kind == "pool" else 1)


@pytest.fixture(params=BACKENDS)
def backend(request):
    """Each backend configuration, freshly constructed."""
    # The shared pool spawns nothing unless its backend ships work.
    with ExplorationPool(workers=2) as shared_pool:
        with make_backend(request.param, shared_pool) as made:
            yield made


# ---------------------------------------------------------------------------
# The backend contract
# ---------------------------------------------------------------------------
class TestBackendContract:
    def test_implementations_satisfy_the_protocol(self, backend):
        assert isinstance(backend, ExecutionBackend)
        assert backend.parallelism >= 1

    def test_run_tasks_returns_reports_in_task_order(self, backend, algorithm1):
        tasks = grid_sweep_tasks(algorithm1, sizes=[(3, 3), (3, 4), (4, 3)])
        reports = backend.run_tasks(tasks)
        assert [(r.m, r.n) for r in reports] == [(t.m, t.n) for t in tasks]
        assert reports == [run_task(task) for task in tasks]

    def test_empty_task_list(self, backend):
        assert backend.run_tasks([]) == []

    def test_check_tasks_match_serial_engine(self, backend, algorithm1):
        tasks = exhaustive_check_tasks(algorithm1, sizes=[(2, 3), (3, 3)], reduction="grid")
        serial = ParallelCampaignEngine(workers=1).run_tasks(algorithm1, tasks)
        assert backend.run_tasks(tasks) == serial

    def test_closed_backend_refuses_work(self, algorithm1):
        backend = SerialBackend()
        backend.close()
        backend.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            backend.run_tasks(grid_sweep_tasks(algorithm1, sizes=[(3, 3)]))
        with pytest.raises(RuntimeError, match="closed"):
            with backend:
                pass

    @pytest.mark.parametrize("kind", BACKENDS[1:])
    def test_closed_pool_backend_refuses_work(self, kind, algorithm1):
        with ExplorationPool(workers=2) as shared_pool:
            backend = make_backend(kind, shared_pool)
            backend.close()
            backend.close()  # idempotent
            with pytest.raises(RuntimeError, match="closed"):
                backend.run_tasks(grid_sweep_tasks(algorithm1, sizes=[(3, 3)]))
            with pytest.raises(RuntimeError, match="closed"):
                with backend:
                    pass

    def test_a_raising_task_fails_the_call(self, backend, algorithm1):
        # No placeholder report stands in for a task that raised: the error
        # reaches the caller, directly and through the campaign engine.
        good = grid_sweep_tasks(algorithm1, sizes=[(3, 3)])
        tasks = good + [CampaignTask("no_such_algorithm", 3, 3)]
        with pytest.raises(KeyError, match="no_such_algorithm"):
            backend.run_tasks(tasks)
        with pytest.raises(KeyError, match="no_such_algorithm"):
            ParallelCampaignEngine(backend=backend).run_tasks(algorithm1, tasks)
        # ... and the backend stays usable afterwards.
        assert backend.run_tasks(good) == [run_task(task) for task in good]


# ---------------------------------------------------------------------------
# Explorations handed a backend run in this process
# ---------------------------------------------------------------------------
class TestBackendExploration:
    @pytest.mark.parametrize("reduction", [None, "grid"])
    def test_explore_sharded_backend_matches_serial(self, backend, algorithm1, reduction):
        grid = Grid(4, 4)
        expected = _serial_exploration(algorithm1, grid, "FSYNC", reduction=reduction)
        actual = explore_sharded(algorithm1, grid, "FSYNC", reduction=reduction, backend=backend)
        _assert_same_exploration(actual, expected)

    def test_checking_entry_points_accept_backend(self, backend, algorithm1):
        grid = Grid(3, 3)
        check = check_terminating_exploration(algorithm1, grid, model="FSYNC", backend=backend)
        assert check == check_terminating_exploration(algorithm1, grid, model="FSYNC")
        assert enumerate_reachable(algorithm1, grid, model="FSYNC", backend=backend) == (
            enumerate_reachable(algorithm1, grid, model="FSYNC")
        )
        graph = explore_state_space(algorithm1, grid, model="FSYNC", backend=backend)
        assert graph == explore_state_space(algorithm1, grid, model="FSYNC")

    @pytest.mark.parametrize(
        "name,m,n,model",
        [
            ("fsync_phi2_l2_chir_k2", 4, 4, "FSYNC"),
            ("fsync_phi2_l2_chir_k2", 4, 4, "SSYNC"),
            ("async_phi2_l3_chir_k2", 3, 4, "ASYNC"),
        ],
    )
    def test_check_verdicts_match_serial_across_models(self, backend, name, m, n, model):
        algorithm, grid = get(name), Grid(m, n)
        expected = check_terminating_exploration(algorithm, grid, model=model, reduction="grid")
        actual = check_terminating_exploration(
            algorithm, grid, model=model, reduction="grid", backend=backend
        )
        assert actual == expected
        assert actual.counterexample == expected.counterexample
        assert actual.reduction_stats == expected.reduction_stats

    def test_budget_trip_context_identical(self, backend):
        algorithm = get("fsync_phi2_l2_nochir_k3")
        grid = Grid(8, 8)
        with pytest.raises(StateSpaceLimitExceeded) as serial_info:
            _serial_exploration(algorithm, grid, "SSYNC", max_states=100)
        with pytest.raises(StateSpaceLimitExceeded) as routed_info:
            explore_sharded(algorithm, grid, "SSYNC", max_states=100, backend=backend)
        serial, routed = serial_info.value, routed_info.value
        assert str(routed) == str(serial)
        assert (routed.states_explored, routed.frontier_size) == (
            serial.states_explored,
            serial.frontier_size,
        )

    def test_backend_never_receives_an_exploration(self, backend, algorithm1, monkeypatch):
        def refuse(tasks):
            raise AssertionError("an exploration was shipped to the backend")

        monkeypatch.setattr(backend, "run_tasks", refuse)
        grid = Grid(3, 4)
        _assert_same_exploration(
            explore_sharded(algorithm1, grid, "SSYNC", backend=backend),
            _serial_exploration(algorithm1, grid, "SSYNC"),
        )
        assert check_terminating_exploration(algorithm1, grid, model="SSYNC", backend=backend) == (
            check_terminating_exploration(algorithm1, grid, model="SSYNC")
        )

    @pytest.mark.parametrize(
        "entry",
        [
            partial(check_terminating_exploration, model="FSYNC"),
            partial(enumerate_reachable, model="FSYNC"),
            partial(explore_state_space, model="FSYNC"),
            partial(explore_sharded, model="FSYNC"),
        ],
        ids=["check", "enumerate", "state_space", "sharded"],
    )
    def test_explorations_spawn_no_workers(self, entry, algorithm1):
        with PoolBackend(workers=2) as backend:
            entry(algorithm1, Grid(3, 3), backend=backend)
            assert not backend.pool.started

    def test_store_serves_explorations_handed_a_backend(self, backend, algorithm1):
        store = VerdictStore()
        grid = Grid(4, 4)
        explore = partial(explore_sharded, algorithm1, grid, "FSYNC", reduction="grid", backend=backend)
        recorded = explore(store=store)
        cached = explore(store=store)
        assert recorded.store_stats["outcome"] == MISS
        assert cached.store_stats["outcome"] == HIT
        expected = _serial_exploration(algorithm1, grid, "FSYNC", reduction="grid")
        _assert_same_exploration(recorded, expected)
        _assert_same_exploration(cached, expected)


# ---------------------------------------------------------------------------
# Campaign / verification / analysis layers
# ---------------------------------------------------------------------------
class TestBackendCampaigns:
    def test_engine_backend_supersedes_pool(self, backend, algorithm1):
        engine = ParallelCampaignEngine(backend=backend)
        tasks = grid_sweep_tasks(algorithm1, sizes=[(3, 3), (4, 4)])
        assert engine.run_tasks(algorithm1, tasks) == [run_task(task) for task in tasks]
        assert engine.workers == backend.parallelism

    def test_verification_campaigns_parity(self, backend, algorithm1):
        sizes = [(3, 3), (3, 4)]
        assert grid_sweep(algorithm1, sizes=sizes, backend=backend).reports == (
            grid_sweep(algorithm1, sizes=sizes).reports
        )
        assert exhaustive_sweep(algorithm1, sizes=sizes, backend=backend).reports == (
            exhaustive_sweep(algorithm1, sizes=sizes).reports
        )
        assert verify_algorithm(algorithm1, sizes=sizes, backend=backend).reports == (
            verify_algorithm(algorithm1, sizes=sizes).reports
        )

    def test_scaling_sweeps_parity(self, backend, algorithm1):
        sizes = [(3, 3), (3, 4), (4, 4)]
        assert round_complexity_sweep(algorithm1, sizes=sizes, backend=backend) == (
            round_complexity_sweep(algorithm1, sizes=sizes)
        )
        baseline = state_space_sweep(algorithm1, sizes=sizes, reduction="grid")
        routed = state_space_sweep(algorithm1, sizes=sizes, reduction="grid", backend=backend)
        assert [(p.m, p.n, p.states, p.reduction) for p in routed] == (
            [(p.m, p.n, p.states, p.reduction) for p in baseline]
        )

    def test_engine_reads_parallelism_once(self):
        backend = SerialBackend()
        engine = ParallelCampaignEngine(backend=backend)
        backend.parallelism = 4
        # Journal waves are sized at construction and stay that size.
        assert engine.workers == 1

    def test_journalled_campaign_commits_every_report(self, backend, algorithm1, tmp_path, monkeypatch):
        path = tmp_path / "sweep.journal"
        tasks = exhaustive_check_tasks(algorithm1, sizes=[(2, 3), (3, 3), (3, 4)], reduction="grid")
        expected = [run_task(task) for task in tasks]
        # chunksize=1: waves of ``parallelism`` tasks, so a multi-worker
        # backend commits over more than one wave.
        engine = ParallelCampaignEngine(backend=backend, chunksize=1)
        assert engine.run_tasks(algorithm1, tasks, journal=path) == expected
        with CampaignJournal(path) as journal:
            assert len(journal) == len(tasks)
        # A rerun on the same journal replays every verdict.
        monkeypatch.setattr(backend, "run_tasks", _refuse_tasks)
        assert engine.run_tasks(algorithm1, tasks, journal=path) == expected

    def test_store_hits_never_reach_the_backend(self, backend, algorithm1, monkeypatch):
        store = VerdictStore()
        tasks = exhaustive_check_tasks(algorithm1, sizes=[(3, 3), (3, 4)])
        engine = ParallelCampaignEngine(backend=backend, store=store)
        recorded = engine.run_tasks(algorithm1, tasks)
        monkeypatch.setattr(backend, "run_tasks", _refuse_tasks)
        cached = engine.run_tasks(algorithm1, tasks)
        assert [report.store_stats["outcome"] for report in recorded] == [MISS] * len(tasks)
        assert [report.store_stats["outcome"] for report in cached] == [HIT] * len(tasks)
        assert cached == recorded == [run_task(task) for task in tasks]
        assert store.misses == len(tasks)

    def test_unregistered_algorithm_falls_back_in_process(self, backend):
        from tests.engine.test_pool import _adhoc_algorithm

        adhoc = _adhoc_algorithm("adhoc_backend_test")
        engine = ParallelCampaignEngine(backend=backend)
        tasks = grid_sweep_tasks(adhoc, sizes=[(1, 3)])
        # An unregistered rule set cannot cross a process boundary; the
        # engine must fall back to in-process execution with the same
        # reports the serial path produces.
        assert engine.run_tasks(adhoc, tasks) == ParallelCampaignEngine(workers=1).run_tasks(
            adhoc, tasks
        )


# ---------------------------------------------------------------------------
# PoolBackend specifics
# ---------------------------------------------------------------------------
class TestPoolBackend:
    def test_shared_pool_is_not_closed_with_the_backend(self, algorithm1):
        with ExplorationPool(workers=2) as pool:
            with PoolBackend(pool) as backend:
                assert backend.parallelism == 2
                assert backend_cache(backend) is pool.cache
            # The backend wrapped a shared pool: closing it must leave the
            # pool usable for other consumers.
            tasks = grid_sweep_tasks(algorithm1, sizes=[(3, 3), (3, 4)])
            assert pool.map(run_task, tasks) == [run_task(task) for task in tasks]

    def test_owned_pool_is_closed_with_the_backend(self):
        backend = PoolBackend(workers=2)
        pool = backend.pool
        backend.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.map(abs, [-1, -2])

    def test_empty_task_list_spawns_no_workers(self):
        with PoolBackend(workers=2) as backend:
            assert backend.run_tasks([]) == []
            assert not backend.pool.started

    def test_pool_and_workers_are_mutually_exclusive(self):
        with ExplorationPool(workers=2) as pool:
            with pytest.raises(ValueError):
                PoolBackend(pool, workers=4)

    def test_serial_backend_cache_is_the_process_cache(self):
        from repro.engine import process_cache

        # The serial backend's "worker" is this process, so fallbacks
        # share the same cache its registered workloads warm.
        assert backend_cache(SerialBackend()) is process_cache()

    def test_other_backends_have_no_in_process_cache(self):
        class RemoteLike:  # duck-typed: no pool attribute, not serial
            parallelism = 2

        assert backend_cache(RemoteLike()) is None


# ---------------------------------------------------------------------------
# Lifecycle hardening: partial spawn failure must not leak workers
# ---------------------------------------------------------------------------
class _FailingPoolContext:
    """A multiprocessing context whose Pool strands a child then fails."""

    def __init__(self, real_context):
        self._real = real_context
        self.stranded = []

    def Pool(self, processes=None):
        # Simulate the constructor getting partway: one worker process is
        # alive when the spawn of the next one blows up.  Real stranded
        # workers carry multiprocessing's pool-worker naming, which the
        # cleanup keys on to avoid reaping unrelated processes.
        process = self._real.Process(
            target=time.sleep, args=(60,), daemon=True, name="ForkPoolWorker-simulated"
        )
        process.start()
        self.stranded.append(process)
        raise RuntimeError("simulated worker spawn failure")


class TestSpawnFailureSafety:
    def test_pool_spawn_failure_leaks_nothing(self, monkeypatch):
        failing = _FailingPoolContext(multiprocessing.get_context())
        monkeypatch.setattr(multiprocessing, "get_context", lambda *a, **k: failing)
        pool = ExplorationPool(workers=2)
        with pytest.raises(RuntimeError, match="simulated worker spawn failure"):
            pool.map(abs, [-1, -2])
        # The stranded child was reaped before the error propagated ...
        assert [p for p in failing.stranded if p.is_alive()] == []
        assert not pool.started
        # ... and the pool closes cleanly (idempotently) afterwards.
        pool.close()
        pool.close()

    def test_pool_exit_does_not_mask_spawn_failure(self, monkeypatch):
        failing = _FailingPoolContext(multiprocessing.get_context())
        monkeypatch.setattr(multiprocessing, "get_context", lambda *a, **k: failing)
        with pytest.raises(RuntimeError, match="simulated worker spawn failure"):
            with ExplorationPool(workers=2) as pool:
                pool.map(abs, [-1, -2])
        assert [p for p in failing.stranded if p.is_alive()] == []
