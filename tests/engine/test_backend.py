"""Tests for the execution backends, their caches and their lifecycles."""

from __future__ import annotations

import multiprocessing
import time
from functools import partial

import pytest

from repro.algorithms import get
from repro.checking import check_terminating_exploration
from repro.analysis.scaling import state_space_sweep
from repro.engine import (
    AlgorithmTransitionSystem,
    CampaignTask,
    ExecutionBackend,
    ParallelCampaignEngine,
    PoolBackend,
    SerialBackend,
    VerdictStore,
    exhaustive_check_tasks,
    explore,
    explore_sharded,
    grid_sweep_tasks,
    run_task,
    verify_one,
)
from repro.core import Grid
from repro.core.errors import GridError, StateSpaceLimitExceeded
from repro.engine.store import HIT, MISS, iter_records
from repro.verification import exhaustive_sweep, grid_sweep, verify_algorithm


def _serial_exploration(algorithm, grid, model, **kwargs):
    return explore(AlgorithmTransitionSystem(algorithm, grid, model), **kwargs)


def _refuse_tasks(tasks):
    raise AssertionError("a task list was shipped to the backend")


def _disk_records(path) -> int:
    return sum(1 for seg in path.glob("seg-*.log") for _ in iter_records(seg.read_bytes()))


#: Every backend configuration: the serial reference, a two-worker
#: ``PoolBackend`` before and after its workers spawned, and a one-worker
#: ``PoolBackend``, which runs tasks in this process on its own cache.
BACKENDS = ["serial", "pool", "started-pool", "inline-pool"]


def make_backend(kind):
    """A fresh backend of ``kind``."""
    if kind == "serial":
        return SerialBackend()
    backend = PoolBackend(workers=1 if kind == "inline-pool" else 2)
    if kind == "started-pool":
        backend.run_tasks(grid_sweep_tasks(get("fsync_phi1_l2_chir_k3"), sizes=[(3, 3), (3, 4)]))
        assert backend.started
    return backend


@pytest.fixture(params=BACKENDS)
def backend(request):
    """Each backend configuration, freshly constructed."""
    with make_backend(request.param) as made:
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

    def test_imap_streams_reports_in_task_order(self, backend, algorithm1):
        tasks = exhaustive_check_tasks(algorithm1, sizes=[(2, 3), (3, 3), (3, 4)])
        stream = backend.imap(tasks)
        assert next(stream) == run_task(tasks[0])
        assert list(stream) == [run_task(task) for task in tasks[1:]]

    def test_empty_task_list(self, backend):
        assert backend.run_tasks([]) == []

    def test_check_tasks_match_serial_engine(self, backend, algorithm1):
        tasks = exhaustive_check_tasks(algorithm1, sizes=[(2, 3), (3, 3)], reduction="grid")
        serial = ParallelCampaignEngine().run_tasks(tasks)
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
        backend = make_backend(kind)
        backend.close()
        backend.close()  # idempotent
        assert not backend.started
        with pytest.raises(RuntimeError, match="closed"):
            backend.run_tasks(grid_sweep_tasks(algorithm1, sizes=[(3, 3)]))
        with pytest.raises(RuntimeError, match="closed"):
            with backend:
                pass

    def test_a_raising_task_fails_the_call(self, backend, algorithm1):
        # No placeholder report stands in for a task that raised: the error
        # reaches the caller, directly and through the campaign engine.
        good = grid_sweep_tasks(algorithm1, sizes=[(3, 3)])
        tasks = good + [CampaignTask(algorithm1, 0, 3)]  # Grid(0, 3) raises
        with pytest.raises(GridError, match="0x3"):
            backend.run_tasks(tasks)
        with pytest.raises(GridError, match="0x3"):
            ParallelCampaignEngine(backend=backend).run_tasks(tasks)
        # ... and the backend stays usable afterwards.
        assert backend.run_tasks(good) == [run_task(task) for task in good]


# ---------------------------------------------------------------------------
# Each backend owns the cache in-process work matches on
# ---------------------------------------------------------------------------
class TestBackendCaches:
    def test_serial_backend_owns_one_cache_for_its_lifetime(self, algorithm1):
        backend = SerialBackend()
        cache = backend.cache
        first = check_terminating_exploration(algorithm1, Grid(3, 3), model="FSYNC", backend=backend)
        (report,) = backend.run_tasks(grid_sweep_tasks(algorithm1, sizes=[(3, 3)]))
        second = check_terminating_exploration(algorithm1, Grid(3, 3), model="FSYNC", backend=backend)
        assert backend.cache is cache
        assert first.matcher_stats["misses"] > 0
        assert report.cache_hits > 0  # the task started warm on the same cache
        assert second.matcher_stats["misses"] == 0
        assert SerialBackend().cache is not cache  # never shared between backends

    def test_no_backend_means_a_fresh_cache_per_call(self, algorithm1):
        first = check_terminating_exploration(algorithm1, Grid(3, 3), model="FSYNC")
        second = check_terminating_exploration(algorithm1, Grid(3, 3), model="FSYNC")
        assert first.matcher_stats == second.matcher_stats
        assert second.matcher_stats["misses"] > 0
        reports = [grid_sweep(algorithm1, sizes=[(3, 3)]).reports[0] for _ in range(2)]
        assert reports[0].cache_misses == reports[1].cache_misses > 0

    def test_inline_pool_runs_tasks_on_its_coordinator_cache(self, algorithm1):
        with PoolBackend(workers=1) as backend:
            first = grid_sweep(algorithm1, sizes=[(3, 3), (4, 4)], backend=backend)
            assert not backend.started  # one worker: everything ran here
            assert backend.cache.stats_for(algorithm1).lookups > 0
            second = grid_sweep(algorithm1, sizes=[(3, 3), (4, 4)], backend=backend)
        assert second.reports == first.reports
        assert all(report.cache_misses == 0 for report in second.reports)

    def test_pooled_tasks_leave_the_coordinator_cache_alone(self, algorithm1):
        tasks = grid_sweep_tasks(algorithm1, sizes=[(3, 3), (3, 4), (4, 4)])
        with PoolBackend(workers=2) as backend:
            assert backend.run_tasks(tasks) == [run_task(task) for task in tasks]
            assert backend.started
            assert backend.cache.stats.lookups == 0  # every task ran in a worker


# ---------------------------------------------------------------------------
# Explorations handed a backend run in this process
# ---------------------------------------------------------------------------
class TestBackendExploration:
    @pytest.mark.parametrize("reduction", [None, "grid"])
    def test_explore_sharded_backend_matches_serial(self, backend, algorithm1, reduction):
        grid = Grid(4, 4)
        expected = _serial_exploration(algorithm1, grid, "FSYNC", reduction=reduction)
        actual = explore_sharded(algorithm1, grid, "FSYNC", reduction=reduction, backend=backend)
        assert actual == expected

    def test_checking_entry_points_accept_backend(self, backend, algorithm1):
        grid = Grid(3, 3)
        check = check_terminating_exploration(algorithm1, grid, model="FSYNC", backend=backend)
        assert check == check_terminating_exploration(algorithm1, grid, model="FSYNC")
        exploration = explore_sharded(algorithm1, grid, "FSYNC", backend=backend)
        serial = explore_sharded(algorithm1, grid, "FSYNC")
        assert exploration.num_states == serial.num_states
        assert exploration == serial
        assert backend.cache.stats_for(algorithm1).lookups > 0

    @pytest.mark.parametrize("reduction", ["none", "grid"])
    def test_explorations_compare_equal_however_warm_the_matcher(self, algorithm1, reduction):
        backend = SerialBackend()
        cold = explore_sharded(algorithm1, Grid(4, 4), "SSYNC", reduction=reduction, backend=backend)
        warm = explore_sharded(algorithm1, Grid(4, 4), "SSYNC", reduction=reduction, backend=backend)
        assert cold.matcher_stats != warm.matcher_stats
        assert warm.matcher_stats["misses"] == 0
        assert warm == cold

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
        monkeypatch.setattr(backend, "imap", _refuse_tasks)
        monkeypatch.setattr(backend, "run_tasks", _refuse_tasks)
        grid = Grid(3, 4)
        assert explore_sharded(algorithm1, grid, "SSYNC", backend=backend) == (
            _serial_exploration(algorithm1, grid, "SSYNC")
        )
        assert check_terminating_exploration(algorithm1, grid, model="SSYNC", backend=backend) == (
            check_terminating_exploration(algorithm1, grid, model="SSYNC")
        )

    @pytest.mark.parametrize(
        "entry",
        [
            partial(check_terminating_exploration, model="FSYNC"),
            partial(explore_sharded, model="FSYNC"),
        ],
        ids=["check", "sharded"],
    )
    def test_explorations_spawn_no_workers(self, entry, algorithm1):
        with PoolBackend(workers=2) as backend:
            entry(algorithm1, Grid(3, 3), backend=backend)
            assert not backend.started
            assert backend.cache.stats_for(algorithm1).lookups > 0

    def test_store_serves_checks_handed_a_backend(self, backend, algorithm1):
        store = VerdictStore()
        grid = Grid(4, 4)
        check = partial(
            check_terminating_exploration, algorithm1, grid, model="FSYNC", reduction="grid",
            backend=backend,
        )
        recorded = check(store=store)
        cached = check(store=store)
        assert recorded.store_stats["outcome"] == MISS
        assert cached.store_stats["outcome"] == HIT
        expected = check_terminating_exploration(algorithm1, grid, model="FSYNC", reduction="grid")
        assert recorded == cached == expected
        assert recorded.reduction_stats == cached.reduction_stats == expected.reduction_stats
        assert len(store) == 1


# ---------------------------------------------------------------------------
# Campaign / verification / analysis layers
# ---------------------------------------------------------------------------
class TestBackendCampaigns:
    def test_engine_runs_task_lists_on_the_backend(self, backend, algorithm1, monkeypatch):
        engine = ParallelCampaignEngine(backend=backend)
        tasks = grid_sweep_tasks(algorithm1, sizes=[(3, 3), (4, 4)])
        shipped = []
        imap = backend.imap

        def spy(batch):
            batch = list(batch)
            shipped.append(batch)
            return imap(batch)

        monkeypatch.setattr(backend, "imap", spy)
        assert engine.run_tasks(tasks) == [run_task(task) for task in tasks]
        assert shipped == [tasks]

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
        baseline = state_space_sweep(algorithm1, sizes=sizes, reduction="grid")
        routed = state_space_sweep(algorithm1, sizes=sizes, reduction="grid", backend=backend)
        assert [(p.m, p.n, p.states, p.reduction) for p in routed] == (
            [(p.m, p.n, p.states, p.reduction) for p in baseline]
        )

    def test_streamed_campaign_stores_every_report(self, backend, algorithm1, tmp_path, monkeypatch):
        tasks = exhaustive_check_tasks(algorithm1, sizes=[(2, 3), (3, 3), (3, 4)], reduction="grid")
        expected = [run_task(task) for task in tasks]
        with VerdictStore(tmp_path / "store") as store:
            engine = ParallelCampaignEngine(backend=backend, store=store)
            assert engine.run_tasks(tasks) == expected
        assert _disk_records(tmp_path / "store") == len(tasks)
        # A rerun against the same store serves every report from it.
        monkeypatch.setattr(backend, "imap", _refuse_tasks)
        with VerdictStore(tmp_path / "store") as store:
            engine = ParallelCampaignEngine(backend=backend, store=store)
            assert engine.run_tasks(tasks) == expected

    def test_store_hits_never_reach_the_backend(self, backend, algorithm1, monkeypatch):
        store = VerdictStore()
        tasks = exhaustive_check_tasks(algorithm1, sizes=[(3, 3), (3, 4)])
        engine = ParallelCampaignEngine(backend=backend, store=store)
        recorded = engine.run_tasks(tasks)
        monkeypatch.setattr(backend, "imap", _refuse_tasks)
        cached = engine.run_tasks(tasks)
        assert [report.store_stats["outcome"] for report in recorded] == [MISS] * len(tasks)
        assert [report.store_stats["outcome"] for report in cached] == [HIT] * len(tasks)
        assert cached == recorded == [run_task(task) for task in tasks]
        assert store.misses == len(tasks)

    def test_each_task_runs_the_algorithm_it_names(self, backend, tmp_path):
        # A task carrying B runs B, and B's report lands under B's task
        # key, so B's own later lookup is a hit on B's verdict, never on
        # another algorithm's.
        b = get("fsync_phi1_l3_nochir_k4")
        with VerdictStore(tmp_path / "store") as store:
            engine = ParallelCampaignEngine(backend=backend, store=store)
            (report,) = engine.run_tasks(grid_sweep_tasks(b, sizes=[(4, 5)]))
            assert (report.algorithm, report.steps) == (b.name, 14)
            (served,) = engine.run_tasks([CampaignTask(b, 4, 5)])
        assert served.store_stats["outcome"] == HIT
        assert (served.algorithm, served.steps) == (b.name, 14)
        assert served == verify_one(b, 4, 5)

    def test_an_adhoc_algorithm_runs_where_the_backend_runs_tasks(self, backend):
        from tests.engine.test_pool import _adhoc_algorithm

        adhoc = _adhoc_algorithm("adhoc_backend_test")
        registered = get("fsync_phi2_l2_chir_k2")
        tasks = grid_sweep_tasks(adhoc, sizes=[(1, 3), (2, 4)]) + grid_sweep_tasks(
            registered, sizes=[(3, 3)]
        )
        # An ad-hoc rule table travels by value like a registered one: one
        # task list mixes both, and every report equals the serial one.
        assert ParallelCampaignEngine(backend=backend).run_tasks(tasks) == [
            run_task(task) for task in tasks
        ]
        if backend.parallelism > 1:
            assert backend.started  # the ad-hoc tasks ran on the workers
            assert backend.cache.stats_for(adhoc).lookups == 0
        else:
            assert backend.cache.stats_for(adhoc).lookups > 0


# ---------------------------------------------------------------------------
# PoolBackend specifics
# ---------------------------------------------------------------------------
class TestPoolBackend:
    def test_pool_is_closed_with_the_backend(self, algorithm1):
        backend = PoolBackend(workers=2)
        backend.run_tasks(grid_sweep_tasks(algorithm1, sizes=[(3, 3), (3, 4)]))
        assert backend.started
        backend.close()
        assert not backend.started
        with pytest.raises(RuntimeError, match="closed"):
            backend.imap([])

    def test_empty_task_list_spawns_no_workers(self):
        with PoolBackend(workers=2) as backend:
            assert backend.run_tasks([]) == []
            assert not backend.started

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_is_refused(self, workers):
        with pytest.raises(ValueError, match="at least 1 worker"):
            PoolBackend(workers=workers)


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
    def test_pool_spawn_failure_leaks_nothing(self, monkeypatch, algorithm1):
        failing = _FailingPoolContext(multiprocessing.get_context())
        monkeypatch.setattr(multiprocessing, "get_context", lambda *a, **k: failing)
        backend = PoolBackend(workers=2)
        with pytest.raises(RuntimeError, match="simulated worker spawn failure"):
            backend.run_tasks(grid_sweep_tasks(algorithm1, sizes=[(3, 3), (3, 4)]))
        # The stranded child was reaped before the error propagated ...
        assert [p for p in failing.stranded if p.is_alive()] == []
        assert not backend.started
        # ... and the backend closes cleanly (idempotently) afterwards.
        backend.close()
        backend.close()

    def test_pool_exit_does_not_mask_spawn_failure(self, monkeypatch, algorithm1):
        failing = _FailingPoolContext(multiprocessing.get_context())
        monkeypatch.setattr(multiprocessing, "get_context", lambda *a, **k: failing)
        with pytest.raises(RuntimeError, match="simulated worker spawn failure"):
            with PoolBackend(workers=2) as backend:
                backend.run_tasks(grid_sweep_tasks(algorithm1, sizes=[(3, 3), (3, 4)]))
        assert [p for p in failing.stranded if p.is_alive()] == []
