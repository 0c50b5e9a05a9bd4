"""Tests for the backends' caches, the matcher caches and the cache plumbing."""

from __future__ import annotations

import dataclasses
import os
import pickle

import pytest

from repro.algorithms import get
from repro.checking import check_terminating_exploration
from repro.core import Algorithm, G, Grid, Synchrony, W, occ
from repro.core.errors import StateSpaceLimitExceeded
from repro.core.rules import Guard, Rule
from repro.engine import (
    AlgorithmTransitionSystem,
    MatcherCache,
    PoolBackend,
    SerialBackend,
    default_workers,
    explore,
    explore_sharded,
    verify_one,
)
from repro.verification import grid_sweep


def _serial(algorithm, grid, model, **kwargs):
    return explore(AlgorithmTransitionSystem(algorithm, grid, model), **kwargs)


def _adhoc_algorithm(name="adhoc_pool_test"):
    rules = (
        Rule("R1", G, Guard.build(1, E=occ(W)), G, "E"),
        Rule("R2", W, Guard.build(1, W=occ(G)), W, None),
    )
    return Algorithm(
        name=name,
        synchrony=Synchrony.FSYNC,
        phi=1,
        colors=(G, W),
        chirality=True,
        k=2,
        rules=rules,
        initial_placement=(((0, 0), G), ((0, 1), W)),
        min_m=1,
        min_n=3,
    )


# ---------------------------------------------------------------------------
# Explorations handed a pool backend run in-process on its cache
# ---------------------------------------------------------------------------
class TestPooledParity:
    """Explorations handed a pool backend are byte-identical to serial ones."""

    def test_explorations_run_in_process_on_the_pool_cache(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        grid = Grid(4, 4)
        serial = _serial(algorithm, grid, "SSYNC")
        with PoolBackend(workers=2) as backend:
            pooled = explore_sharded(algorithm, grid, "SSYNC", backend=backend)
            assert not backend.started  # no worker processes were ever spawned
            assert backend.cache.stats_for(algorithm).lookups > 0
        assert pooled == serial

    def test_budget_trip_context_identical_through_the_pool(self):
        algorithm = get("fsync_phi2_l2_nochir_k3")
        grid = Grid(8, 8)
        with pytest.raises(StateSpaceLimitExceeded) as serial_info:
            _serial(algorithm, grid, "SSYNC", max_states=100)
        with PoolBackend(workers=2) as backend:
            with pytest.raises(StateSpaceLimitExceeded) as pooled_info:
                explore_sharded(algorithm, grid, "SSYNC", max_states=100, backend=backend)
            assert not backend.started
        serial, pooled = serial_info.value, pooled_info.value
        assert str(pooled) == str(serial)
        assert pooled.algorithm == serial.algorithm
        assert pooled.model == serial.model
        assert pooled.max_states == serial.max_states
        assert pooled.states_explored == serial.states_explored
        assert pooled.frontier_size == serial.frontier_size

    def test_checking_entry_points_accept_a_pool_backend(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        grid = Grid(4, 4)
        serial = explore_sharded(algorithm, grid, "SSYNC")
        serial_check = check_terminating_exploration(algorithm, grid, model="SSYNC")
        with PoolBackend(workers=2) as backend:
            pooled = explore_sharded(algorithm, grid, "SSYNC", backend=backend)
            assert pooled == serial
            assert pooled.num_states == serial.num_states
            pooled_check = check_terminating_exploration(algorithm, grid, model="SSYNC", backend=backend)
        assert pooled_check == serial_check  # CheckResult equality ignores matcher_stats
        assert pooled_check.matcher_stats is not None

    def test_unregistered_algorithm_runs_on_the_pool_cache(self):
        adhoc = _adhoc_algorithm()
        grid = Grid(1, 3)
        serial = _serial(adhoc, grid, "FSYNC", max_states=500)
        with PoolBackend(workers=4) as backend:
            pooled = explore_sharded(adhoc, grid, "FSYNC", max_states=500, backend=backend)
            assert not backend.started  # explorations never fan out
            assert backend.cache.stats_for(adhoc).lookups > 0  # ran on the pool's cache
        assert pooled == serial

    def test_closed_pool_backend_refuses_work(self):
        backend = PoolBackend(workers=2)
        backend.close()
        with pytest.raises(RuntimeError):
            backend.run_tasks([])
        backend.close()  # idempotent


class TestPoolCachePersistence:
    """Acceptance: the pool backend's cache survives across explorations."""

    def test_cross_exploration_reuse(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        grid = Grid(3, 3)
        with PoolBackend(workers=2) as backend:
            first = check_terminating_exploration(algorithm, grid, model="FSYNC", backend=backend)
            second = check_terminating_exploration(algorithm, grid, model="FSYNC", backend=backend)
        assert first.matcher_stats["misses"] > 0
        # The coordinator cache persists deterministically: the re-run pays
        # zero guard evaluations.
        assert second.matcher_stats["misses"] == 0
        assert second.matcher_stats["hit_rate"] == 1.0

    def test_cache_reuse_spans_grid_sizes_and_models(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        with PoolBackend(workers=2) as backend:
            check_terminating_exploration(algorithm, Grid(3, 3), model="FSYNC", backend=backend)
            check_terminating_exploration(algorithm, Grid(3, 4), model="FSYNC", backend=backend)
            third = check_terminating_exploration(algorithm, Grid(4, 4), model="SSYNC", backend=backend)
        # Patterns learned at other sizes (and under FSYNC) serve the new
        # size/model: the matcher keys are grid-size and model independent.
        assert third.matcher_stats["hits"] > 0


# ---------------------------------------------------------------------------
# Campaigns on the pool backend
# ---------------------------------------------------------------------------
class TestCampaignsOnThePool:
    def test_engine_on_pool_reports_identical_to_serial(self):
        algorithm = get("fsync_phi1_l2_chir_k3")
        serial = grid_sweep(algorithm)
        with PoolBackend(workers=2) as backend:
            pooled = grid_sweep(algorithm, backend=backend)
        assert pooled.reports == serial.reports
        assert [str(r) for r in pooled.reports] == [str(r) for r in serial.reports]

    def test_one_worker_pool_runs_campaigns_in_process(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        with PoolBackend(workers=1) as backend:
            report = grid_sweep(algorithm, sizes=[(3, 3), (4, 4)], backend=backend)
            assert not backend.started  # ran in-process, on the pool's cache
            assert backend.cache.stats_for(algorithm).lookups > 0
        assert report.ok

    def test_grid_sweep_accepts_a_pool_backend(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        sizes = [(3, 3), (3, 4), (4, 4)]
        serial = grid_sweep(algorithm, sizes=sizes)
        with PoolBackend(workers=2) as backend:
            pooled = grid_sweep(algorithm, sizes=sizes, backend=backend)
        assert pooled.reports == serial.reports

    def test_serial_campaigns_share_the_backend_cache(self):
        """A shared serial backend gives campaigns persistent cache reuse."""
        algorithm = get("fsync_phi2_l2_chir_k2")
        sizes = [(3, 3), (4, 4)]
        with SerialBackend() as backend:
            first = grid_sweep(algorithm, sizes=sizes, backend=backend)
            assert backend.cache.stats_for(algorithm).lookups > 0
            second = grid_sweep(algorithm, sizes=sizes, backend=backend)
        assert second.reports == first.reports
        # The second campaign replays entirely from the backend's cache.
        assert all(report.cache_misses == 0 for report in second.reports)
        assert sum(report.cache_hits for report in second.reports) > 0

    def test_pool_serves_campaigns_and_explorations_alike(self):
        """One pool backend, interleaved workloads: both run and stay consistent."""
        algorithm = get("fsync_phi2_l2_chir_k2")
        grid = Grid(4, 4)
        with PoolBackend(workers=2) as backend:
            exploration = explore_sharded(algorithm, grid, "FSYNC", backend=backend)
            report = grid_sweep(algorithm, sizes=[(3, 3), (4, 4)], backend=backend)
            again = explore_sharded(algorithm, grid, "FSYNC", backend=backend)
        assert report.ok
        assert again == exploration


# ---------------------------------------------------------------------------
# Satellite regressions
# ---------------------------------------------------------------------------
class TestExploreShardedCache:
    """explore_sharded must honour the backend's cache."""

    def test_unregistered_algorithm_runs_on_the_backend_cache(self):
        adhoc = _adhoc_algorithm("adhoc_fallback_cache")
        grid = Grid(1, 3)
        backend = SerialBackend()
        warm = explore_sharded(adhoc, grid, "FSYNC", max_states=500, backend=backend)
        # The unregistered algorithm ran on the backend's cache, not a cold
        # ad-hoc matcher.
        assert backend.cache.stats_for(adhoc).lookups > 0
        assert backend.cache.entry_count() > 0
        assert warm == _serial(adhoc, grid, "FSYNC", max_states=500)
        # ...and a second run over the same cache starts warm.
        rerun = explore_sharded(adhoc, grid, "FSYNC", max_states=500, backend=backend)
        assert rerun.matcher_stats["misses"] == 0
        assert rerun == warm

    def test_registered_algorithm_uses_the_backend_cache(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        grid = Grid(3, 3)
        backend = SerialBackend()
        explore_sharded(algorithm, grid, "FSYNC", backend=backend)
        warm = explore_sharded(algorithm, grid, "FSYNC", backend=backend)
        assert warm.matcher_stats["misses"] == 0
        assert warm == _serial(algorithm, grid, "FSYNC")

    @pytest.mark.parametrize(
        "name,m,n,model",
        [
            ("fsync_phi2_l2_chir_k2", 4, 4, "SSYNC"),
            ("async_phi2_l3_chir_k2", 3, 4, "ASYNC"),
        ],
    )
    @pytest.mark.parametrize("reduction", ["none", "grid"])
    def test_matches_the_serial_explorer(self, name, m, n, model, reduction):
        algorithm = get(name)
        grid = Grid(m, n)
        assert explore_sharded(algorithm, grid, model, reduction=reduction) == (
            _serial(algorithm, grid, model, reduction=reduction)
        )


class TestSeedNormalization:
    """A VerificationReport's seed must replay the run it describes."""

    @pytest.mark.parametrize("model", ["FSYNC", "SSYNC", "ASYNC"])
    def test_default_seed_is_recorded_and_replays(self, model):
        algorithm = get("async_phi2_l3_chir_k2" if model != "FSYNC" else "fsync_phi2_l2_chir_k2")
        tie_break = "error" if model == "FSYNC" else "first"
        report = verify_one(algorithm, 3, 4, model=model, seed=None, tie_break=tie_break)
        assert report.seed == 0  # the seed that actually drove the run
        replay = verify_one(algorithm, 3, 4, model=model, seed=report.seed, tie_break=tie_break)
        assert replay == report
        assert (replay.steps, replay.moves, replay.ok) == (report.steps, report.moves, report.ok)

    def test_explicit_seed_round_trips_through_the_report(self):
        algorithm = get("async_phi2_l3_chir_k2")
        report = verify_one(algorithm, 3, 4, model="SSYNC", seed=7, tie_break="first")
        assert report.seed == 7
        assert verify_one(algorithm, 3, 4, model="SSYNC", seed=report.seed, tie_break="first") == report

    def test_campaign_reports_replay_from_their_recorded_seed(self):
        algorithm = get("async_phi2_l3_chir_k2")
        sweep = grid_sweep(algorithm, sizes=[(3, 4)], model="SSYNC", seed=None, tie_break="first")
        for report in sweep.reports:
            assert report.seed is not None
            replay = verify_one(
                algorithm, report.m, report.n, model=report.model, seed=report.seed, tie_break="first"
            )
            assert replay == report


class TestStatsForIsLive:
    """MatcherCache.stats_for must hand back counters that keep counting."""

    def test_stats_requested_before_any_matcher_see_increments(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        cache = MatcherCache()
        stats = cache.stats_for(algorithm)  # no matcher exists yet
        assert stats.lookups == 0
        matcher = cache.matcher_for(algorithm, Grid(3, 3))
        assert matcher.stats is stats  # the same live object
        world = algorithm.initial_world(Grid(3, 3))
        matcher.matches(world.robots, world.robots[0].pos, world.robots[0].color)
        assert stats.lookups > 0  # increments were never lost

    def test_stats_for_is_stable_across_calls(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        cache = MatcherCache()
        assert cache.stats_for(algorithm) is cache.stats_for(algorithm)

    def test_distinct_algorithms_keep_distinct_counters(self):
        cache = MatcherCache()
        first = cache.stats_for(get("fsync_phi2_l2_chir_k2"))
        second = cache.stats_for(get("fsync_phi1_l2_chir_k3"))
        assert first is not second


class TestDefaultWorkers:
    def test_respects_scheduling_affinity_where_available(self):
        expected = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else (os.cpu_count() or 1)
        )
        assert default_workers() == expected
        assert default_workers() >= 1

    def test_backend_defaults_match(self):
        with PoolBackend() as backend:
            assert backend.parallelism == default_workers()
        assert SerialBackend().parallelism == 1


class TestMatcherCache:
    def test_cross_size_reuse_has_nonzero_hits(self):
        """Acceptance: a cache warmed at other sizes hits at a new size."""
        algorithm = get("fsync_phi2_l2_chir_k2")
        backend = SerialBackend()
        cache = backend.cache
        for size in [(3, 3), (3, 4), (3, 5)]:
            check_terminating_exploration(algorithm, Grid(*size), model="FSYNC", backend=backend)
        before = cache.stats.snapshot()
        result = check_terminating_exploration(algorithm, Grid(4, 4), model="FSYNC", backend=backend)
        delta = cache.stats.delta_since(before)
        assert delta.hits > 0
        assert result.matcher_stats is not None
        assert result.matcher_stats["hits"] == delta.hits

    def test_cache_does_not_change_verdicts(self):
        algorithm = get("async_phi2_l3_chir_k2")
        grid = Grid(3, 4)
        plain = check_terminating_exploration(algorithm, grid, model="ASYNC")
        backend = SerialBackend()
        cached = check_terminating_exploration(algorithm, grid, model="ASYNC", backend=backend)
        recheck = check_terminating_exploration(algorithm, grid, model="ASYNC", backend=backend)
        for result in (cached, recheck):
            assert result.ok == plain.ok
            assert result.states_explored == plain.states_explored
            assert result.terminal_states == plain.terminal_states
        # The second run over the same cache is (almost) all hits.
        assert recheck.matcher_stats["hit_rate"] > 0.9

    def test_tables_are_shared_per_algorithm_identity(self):
        first = get("fsync_phi2_l2_chir_k2")
        second = get("fsync_phi1_l2_chir_k3")
        cache = MatcherCache()
        matcher_a = cache.matcher_for(first, Grid(3, 3))
        matcher_b = cache.matcher_for(first, Grid(5, 5))
        matcher_c = cache.matcher_for(second, Grid(3, 3))
        assert matcher_a._matches is matcher_b._matches  # same algorithm: shared tables
        assert matcher_a._matches is not matcher_c._matches  # different algorithm: isolated
        assert matcher_a.stats is matcher_b.stats

    def test_tables_are_keyed_by_content_digest(self):
        first = get("fsync_phi2_l2_chir_k2")
        copy = pickle.loads(pickle.dumps(first))  # what a pool worker receives
        cache = MatcherCache()
        matcher = cache.matcher_for(first, Grid(3, 3))
        twin = cache.matcher_for(copy, Grid(4, 4))
        assert twin._matches is matcher._matches
        assert cache.stats_for(copy) is cache.stats_for(first)
        # Matching runs on the first copy seen, whose guards are compiled.
        assert twin.algorithm is first
        # The same name with another rule table never shares an entry.
        edited = dataclasses.replace(first, rules=first.rules[:1])
        other = cache.matcher_for(edited, Grid(3, 3))
        assert other._matches is not matcher._matches
        assert other.algorithm is edited

    def test_summary_surfaces_cache_stats(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        backend = SerialBackend()
        check_terminating_exploration(algorithm, Grid(3, 3), model="FSYNC", backend=backend)
        result = check_terminating_exploration(algorithm, Grid(3, 3), model="FSYNC", backend=backend)
        assert "match cache" in result.summary()


class TestSlotsAndBatching:
    def test_hot_state_classes_have_no_dict(self):
        from repro.engine.states import AsyncRobotState, initial_state

        algorithm = get("fsync_phi2_l2_chir_k2")
        state = initial_state(algorithm, Grid(3, 3))
        assert not hasattr(state, "__dict__")
        assert not hasattr(state.robots[0], "__dict__")
        record = AsyncRobotState(pos=(0, 0), color="W")
        with pytest.raises((AttributeError, TypeError)):
            object.__setattr__(record, "not_a_slot", 1)

    def test_scheduler_state_hash_cache_not_pickled(self):
        import pickle

        from repro.engine.states import initial_state

        algorithm = get("fsync_phi2_l2_chir_k2")
        state = initial_state(algorithm, Grid(3, 3))
        hash(state)  # populate the cache
        clone = pickle.loads(pickle.dumps(state))
        with pytest.raises(AttributeError):
            object.__getattribute__(clone, "_hash")
        assert clone == state and hash(clone) == hash(state)

    def test_batched_matches_agree_with_per_robot_matches(self):
        from repro.engine import LocalMatcher

        for name in ("fsync_phi2_l2_chir_k2", "fsync_phi1_l2_nochir_k5"):
            algorithm = get(name)
            grid = Grid(4, 5)
            matcher = LocalMatcher(algorithm, grid)
            reference = LocalMatcher(algorithm, grid)
            world = algorithm.initial_world(grid)
            batch = matcher.batched_matches(world.robots)
            assert [robot.rid for robot, _ in batch] == [robot.rid for robot in world.robots]
            for robot, matches in batch:
                assert matches == reference.matches(world.robots, robot.pos, robot.color)

    def test_walk_results_unchanged_by_shared_matcher(self):
        from repro.core import run_fsync
        from repro.engine import MatcherCache

        algorithm = get("fsync_phi2_l2_chir_k2")
        grid = Grid(4, 5)
        plain = run_fsync(algorithm, grid)
        cache = MatcherCache()
        warm = run_fsync(algorithm, grid, matcher=cache.matcher_for(algorithm, grid))
        rewarm = run_fsync(algorithm, grid, matcher=cache.matcher_for(algorithm, grid))
        for result in (warm, rewarm):
            assert result.final == plain.final
            assert result.events == plain.events
            assert result.steps == plain.steps


class TestCampaignCacheObservability:
    def test_serial_campaign_reports_carry_cache_counters(self):
        from repro.verification import grid_sweep

        report = grid_sweep(get("fsync_phi2_l2_chir_k2"), sizes=[(3, 3), (3, 4), (4, 4)])
        assert report.ok
        assert all(r.cache_hits is not None for r in report.reports)
        # Later sizes reuse patterns learned at earlier ones.
        assert sum(r.cache_hits for r in report.reports[1:]) > 0
        assert "match cache" in report.summary()

    def test_cache_counters_do_not_break_parallel_parity(self):
        from repro.engine.campaign import VerificationReport

        first = VerificationReport("a", "FSYNC", 3, 3, None, True, 1, 1, "ok", cache_hits=10, cache_misses=1)
        second = VerificationReport("a", "FSYNC", 3, 3, None, True, 1, 1, "ok", cache_hits=99, cache_misses=5)
        assert first == second  # observability fields are compare=False
        assert str(first) == str(second)
