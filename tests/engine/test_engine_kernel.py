"""Tests for the engine kernel: matching, walk seeding, limits, suites, profiling, state caching."""

from __future__ import annotations

import pickle

import pytest

from repro.algorithms import get
from repro.checking import check_terminating_exploration
from repro.core import Grid, TieBreak, run_fsync, run_ssync
from repro.core.errors import StateSpaceLimitExceeded
from repro.engine import (
    AlgorithmTransitionSystem,
    AsyncRobotState,
    LocalMatcher,
    default_grid_suite,
    explore,
    explore_sharded,
    initial_state,
    scaling_suite,
)
from repro.engine import suites as engine_suites
from repro.engine.profile import PROFILE_ENV
from repro.verification import campaigns


class TestTransitionSystem:
    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            AlgorithmTransitionSystem(get("fsync_phi2_l2_chir_k2"), Grid(3, 4), "HSYNC")

    def test_reusing_a_transition_system_is_consistent(self):
        algorithm = get("async_phi2_l3_chir_k2")
        grid = Grid(3, 4)
        ts = AlgorithmTransitionSystem(algorithm, grid, "SSYNC")
        state = initial_state(algorithm, grid)
        assert ts.successors(state) == ts.successors(state)

    def test_explore_matches_public_wrapper(self):
        algorithm = get("async_phi2_l3_chir_k2")
        grid = Grid(3, 4)
        exploration = explore(AlgorithmTransitionSystem(algorithm, grid, "SSYNC"))
        assert explore_sharded(algorithm, grid, "SSYNC") == exploration


class TestLocalMatcher:
    def test_matches_are_cached(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        grid = Grid(3, 4)
        matcher = LocalMatcher(algorithm, grid)
        world = algorithm.initial_world(grid)
        robot = world.robots[0]
        first = matcher.matches(world.robots, robot.pos, robot.color)
        second = matcher.matches(world.robots, robot.pos, robot.color)
        assert first is second  # same tuple object: served from the cache

    def test_matches_agree_with_the_algorithm(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        grid = Grid(3, 4)
        matcher = LocalMatcher(algorithm, grid)
        world = algorithm.initial_world(grid)
        for robot in world.robots:
            assert list(matcher.matches(world.robots, robot.pos, robot.color)) == list(
                algorithm.matches_for_robot(world, robot)
            )

    def test_snapshot_agrees_with_world_snapshot(self):
        algorithm = get("async_phi1_l3_chir_k3")
        grid = Grid(3, 4)
        matcher = LocalMatcher(algorithm, grid)
        world = algorithm.initial_world(grid)
        for robot in world.robots:
            assert matcher.snapshot(world.robots, robot.pos) == world.snapshot(
                robot.pos, algorithm.phi
            )


class TestWalkSeeding:
    def test_seed_and_tie_break_threaded_into_result(self):
        result = run_fsync(get("fsync_phi2_l2_chir_k2"), Grid(3, 4), seed=7)
        assert result.seed == 7
        assert result.tie_break == TieBreak.ERROR

    def test_random_tie_break_is_replayable_from_the_recorded_seed(self):
        algorithm = get("fsync_phi2_l2_nochir_k3")
        first = run_ssync(algorithm, Grid(4, 5), tie_break=TieBreak.RANDOM, seed=13)
        replay = run_ssync(algorithm, Grid(4, 5), tie_break=TieBreak.RANDOM, seed=first.seed)
        assert replay.events == first.events
        assert replay.trace == first.trace
        assert replay.final == first.final

    def test_random_tie_break_does_not_touch_global_rng(self):
        import random

        state_before = random.getstate()
        run_ssync(get("fsync_phi2_l2_nochir_k3"), Grid(4, 5), tie_break=TieBreak.RANDOM, seed=3)
        assert random.getstate() == state_before


class TestStateSpaceLimitContext:
    def test_limit_error_carries_exploration_context(self):
        algorithm = get("async_phi2_l2_nochir_k4")
        with pytest.raises(StateSpaceLimitExceeded) as excinfo:
            check_terminating_exploration(algorithm, Grid(4, 6), model="ASYNC", max_states=10)
        error = excinfo.value
        assert error.algorithm == algorithm.name
        assert error.model == "ASYNC"
        assert error.max_states == 10
        assert error.states_explored is not None and error.states_explored <= 10
        assert error.frontier_size is not None and error.frontier_size >= 0
        message = str(error)
        assert "state budget" in message and "frontier" in message


class TestSharedSuites:
    def test_campaigns_use_the_engine_suite(self):
        assert campaigns.default_grid_suite is engine_suites.default_grid_suite
        assert campaigns.default_grid_suite is default_grid_suite

    def test_default_suite_respects_minimum_sizes(self):
        algorithm = get("fsync_phi1_l2_nochir_k5")
        for m, n in default_grid_suite(algorithm):
            assert algorithm.supports_grid(m, n)

    def test_scaling_suite_matches_previous_default(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        base = max(algorithm.min_n, 4)
        expected = [(side, side + 1) for side in range(max(algorithm.min_m, 3), 12)] + [
            (3, base * 4),
            (base * 4, 3 if algorithm.min_n <= 3 else algorithm.min_n),
        ]
        assert scaling_suite(algorithm) == expected


def _object_exploration(algorithm, grid, model, **kwargs):
    return explore(AlgorithmTransitionSystem(algorithm, grid, model), **kwargs)


# ---------------------------------------------------------------------------
# Profiling hook
# ---------------------------------------------------------------------------
class TestProfileHook:
    PROFILE_KEYS = {"match_s", "canonicalise_s", "dedup_s", "total_s"}

    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        algorithm = get("fsync_phi1_l2_nochir_k5")
        grid = Grid(4, 4)
        assert _object_exploration(algorithm, grid, "FSYNC").profile is None

    def test_reports_phase_split(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "1")
        algorithm = get("fsync_phi1_l2_nochir_k5")
        grid = Grid(4, 4)
        profile = _object_exploration(algorithm, grid, "FSYNC").profile
        assert profile is not None and set(profile) == self.PROFILE_KEYS
        assert profile["total_s"] >= 0.0

    def test_profile_excluded_from_equality(self, monkeypatch):
        algorithm = get("fsync_phi1_l2_nochir_k5")
        grid = Grid(4, 4)
        monkeypatch.setenv(PROFILE_ENV, "1")
        profiled = _object_exploration(algorithm, grid, "FSYNC")
        monkeypatch.delenv(PROFILE_ENV)
        plain = _object_exploration(algorithm, grid, "FSYNC")
        assert profiled == plain


# ---------------------------------------------------------------------------
# AsyncRobotState sort-key/hash caching (satellite)
# ---------------------------------------------------------------------------
class TestAsyncRobotStateCaching:
    def test_key_and_hash_are_cached(self):
        record = AsyncRobotState(pos=(1, 2), color="B")
        assert record.key() is record.key()
        assert hash(record) == hash(record)
        assert record._hash == hash(record)

    def test_still_frozen(self):
        from dataclasses import FrozenInstanceError

        record = AsyncRobotState(pos=(1, 2), color="B")
        with pytest.raises(FrozenInstanceError):
            record.pos = (0, 0)
        with pytest.raises(FrozenInstanceError):
            del record.color

    def test_pickle_drops_caches(self):
        record = AsyncRobotState(
            pos=(1, 2), color="B", phase="computed", pending_color="W", pending_move=(0, 1)
        )
        record.key(), hash(record)  # populate both caches
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record
        assert not hasattr(clone, "_key") and not hasattr(clone, "_hash")
        assert clone.key() == record.key()
        assert hash(clone) == hash(record)

    def test_equality_semantics_preserved(self):
        a = AsyncRobotState(pos=(1, 2), color="B")
        b = AsyncRobotState(pos=(1, 2), color="B")
        c = AsyncRobotState(pos=(1, 2), color="W")
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a.__eq__(object()) is NotImplemented
