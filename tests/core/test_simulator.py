"""Tests for the FSYNC/SSYNC/ASYNC execution engines."""

from __future__ import annotations

import pytest

from repro.algorithms import get, names
from repro.core import (
    FullActivation,
    Grid,
    RandomAsync,
    RandomSubset,
    SequentialAsync,
    SingleRandom,
    SingleSequential,
    TieBreak,
    run,
    run_async,
    run_fsync,
    run_ssync,
)
from repro.core.errors import SchedulerError, SimulationError
from repro.core.scheduler import SsyncScheduler
from repro.core.world import World
from repro.engine import default_grid_suite, verify_one


class TestFsyncEngine:
    def test_quickstart_execution(self, algorithm1):
        result = run_fsync(algorithm1, Grid(4, 5))
        assert result.is_terminating_exploration
        assert result.termination_reason == "terminal"
        assert result.trace[0] == result.initial
        assert result.trace[-1] == result.final

    def test_round_counts_and_moves(self, algorithm1):
        result = run_fsync(algorithm1, Grid(2, 3))
        assert result.steps == 4
        assert result.total_moves >= result.grid.num_nodes - algorithm1.k

    def test_max_steps_reports_nontermination(self, algorithm1):
        result = run_fsync(algorithm1, Grid(6, 7), max_steps=3)
        assert not result.terminated
        assert result.termination_reason == "max_steps"

    def test_events_reference_rules(self, algorithm1):
        result = run_fsync(algorithm1, Grid(3, 4))
        assert all(event.rule.startswith("R") for event in result.events)
        census = result.rule_census()
        assert census["R1"] > 0 and census["R2"] > 0

    def test_invalid_tie_break_rejected(self, algorithm1):
        with pytest.raises(SimulationError):
            run_fsync(algorithm1, Grid(3, 4), tie_break="whatever")


class TestSsyncEngine:
    @pytest.mark.parametrize("scheduler_factory", [
        lambda: FullActivation(),
        lambda: SingleSequential(),
        lambda: SingleRandom(seed=3),
        lambda: RandomSubset(seed=3),
    ])
    def test_async_algorithm_under_ssync_schedulers(self, scheduler_factory):
        algorithm = get("async_phi2_l3_chir_k2")
        result = run_ssync(algorithm, Grid(3, 4), scheduler=scheduler_factory())
        assert result.is_terminating_exploration

    def test_full_activation_equals_fsync(self, algorithm1):
        ssync = run_ssync(algorithm1, Grid(4, 5), scheduler=FullActivation(), tie_break=TieBreak.ERROR)
        fsync = run_fsync(algorithm1, Grid(4, 5))
        assert ssync.steps == fsync.steps
        assert ssync.final == fsync.final

    def test_bad_scheduler_selection_rejected(self, algorithm1):
        class Broken(SsyncScheduler):
            def select(self, round_index, enabled):
                return []

        with pytest.raises(SchedulerError):
            run_ssync(algorithm1, Grid(3, 4), scheduler=Broken())


class TestAsyncEngine:
    def test_sequential_async_matches_paper_figures(self):
        algorithm = get("async_phi2_l3_chir_k2")
        result = run_async(algorithm, Grid(3, 4), scheduler=SequentialAsync())
        assert result.is_terminating_exploration

    @pytest.mark.parametrize("seed", range(5))
    def test_random_interleavings(self, seed):
        algorithm = get("async_phi1_l3_chir_k3")
        result = run_async(algorithm, Grid(3, 4), scheduler=RandomAsync(seed=seed))
        assert result.is_terminating_exploration

    def test_phases_are_recorded(self):
        algorithm = get("async_phi2_l3_chir_k2")
        result = run_async(algorithm, Grid(2, 3), scheduler=SequentialAsync())
        phases = {event.phase for event in result.events}
        assert phases == {"look", "compute", "move"}

    def test_color_change_visible_before_move(self):
        # Rule R4 of Algorithm 6 recolors G to B during Compute; the trace must
        # contain the intermediate configuration where the robot is already B
        # but has not moved yet (Figure 12(c)).
        algorithm = get("async_phi2_l3_chir_k2")
        result = run_async(algorithm, Grid(2, 4), scheduler=SequentialAsync())
        intermediates = [
            config
            for config in result.trace
            if any(colors == ("B",) for _node, colors in config)
            and any(colors == ("W",) for _node, colors in config)
        ]
        assert intermediates, "expected the B-recolored intermediate configuration in the trace"


class TestEventsFirstResult:
    """A result holds ``initial`` and ``events``; trace, final and visited derive from them."""

    @pytest.mark.parametrize("model", ["FSYNC", "SSYNC", "ASYNC"])
    def test_a_campaign_walk_builds_one_configuration(self, model, monkeypatch):
        built = []
        configuration = World.configuration

        def counted(world):
            built.append(world)
            return configuration(world)

        monkeypatch.setattr(World, "configuration", counted)
        report = verify_one(get("async_phi2_l3_chir_k2"), 4, 5, model=model, tie_break="first")
        assert report.ok and report.steps > 1
        assert len(built) == 1

    @pytest.mark.parametrize("model", ["FSYNC", "SSYNC", "ASYNC"])
    @pytest.mark.parametrize("name", names())
    def test_trace_final_and_visited_agree(self, name, model):
        algorithm = get(name)
        m0, n0 = algorithm.min_m, algorithm.min_n
        for m, n in ((m0, n0), (m0 + 1, n0 + 1)):
            result = run(algorithm, Grid(m, n), model, tie_break="random", seed=0)
            trace = result.trace
            assert trace[0] == result.initial and trace[-1] == result.final
            assert all(before != after for before, after in zip(trace, trace[1:]))
            assert all(config.robot_count == algorithm.k for config in trace)
            assert result.visited == {node for config in trace for node in config.occupied_nodes()}

    @pytest.mark.parametrize("name", names())
    def test_fsync_is_ssync_under_full_activation(self, name):
        algorithm = get(name)
        for m, n in default_grid_suite(algorithm, max_side=7):
            fsync = run_fsync(algorithm, Grid(m, n), tie_break="random", seed=1)
            ssync = run_ssync(
                algorithm, Grid(m, n), scheduler=FullActivation(), tie_break="random", seed=1
            )
            assert fsync.events == ssync.events
            assert fsync.trace == ssync.trace


class TestDispatcher:
    @pytest.mark.parametrize("model", ["FSYNC", "SSYNC", "ASYNC"])
    def test_run_dispatch(self, model):
        algorithm = get("async_phi2_l3_chir_k2")
        result = run(algorithm, Grid(2, 4), model)
        assert result.model == model
        assert result.is_terminating_exploration

    def test_unknown_model(self, algorithm1):
        with pytest.raises(SimulationError):
            run(algorithm1, Grid(2, 3), "HYPERSYNC")
