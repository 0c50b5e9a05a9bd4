"""Tests for the exhaustive model checker."""

from __future__ import annotations

import pytest

from repro.algorithms import get
from repro.checking import check_terminating_exploration
from repro.core import Algorithm, G, Grid, Synchrony, W, occ
from repro.core.errors import ConfigurationError, IllegalMoveError, StateSpaceLimitExceeded
from repro.core.rules import Guard, Rule
from repro.engine import AlgorithmTransitionSystem, check_one, explore_sharded, run_fsync, verify_one
from repro.engine.states import AsyncRobotState, SchedulerState, initial_state, world_from_state

ASYNC_NAMES = [
    "async_phi2_l3_chir_k2",
    "async_phi2_l3_nochir_k3",
    "async_phi2_l2_chir_k3",
    "async_phi2_l2_nochir_k4",
    "async_phi1_l3_chir_k3",
]


def oscillator() -> Algorithm:
    """A deliberately non-terminating two-robot algorithm (ping-pong)."""
    rules = (
        # The two robots perpetually swap places: G always steps onto the W's
        # node and W always steps onto the G's node.
        Rule("R1", G, Guard.build(1, E=occ(W)), G, "E"),
        Rule("R2", G, Guard.build(1, W=occ(W)), G, "W"),
        Rule("R3", W, Guard.build(1, W=occ(G)), W, "W"),
        Rule("R4", W, Guard.build(1, E=occ(G)), W, "E"),
    )
    return Algorithm(
        name="oscillator",
        synchrony=Synchrony.SSYNC,
        phi=1,
        colors=(G, W),
        chirality=True,
        k=2,
        rules=rules,
        initial_placement=(((0, 1), G), ((0, 2), W)),
        min_m=1,
        min_n=4,
    )


def wanderer(node=(0, 0)) -> Algorithm:
    """One robot that may always step in any direction, off the grid included."""
    return Algorithm(
        name="wanderer",
        synchrony=Synchrony.FSYNC,
        phi=1,
        colors=(G,),
        chirality=True,
        k=1,
        rules=(Rule("east", G, Guard.build(1), G, "E"),),
        initial_placement=((node, G),),
    )


class TestStates:
    def test_initial_state_is_canonical(self):
        algorithm = get("async_phi2_l3_chir_k2")
        state = initial_state(algorithm, Grid(3, 4))
        assert state == SchedulerState.from_records(reversed(state.robots))
        assert state.all_idle()

    def test_world_round_trip(self):
        algorithm = get("async_phi2_l3_chir_k2")
        state = initial_state(algorithm, Grid(3, 4))
        world = world_from_state(Grid(3, 4), state)
        assert world.configuration().robot_count == algorithm.k


class TestSuccessors:
    def test_fsync_is_deterministic_for_algorithm1(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        grid = Grid(3, 4)
        state = initial_state(algorithm, grid)
        assert len(AlgorithmTransitionSystem(algorithm, grid, "FSYNC").successors(state)) == 1

    def test_ssync_branches_over_subsets(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        grid = Grid(3, 4)
        state = initial_state(algorithm, grid)
        # Two enabled robots -> three non-empty subsets.
        assert len(AlgorithmTransitionSystem(algorithm, grid, "SSYNC").successors(state)) == 3

    def test_async_offers_looks_only_to_enabled_robots(self):
        algorithm = get("async_phi2_l3_chir_k2")
        grid = Grid(3, 4)
        state = initial_state(algorithm, grid)
        # Only the W robot is enabled initially, so exactly one Look step.
        assert len(AlgorithmTransitionSystem(algorithm, grid, "ASYNC").successors(state)) == 1

    def test_terminal_states_have_no_successors(self):
        algorithm = get("async_phi2_l3_chir_k2")
        grid = Grid(3, 3)
        # The paper's odd-m terminal configuration: G and W adjacent in the
        # southeast corner.
        state = SchedulerState.from_records(
            [AsyncRobotState(pos=(2, 1), color="G"), AsyncRobotState(pos=(2, 2), color="W")]
        )
        assert AlgorithmTransitionSystem(algorithm, grid, "SSYNC").successors(state) == []


class TestExhaustiveChecks:
    @pytest.mark.parametrize("name", ASYNC_NAMES)
    def test_ssync_terminating_exploration_holds(self, name):
        algorithm = get(name)
        grid = Grid(max(3, algorithm.min_m), max(4, algorithm.min_n))
        result = check_terminating_exploration(algorithm, grid, model="SSYNC")
        assert result.ok, result.summary()

    @pytest.mark.parametrize("name", ASYNC_NAMES)
    def test_async_terminating_exploration_holds_on_small_grid(self, name):
        algorithm = get(name)
        grid = Grid(algorithm.min_m, max(4, algorithm.min_n))
        result = check_terminating_exploration(algorithm, grid, model="ASYNC", max_states=500_000)
        assert result.ok, result.summary()

    def test_fsync_check_for_fsync_algorithm(self):
        result = check_terminating_exploration(get("fsync_phi1_l2_chir_k3"), Grid(3, 4), model="FSYNC")
        assert result.ok and result.terminal_states == 1

    def test_detects_nontermination(self):
        result = check_terminating_exploration(oscillator(), Grid(1, 4), model="SSYNC")
        assert not result.terminates
        assert not result.ok
        assert "infinite" in (result.counterexample or "")

    def test_detects_incomplete_coverage(self):
        # Algorithm 1 is only correct under FSYNC; under the SSYNC adversary it
        # must fail Definition 1 on some grid (Theorem 1 machinery aside, the
        # checker sees it directly).
        result = check_terminating_exploration(get("fsync_phi2_l2_chir_k2"), Grid(4, 4), model="SSYNC")
        assert not result.ok

    def test_state_budget_is_enforced(self):
        algorithm = get("async_phi2_l2_nochir_k4")
        with pytest.raises(StateSpaceLimitExceeded):
            check_terminating_exploration(algorithm, Grid(4, 6), model="ASYNC", max_states=10)

    def test_enumerate_reachable_counts_states(self):
        count = explore_sharded(get("async_phi2_l3_chir_k2"), Grid(3, 4), "SSYNC").num_states
        assert count > 5


class TestOffGridRobotsFailClosed:
    """The check raises the walk's error where the walk leaves the grid."""

    @pytest.mark.parametrize("reduction", ["none", "grid"])
    @pytest.mark.parametrize("model", ["FSYNC", "SSYNC", "ASYNC"])
    def test_a_move_off_the_grid_raises(self, model, reduction):
        with pytest.raises(IllegalMoveError, match="outside the 2x3 grid"):
            check_terminating_exploration(wanderer(), Grid(2, 3), model=model, reduction=reduction)

    @pytest.mark.parametrize("reduction", ["none", "grid"])
    @pytest.mark.parametrize("model", ["FSYNC", "SSYNC", "ASYNC"])
    def test_a_placement_off_the_grid_raises(self, model, reduction):
        with pytest.raises(ConfigurationError, match=r"\(5, 5\), outside the 2x3 grid"):
            check_terminating_exploration(wanderer((5, 5)), Grid(2, 3), model=model, reduction=reduction)

    def test_the_walk_raises_the_same_errors(self):
        with pytest.raises(IllegalMoveError):
            run_fsync(wanderer(), Grid(2, 3), tie_break="first")
        with pytest.raises(ConfigurationError):
            run_fsync(wanderer((5, 5)), Grid(2, 3))

    @pytest.mark.parametrize("model", ["FSYNC", "SSYNC", "ASYNC"])
    def test_campaign_reports_name_the_same_error(self, model):
        for node, error in (((0, 0), "IllegalMoveError: "), ((5, 5), "ConfigurationError: ")):
            checked = check_one(wanderer(node), 2, 3, model=model)
            walked = verify_one(wanderer(node), 2, 3, model=model, tie_break="first")
            assert not checked.ok and checked.reason.startswith(error)
            assert not walked.ok and walked.reason.startswith(error)
