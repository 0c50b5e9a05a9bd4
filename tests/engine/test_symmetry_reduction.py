"""Tests for grid-symmetry reduction in the engine kernel."""

from __future__ import annotations

import pytest

from repro.algorithms import all_algorithms, get
from repro.checking import check_terminating_exploration, enumerate_reachable
from repro.core import Algorithm, G, Grid, Synchrony, W, occ
from repro.core.rules import Guard, Rule
from repro.engine import (
    AlgorithmTransitionSystem,
    canonicalize,
    grid_symmetries,
    initial_state,
    transform_state,
)

FSYNC_NAMES = sorted(
    name for name, alg in all_algorithms().items() if alg.synchrony == "FSYNC"
)


def small_square(algorithm: Algorithm) -> Grid:
    side = max(algorithm.min_m, algorithm.min_n, 3)
    return Grid(side, side)


class TestGridSymmetries:
    def test_square_grid_group_sizes(self):
        assert len(grid_symmetries(Grid(3, 3), chirality=True)) == 4
        assert len(grid_symmetries(Grid(3, 3), chirality=False)) == 8

    def test_rectangular_grid_group_sizes(self):
        # Only the identity and rot180 preserve a non-square rectangle with
        # chirality; the two axis flips join without it.
        assert len(grid_symmetries(Grid(3, 4), chirality=True)) == 2
        assert len(grid_symmetries(Grid(3, 4), chirality=False)) == 4

    def test_identity_comes_first(self):
        for chirality in (True, False):
            first = grid_symmetries(Grid(4, 4), chirality)[0]
            assert first.is_identity

    def test_node_maps_are_grid_automorphisms(self):
        grid = Grid(4, 4)
        for gs in grid_symmetries(grid, chirality=False):
            image = {gs.node(node) for node in grid.nodes()}
            assert image == set(grid.nodes())
            # Adjacency is preserved.
            for node in grid.nodes():
                for neighbor in grid.neighbors(node):
                    assert Grid.distance(gs.node(node), gs.node(neighbor)) == 1

    def test_inverse_round_trip(self):
        grid = Grid(4, 4)
        for gs in grid_symmetries(grid, chirality=False):
            inv = gs.inverse()
            for node in grid.nodes():
                assert inv.node(gs.node(node)) == node
            for offset in ((1, 0), (0, 1), (-1, 0), (0, -1)):
                assert inv.offset(gs.offset(offset)) == offset

    def test_transform_state_round_trip(self):
        algorithm = get("async_phi2_l3_chir_k2")
        grid = Grid(3, 3)
        state = initial_state(algorithm, grid)
        # Push the state one ASYNC step in so it carries a stored snapshot.
        ts = AlgorithmTransitionSystem(algorithm, grid, "ASYNC")
        looked = ts.successors(state)[0]
        for gs in grid_symmetries(grid, chirality=True):
            assert transform_state(transform_state(looked, gs), gs.inverse()) == looked

    def test_canonicalize_is_orbit_invariant(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        grid = Grid(4, 4)
        symmetries = grid_symmetries(grid, chirality=True)
        state = initial_state(algorithm, grid)
        rep, _ = canonicalize(state, symmetries)
        for gs in symmetries:
            other_rep, h = canonicalize(transform_state(state, gs), symmetries)
            assert other_rep == rep
            if h is not None:
                # h maps the representative back onto the orbit member.
                assert transform_state(rep, h) == transform_state(state, gs)


class TestReductionSoundness:
    @pytest.mark.parametrize("name", FSYNC_NAMES)
    def test_fsync_reduced_count_and_verdicts(self, name):
        """Satellite: reduced <= unreduced, identical verdicts, per FSYNC algorithm."""
        algorithm = get(name)
        grid = small_square(algorithm)
        full = enumerate_reachable(algorithm, grid, model="FSYNC")
        reduced = enumerate_reachable(algorithm, grid, model="FSYNC", reduction="grid")
        assert reduced <= full
        plain = check_terminating_exploration(algorithm, grid, model="FSYNC")
        quotient = check_terminating_exploration(
            algorithm, grid, model="FSYNC", reduction="grid"
        )
        assert (plain.terminates, plain.explores, plain.ok) == (
            quotient.terminates,
            quotient.explores,
            quotient.ok,
        )
        assert quotient.states_explored == reduced

    @pytest.mark.parametrize(
        "name,m,n,model",
        [
            ("fsync_phi2_l2_chir_k2", 3, 3, "SSYNC"),
            ("fsync_phi2_l2_chir_k2", 4, 4, "SSYNC"),
            ("fsync_phi2_l2_nochir_k3", 4, 4, "SSYNC"),
        ],
    )
    def test_strict_reduction_on_symmetric_pairs(self, name, m, n, model):
        """Acceptance: symmetric pairs where the quotient is strictly smaller."""
        algorithm = get(name)
        grid = Grid(m, n)
        full = enumerate_reachable(algorithm, grid, model=model)
        reduced = enumerate_reachable(algorithm, grid, model=model, reduction="grid")
        assert reduced < full
        plain = check_terminating_exploration(algorithm, grid, model=model)
        quotient = check_terminating_exploration(algorithm, grid, model=model, reduction="grid")
        assert (plain.terminates, plain.explores) == (quotient.terminates, quotient.explores)

    @pytest.mark.parametrize("name", ["async_phi2_l3_chir_k2", "async_phi2_l2_chir_k3"])
    def test_async_model_verdicts_identical(self, name):
        algorithm = get(name)
        grid = Grid(3, 3)
        plain = check_terminating_exploration(algorithm, grid, model="ASYNC", max_states=500_000)
        quotient = check_terminating_exploration(
            algorithm, grid, model="ASYNC", max_states=500_000, reduction="grid"
        )
        assert (plain.terminates, plain.explores, plain.ok) == (
            quotient.terminates,
            quotient.explores,
            quotient.ok,
        )

    def test_nontermination_detected_through_the_quotient(self):
        """A quotient cycle is reported exactly like a raw cycle."""
        rules = (
            Rule("R1", G, Guard.build(1, E=occ(W)), G, "E"),
            Rule("R2", G, Guard.build(1, W=occ(W)), G, "W"),
            Rule("R3", W, Guard.build(1, W=occ(G)), W, "W"),
            Rule("R4", W, Guard.build(1, E=occ(G)), W, "E"),
        )
        oscillator = Algorithm(
            name="oscillator",
            synchrony=Synchrony.SSYNC,
            phi=1,
            colors=(G, W),
            chirality=True,
            k=2,
            rules=rules,
            initial_placement=lambda m, n: [((0, 1), G), ((0, 2), W)],
            min_m=1,
            min_n=4,
        )
        grid = Grid(1, 4)
        full = enumerate_reachable(oscillator, grid, model="SSYNC")
        reduced = enumerate_reachable(oscillator, grid, model="SSYNC", reduction="grid")
        assert reduced < full  # the ping-pong orbit folds onto itself
        plain = check_terminating_exploration(oscillator, grid, model="SSYNC")
        quotient = check_terminating_exploration(oscillator, grid, model="SSYNC", reduction="grid")
        assert not plain.terminates and not quotient.terminates
        assert not plain.ok and not quotient.ok
