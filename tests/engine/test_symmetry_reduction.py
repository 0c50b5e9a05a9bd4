"""Tests for grid-symmetry reduction in the engine kernel."""

from __future__ import annotations

import pickle
import shutil
from pathlib import Path

import pytest

from repro.algorithms import all_algorithms, get
from repro.checking import check_terminating_exploration, enumerate_reachable
from repro.core import Algorithm, G, Grid, Synchrony, W, occ
from repro.core.rules import Guard, Rule
from repro.core.views import ROT180
from repro.engine import (
    AlgorithmTransitionSystem,
    VerdictStore,
    canonicalize,
    explore_sharded,
    grid_symmetries,
    guaranteed_nodes,
    initial_state,
    transform_state,
)
from repro.engine.symmetry import GridSymmetry

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
            initial_placement=(((0, 1), G), ((0, 2), W)),
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


#: ``pickle.dumps(GridSymmetry(ROT180, 3, 4))`` as written before the
#: symmetry carried precomputed tables.  Verdict-store records hold edge
#: witnesses in this form, so the bytes must not move.
ROT180_3X4_PICKLE = bytes.fromhex(
    "800495c5000000000000008c15726570726f2e656e67696e652e73796d6d65747279948c0c4772"
    "696453796d6d657472799493942981944e7d94288c0873796d6d65747279948c10726570726f2e"
    "636f72652e7669657773948c0853796d6d657472799493942981947d94288c046e616d65948c06"
    "726f74313830948c0161944affffffff8c0162944b008c0163944b008c0164944affffffff7562"
    "8c016d944b038c016e944b048c035f7469944b028c035f746a944b038c0f707265736572766573"
    "5f73686170659488758694622e"
)

#: A verdict store holding one explore-route record,
#: ``async_phi2_l3_nochir_k3`` 2x4 SSYNC under the grid quotient (8 states,
#: five collapsed edges, a flipNS root witness), written before the
#: symmetry carried precomputed tables.
OLDER_STORE = Path(__file__).resolve().parent / "data" / "store_before_symmetry_tables"


class TestStoreCompatibility:
    def test_pickle_bytes_carry_no_tables(self):
        gs = GridSymmetry(ROT180, 3, 4)
        assert pickle.dumps(gs) == ROT180_3X4_PICKLE
        assert len(ROT180_3X4_PICKLE) == 208
        inverse = gs.inverse()
        # The cached inverse rides along, as it always did; tables never do.
        assert pickle.loads(pickle.dumps(gs))._inverse == inverse
        assert b"nodes" not in pickle.dumps(gs) and b"offsets" not in pickle.dumps(gs)

    def test_older_pickle_loads_and_maps_through_rebuilt_tables(self):
        loaded = pickle.loads(ROT180_3X4_PICKLE)
        fresh = GridSymmetry(ROT180, 3, 4)
        assert loaded == fresh and hash(loaded) == hash(fresh)
        for node in Grid(3, 4).nodes():
            assert loaded.node(node) == fresh.node(node) == (2 - node[0], 3 - node[1])
        assert loaded.node((-1, 0)) == (3, 3)  # off the grid, by the same arithmetic
        for offset in ((1, 0), (0, 1), (1, 1), (0, -2)):
            assert loaded.offset(offset) == (-offset[0], -offset[1])
        assert not loaded.is_identity
        assert loaded.inverse() == fresh

    def test_older_explore_record_is_a_hit_with_working_witnesses(self, tmp_path):
        shutil.copytree(OLDER_STORE, tmp_path / "store")
        algorithm = get("async_phi2_l3_nochir_k3")
        grid = Grid(2, 4)
        store = VerdictStore(tmp_path / "store")
        try:
            stored = explore_sharded(algorithm, grid, "SSYNC", reduction="grid", store=store)
        finally:
            store.close()
        assert stored.store_stats["outcome"] == "hit"
        fresh = explore_sharded(algorithm, grid, "SSYNC", reduction="grid")
        assert stored == fresh
        assert stored.root_sym is not None and stored.root_sym.name == "flipNS"
        witnesses = [h for row in stored.edge_syms for h in row if h is not None]
        assert len(witnesses) == 5
        for h in witnesses + [stored.root_sym]:
            for node in grid.nodes():
                assert h.node(node) == GridSymmetry(h.symmetry, 2, 4).node(node)
        assert guaranteed_nodes(stored) == guaranteed_nodes(fresh)
