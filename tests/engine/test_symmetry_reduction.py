"""Tests for grid-symmetry reduction in the engine kernel."""

from __future__ import annotations

import pickle
import random
import shutil
import sys
import threading
from pathlib import Path

import pytest

from repro.algorithms import all_algorithms, get
from repro.checking import check_terminating_exploration
from repro.core import Algorithm, G, Grid, Synchrony, W, occ
from repro.core.errors import StateSpaceLimitExceeded
from repro.core.rules import Guard, Rule
from repro.engine import (
    AlgorithmTransitionSystem,
    LocalMatcher,
    VerdictStore,
    canonicalize,
    grid_symmetries,
    initial_state,
    parse_check_spec,
    transform_state,
)
from repro.engine.explorer import explore_sharded, mask_nodes
from repro.engine.matcher import node_table
from repro.engine.symmetry import GridSymmetry, _grid_symmetries_cached

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

    def test_node_tables_fill_on_lookup(self):
        _grid_symmetries_cached.cache_clear()  # tables other tests filled
        group = grid_symmetries(Grid(1000, 1000), True)
        assert [len(gs.nodes) for gs in group] == [0] * len(group)
        for gs in group:
            gs.node((1, 2))
            gs.node((1, 2))  # a second lookup reads the stored image
            gs.node((-3, 0))  # off the grid too
        assert [len(gs.nodes) for gs in group] == [2] * len(group)
        assert [gs.node((0, 0)) for gs in group] == [(0, 0), (999, 0), (999, 999), (0, 999)]

    @pytest.mark.parametrize("shape", [(1, 1), (1, 4), (2, 3), (3, 3), (4, 5), (5, 5)], ids=str)
    @pytest.mark.parametrize("chirality", [True, False], ids=["chirality", "no-chirality"])
    def test_lazy_tables_agree_with_the_symmetry(self, shape, chirality):
        grid = Grid(*shape)
        _grid_symmetries_cached.cache_clear()  # tables other tests filled
        group = grid_symmetries(grid, chirality)
        points = list(grid.nodes()) + [(-1, 0), shape, (0, -2)]
        for gs in group:
            # One translation carries the linear image onto the table's.
            shifts = {
                tuple(a - b for a, b in zip(gs.node(point), gs.symmetry.apply(point)))
                for point in points
            }
            assert len(shifts) == 1
            assert set(gs.nodes) == set(points)  # exactly the points looked up
            assert {gs.node(node) for node in grid.nodes()} == set(grid.nodes())
            assert all(gs.inverse().node(gs.node(point)) == point for point in points)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (2, 3), (3, 3), (4, 5), (5, 5), (12, 11)], ids=str)
    def test_bit_permutation_maps_masks_node_by_node(self, shape):
        grid = Grid(*shape)
        nodes = list(grid.nodes())
        rng = random.Random(shape[0] * 100 + shape[1])
        samples = [set(), set(nodes)]
        samples += [set(rng.sample(nodes, rng.randint(1, len(nodes)))) for _ in range(20)]
        for gs in grid_symmetries(grid, chirality=False):
            for sample in samples:
                mask = sum(1 << (i * grid.n + j) for i, j in sample)
                assert mask_nodes(gs.mask(mask), grid) == {gs.node(node) for node in sample}
                assert gs.inverse().mask(gs.mask(mask)) == mask

    def test_threads_filling_one_table_agree(self):
        """Concurrent service requests share the memoized group's tables."""
        grid = Grid(40, 40)
        _grid_symmetries_cached.cache_clear()
        group = grid_symmetries(grid, False)
        nodes = list(grid.nodes())
        expected = [{node: GridSymmetry(gs.symmetry, 40, 40).node(node) for node in nodes} for gs in group]
        seen = []

        def fill(seed):
            order = random.Random(seed).sample(nodes, len(nodes))
            seen.append([{node: gs.node(node) for node in order} for gs in group])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [expected] * len(threads)
        assert [dict(gs.nodes) for gs in group] == expected

    def test_a_grid_symmetry_pickles_by_its_slots(self):
        gs = grid_symmetries(Grid(3, 4), False)[1]
        gs.node((1, 2))
        mask = gs.mask(0b1011_0011_1011)
        loaded = pickle.loads(pickle.dumps(gs))
        assert loaded.mask(0b1011_0011_1011) == mask
        assert loaded == gs and hash(loaded) == hash(gs) and loaded.name == gs.name
        assert loaded.is_identity == gs.is_identity
        for node in Grid(3, 4).nodes():
            assert loaded.node(node) == gs.node(node)
        assert loaded.offset((1, 0)) == gs.offset((1, 0))
        assert loaded.inverse() == gs.inverse()

    @pytest.mark.parametrize("model", ["FSYNC", "SSYNC", "ASYNC"])
    def test_a_tiny_budget_on_a_huge_grid_trips_with_tiny_tables(self, model):
        """The ``POST /v1/check`` path: table memory follows the states explored."""
        spec = parse_check_spec(
            {"algorithm": "fsync_phi2_l2_chir_k2", "m": 1000, "n": 1000, "model": model, "max_states": 10}
        )
        assert spec.reduction == "grid"
        algorithm, grid = spec.resolve(), Grid(spec.m, spec.n)
        _grid_symmetries_cached.cache_clear()
        node_table.cache_clear()
        with pytest.raises(StateSpaceLimitExceeded):
            check_terminating_exploration(
                algorithm, grid, model=spec.model, reduction=spec.reduction,
                max_states=spec.max_states,
            )
        group = grid_symmetries(grid, algorithm.chirality)
        assert sum(len(gs.nodes) + len(gs.inverse().nodes) for gs in group) < 1000
        assert 0 < len(LocalMatcher(algorithm, grid).nodes) < 1000

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
        full = explore_sharded(algorithm, grid, "FSYNC").num_states
        reduced = explore_sharded(algorithm, grid, "FSYNC", reduction="grid").num_states
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
        full = explore_sharded(algorithm, grid, model).num_states
        reduced = explore_sharded(algorithm, grid, model, reduction="grid").num_states
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
        full = explore_sharded(oscillator, grid, "SSYNC").num_states
        reduced = explore_sharded(oscillator, grid, "SSYNC", reduction="grid").num_states
        assert reduced < full  # the ping-pong orbit folds onto itself
        plain = check_terminating_exploration(oscillator, grid, model="SSYNC")
        quotient = check_terminating_exploration(oscillator, grid, model="SSYNC", reduction="grid")
        assert not plain.terminates and not quotient.terminates
        assert not plain.ok and not quotient.ok


#: A verdict store holding one record of the retired exploration tier,
#: ``async_phi2_l3_nochir_k3`` 2x4 SSYNC under the grid quotient (an
#: ``Exploration`` whose edge witnesses are ``GridSymmetry`` pickles),
#: written before the symmetry carried precomputed tables.  Explorations
#: are no longer stored; such a record must still replay and never answer
#: a check.
OLDER_STORE = Path(__file__).resolve().parent / "data" / "store_before_symmetry_tables"


class TestStoreCompatibility:
    def test_older_explore_record_replays_and_the_check_is_a_miss(self, tmp_path):
        shutil.copytree(OLDER_STORE, tmp_path / "store")
        algorithm = get("async_phi2_l3_nochir_k3")
        grid = Grid(2, 4)
        with VerdictStore(tmp_path / "store") as store:
            assert (len(store), store.corrupt_records) == (1, 0)
            stored = check_terminating_exploration(
                algorithm, grid, model="SSYNC", reduction="grid", store=store
            )
        assert stored.store_stats["outcome"] == "miss"
        fresh = check_terminating_exploration(algorithm, grid, model="SSYNC", reduction="grid")
        assert stored == fresh
        assert stored.reduction_stats == fresh.reduction_stats
