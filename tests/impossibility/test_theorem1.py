"""Tests for the Theorem 1 machinery (Section 3)."""

from __future__ import annotations

import re

import pytest

from repro.algorithms import get
from repro.core import Grid
from repro.core.errors import GridError
from repro.impossibility import (
    adversary_prevents_node,
    candidate_two_robot_algorithms,
    demonstrate_theorem1,
    refute_terminating_exploration,
)


class TestCandidates:
    def test_candidate_library_contents(self):
        candidates = candidate_two_robot_algorithms()
        assert len(candidates) >= 3
        assert all(algorithm.k == 2 and algorithm.phi == 1 for algorithm in candidates.values())
        assert "fsync_phi1_l3_chir_k2" in candidates


class TestRefuter:
    @pytest.mark.parametrize("name", sorted(candidate_two_robot_algorithms()))
    def test_every_two_robot_candidate_is_refuted_under_ssync(self, name):
        algorithm = candidate_two_robot_algorithms()[name]
        witness = refute_terminating_exploration(algorithm, Grid(4, 4), model="SSYNC")
        assert witness is not None, f"{name} unexpectedly survived the SSYNC adversary"
        assert witness.kind in ("terminal", "cycle")

    def test_paper_upper_bound_algorithm_survives(self):
        # Three robots suffice (Table 1, phi=1 SSYNC/ASYNC row): the refuter
        # must NOT find a counterexample for the paper's k=3 algorithm.
        algorithm = get("async_phi1_l3_chir_k3")
        assert refute_terminating_exploration(algorithm, Grid(3, 4), model="SSYNC") is None

    def test_node_already_occupied_returns_none(self):
        algorithm = get("fsync_phi1_l3_chir_k2")
        assert adversary_prevents_node(algorithm, Grid(3, 4), (0, 0), model="SSYNC") is None

    @pytest.mark.parametrize("node", [(10, 10), (-1, 0), (3, 0), (0, 4)])
    def test_node_outside_the_grid_raises(self, node):
        # A node the robots cannot reach is no evidence against an
        # algorithm: it must not be reported as "never visited".
        algorithm = get("async_phi1_l3_chir_k3")
        with pytest.raises(GridError, match=re.escape(str(node))):
            adversary_prevents_node(algorithm, Grid(3, 4), node, model="SSYNC")

    def test_witness_mentions_a_never_visited_node(self):
        algorithm = candidate_two_robot_algorithms()["candidate_chaser_phi1_k2"]
        witness = refute_terminating_exploration(algorithm, Grid(3, 3), model="SSYNC")
        assert witness is not None
        assert Grid(3, 3).contains(witness.node)

    def test_refutation_also_holds_in_async(self):
        # Executions of SSYNC exist in ASYNC, so the ASYNC adversary also wins.
        algorithm = get("fsync_phi1_l3_chir_k2")
        witness = refute_terminating_exploration(algorithm, Grid(3, 3), model="ASYNC")
        assert witness is not None


class TestDemonstration:
    def test_demonstration_report(self):
        report = demonstrate_theorem1(3, 4)
        assert report.all_candidates_refuted
        assert report.control_survives
        text = str(report)
        assert "Theorem 1" in text and "adversary" in text

    def test_demonstration_in_the_proofs_regime(self):
        # The proof's grids have at least nine inner nodes: m, n >= 9.
        report = demonstrate_theorem1(9, 9)
        assert set(report.witnesses) == set(candidate_two_robot_algorithms())
        assert report.all_candidates_refuted
        assert report.control_survives

    def test_grid_inner_node_premise(self):
        # The proof's premise: grids with m, n >= 9 contain at least nine inner
        # nodes (so the adversary's confinement wastes only a few of them).
        assert len(Grid(9, 9).inner_nodes()) >= 9
        assert len(Grid(10, 12).inner_nodes()) >= 9
