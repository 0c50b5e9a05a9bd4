"""Tests for the algorithm registry and the Table 1 metadata of every algorithm."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.algorithms import all_algorithms, find, get, names, table1_rows
from repro.algorithms.derive import replace_color_with_pair
from repro.core import B, G, W
from repro.core.errors import AlgorithmError

#: (name, synchrony, phi, ell, chirality, k, optimal, paper section)
EXPECTED_SPECS = [
    ("fsync_phi2_l2_chir_k2", "FSYNC", 2, 2, True, 2, True, "4.2.1"),
    ("fsync_phi2_l2_nochir_k3", "FSYNC", 2, 2, False, 3, False, "4.2.2"),
    ("fsync_phi2_l1_chir_k3", "FSYNC", 2, 1, True, 3, True, "4.2.3"),
    ("fsync_phi2_l1_nochir_k4", "FSYNC", 2, 1, False, 4, False, "4.2.4"),
    ("fsync_phi1_l3_chir_k2", "FSYNC", 1, 3, True, 2, True, "4.2.5"),
    ("fsync_phi1_l3_nochir_k4", "FSYNC", 1, 3, False, 4, False, "4.2.6"),
    ("fsync_phi1_l2_chir_k3", "FSYNC", 1, 2, True, 3, True, "4.2.7"),
    ("fsync_phi1_l2_nochir_k5", "FSYNC", 1, 2, False, 5, False, "4.2.8"),
    ("async_phi2_l3_chir_k2", "ASYNC", 2, 3, True, 2, True, "4.3.1"),
    ("async_phi2_l3_nochir_k3", "ASYNC", 2, 3, False, 3, False, "4.3.2"),
    ("async_phi2_l2_chir_k3", "ASYNC", 2, 2, True, 3, False, "4.3.3"),
    ("async_phi2_l2_nochir_k4", "ASYNC", 2, 2, False, 4, False, "4.3.4"),
    ("async_phi1_l3_chir_k3", "ASYNC", 1, 3, True, 3, True, "4.3.5"),
]


class TestRegistry:
    def test_names_sorted_and_unique(self):
        listed = names()
        assert listed == sorted(listed)
        assert len(listed) == len(set(listed))

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            get("does_not_exist")

    def test_find_by_table1_coordinates(self):
        algorithm = find("FSYNC", 2, 2, True)
        assert algorithm.name == "fsync_phi2_l2_chir_k2"

    def test_find_unknown_raises(self):
        with pytest.raises(KeyError):
            find("FSYNC", 1, 1, True)

    def test_table1_rows_are_unique_rows(self):
        rows = table1_rows()
        keys = {(a.synchrony, a.phi, a.ell, a.chirality) for a in rows}
        assert len(keys) == len(rows)

    def test_at_least_thirteen_rows_registered(self):
        assert len(table1_rows()) >= 13


class TestAlgorithmsAreData:
    """Registry algorithms are plain data: they pickle and carry a content digest."""

    @pytest.mark.parametrize("name", [spec[0] for spec in EXPECTED_SPECS])
    def test_pickle_round_trips_without_derived_tables(self, name):
        algorithm = get(name)
        for color in algorithm.colors:
            algorithm.compiled_rules(color)  # build the derived tables first
        data = pickle.dumps(algorithm)
        assert b"GuardChecks" not in data and b"_compiled_rules" not in data
        clone = pickle.loads(data)
        assert clone == algorithm and clone is not algorithm
        assert clone.digest == algorithm.digest
        assert "_compiled_rules" not in vars(clone)

    def test_digests_do_not_depend_on_the_hash_seed(self):
        src = str(Path(__file__).resolve().parents[2] / "src")
        probe = (
            "from repro.algorithms import all_algorithms;"
            " print(sorted((name, a.digest) for name, a in all_algorithms().items()))"
        )
        printed = {
            subprocess.run(
                [sys.executable, "-c", probe],
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("0", "1", "4242")
        }
        here = sorted((name, a.digest) for name, a in all_algorithms().items())
        assert printed == {f"{here}\n"}
        assert len({digest for _, digest in here}) == len(here)

    def test_one_digest_is_pinned(self):
        # Verdict-store keys carry this digest: it may only move with the
        # algorithm's rules, placement or parameters.
        assert get("fsync_phi2_l2_chir_k2").digest == (
            "37b8af3e62f92ebb7210383f840bd22bf6e076eb1b67ff9421c2e87554b090f9"
        )


@pytest.mark.parametrize("name,synchrony,phi,ell,chirality,k,optimal,section", EXPECTED_SPECS)
class TestTable1Metadata:
    def test_spec_matches_paper(self, name, synchrony, phi, ell, chirality, k, optimal, section):
        algorithm = get(name)
        assert algorithm.synchrony == synchrony
        assert algorithm.phi == phi
        assert algorithm.ell == ell
        assert algorithm.chirality == chirality
        assert algorithm.k == k
        assert algorithm.optimal == optimal
        assert algorithm.paper_section == section

    def test_initial_placement_matches_k(self, name, synchrony, phi, ell, chirality, k, optimal, section):
        algorithm = get(name)
        placement = algorithm.placement(max(algorithm.min_m, 3), max(algorithm.min_n, 4))
        assert len(placement) == k
        assert all(color in algorithm.colors for _node, color in placement)

    def test_rules_use_declared_visibility(self, name, synchrony, phi, ell, chirality, k, optimal, section):
        algorithm = get(name)
        assert all(rule.phi == phi for rule in algorithm.rules)

    def test_color_count_is_ell(self, name, synchrony, phi, ell, chirality, k, optimal, section):
        algorithm = get(name)
        assert len(algorithm.colors) == ell


class TestDerivation:
    def test_pair_construction_doubles_the_removed_robot(self):
        source = get("fsync_phi2_l2_chir_k2")
        derived = get("fsync_phi2_l1_chir_k3")
        assert derived.k == source.k + 1
        assert derived.colors == (G,)
        census = {}
        for _node, color in derived.placement(3, 4):
            census[color] = census.get(color, 0) + 1
        assert census == {G: 3}

    def test_pair_construction_rewrites_guards(self):
        derived = get("fsync_phi2_l1_chir_k3")
        # Rule R1 was executed by the W robot: its derived version is executed
        # by a G robot stacked with another G.
        rule = derived.rule_named("R1")
        assert rule.self_color == G
        assert rule.center_spec().colors == (G, G)

    def test_pair_construction_rejects_color_changing_algorithms(self):
        source = get("fsync_phi1_l3_chir_k2")  # recolors W robots
        with pytest.raises(AlgorithmError):
            replace_color_with_pair(source, removed=W, replacement=G, name="x", paper_section="-")

    def test_pair_construction_rejects_unknown_colors(self):
        source = get("fsync_phi2_l2_chir_k2")
        with pytest.raises(AlgorithmError):
            replace_color_with_pair(source, removed=B, replacement=G, name="x", paper_section="-")
