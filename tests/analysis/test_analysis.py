"""Tests for the analysis subpackage (Table 1, route, metrics, scaling)."""

from __future__ import annotations

import pytest

from repro.algorithms import get
from repro.analysis import (
    build_table1,
    collect_metrics,
    follows_boustrophedon_route,
    render_table1,
    round_complexity_sweep,
    route_deviation,
)
from repro.analysis.scaling import fit_linear_in_nodes
from repro.analysis.table1 import PAPER_TABLE1
from repro.core import Algorithm, G, Grid, Synchrony, run_fsync
from repro.core.errors import IllegalMoveError
from repro.core.rules import Guard, Rule


class TestMetrics:
    def test_collect_metrics_basic(self):
        result = run_fsync(get("fsync_phi2_l2_chir_k2"), Grid(4, 5))
        metrics = collect_metrics(result)
        assert metrics.coverage == 1.0
        assert metrics.terminated
        assert metrics.moves > 0
        assert 0 < metrics.moves_per_node < 5

    def test_metrics_as_dict(self):
        result = run_fsync(get("fsync_phi1_l2_chir_k3"), Grid(3, 4))
        record = collect_metrics(result).as_dict()
        assert record["algorithm"] == "fsync_phi1_l2_chir_k3"
        assert record["m"] == 3 and record["n"] == 4


class TestRoute:
    @pytest.mark.parametrize(
        "name",
        [
            "fsync_phi2_l2_chir_k2",
            "fsync_phi1_l3_chir_k2",
            "fsync_phi1_l2_chir_k3",
            "async_phi2_l3_chir_k2",
            "async_phi1_l3_chir_k3",
        ],
    )
    def test_algorithms_follow_the_figure3_route(self, name):
        algorithm = get(name)
        result = run_fsync(algorithm, Grid(6, max(5, algorithm.min_n)), tie_break="first")
        assert follows_boustrophedon_route(result)

    def test_two_row_band_deviations_detected(self):
        # The deviation detector must flag a first-visit order that jumps two
        # rows ahead while earlier rows are incomplete.
        result = run_fsync(get("fsync_phi2_l2_chir_k2"), Grid(5, 5), tie_break="first")
        assert route_deviation(result, band=1) != [] or route_deviation(result, band=2) == []
        assert route_deviation(result, band=2) == []

    def test_incomplete_execution_does_not_follow_route(self):
        result = run_fsync(get("fsync_phi2_l2_chir_k2"), Grid(6, 6), max_steps=3)
        assert not follows_boustrophedon_route(result)


class TestScaling:
    def test_sweep_produces_points_and_linear_fit(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        points = round_complexity_sweep(algorithm, sizes=[(4, 5), (6, 7), (8, 9)])
        assert len(points) == 3
        slope = fit_linear_in_nodes(points, field="moves")
        assert 1.0 < slope < 4.0  # Theta(m*n) total moves with a small constant

    def test_sweep_skips_unsupported_sizes(self):
        algorithm = get("fsync_phi2_l2_nochir_k3")  # requires n >= 4 in this encoding
        points = round_complexity_sweep(algorithm, sizes=[(3, 3), (4, 5)])
        assert [(p.m, p.n) for p in points] == [(4, 5)]

    def test_a_walk_that_leaves_the_grid_raises_its_own_error(self):
        # One robot whose only rule steps it forward from anywhere.
        runaway = Algorithm(
            name="runaway",
            synchrony=Synchrony.FSYNC,
            phi=1,
            colors=(G,),
            chirality=True,
            k=1,
            rules=(Rule("east", G, Guard.build(1), G, "E"),),
            initial_placement=(((0, 0), G),),
        )
        with pytest.raises(IllegalMoveError, match="outside the 2x3 grid"):
            round_complexity_sweep(runaway, sizes=[(2, 3)])


class TestTable1:
    def test_paper_table_has_fourteen_rows(self):
        assert len(PAPER_TABLE1) == 14

    def test_build_table1_quick(self):
        rows = build_table1(quick=True)
        assert len(rows) == 14
        reproduced = [row for row in rows if row.algorithm is not None]
        assert len(reproduced) >= 13
        for row in reproduced:
            assert row.measured_k == row.paper_upper
            assert row.verified, f"row {row.synchrony} phi={row.phi} ell={row.ell} failed verification"
            assert row.measured_k >= row.lower_bound
            if row.model_checked is not None:
                assert row.model_checked

    def test_render_table1(self):
        rows = build_table1(quick=True)
        text = render_table1(rows)
        assert "Synchrony" in text
        assert "FSYNC" in text and "ASYNC" in text
        assert text.count("\n") >= 14
