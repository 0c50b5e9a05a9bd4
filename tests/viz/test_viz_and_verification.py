"""Tests for ASCII rendering, figure helpers and the verification campaigns."""

from __future__ import annotations

import pytest

from repro.algorithms import get
from repro.core import Configuration, Grid, run_fsync
from repro.core.errors import VerificationError
from repro.engine import verify_one
from repro.verification import grid_sweep, stress_test, verify_algorithm
from repro.viz import render_configuration, render_trace, render_world
from repro.viz.figures import FigureFrame, find_index, find_subtrace, render_figure_sequence


class TestAsciiRendering:
    def test_render_configuration_shows_colors_and_empty_cells(self):
        grid = Grid(2, 3)
        config = Configuration.from_pairs([((0, 0), ("G",)), ((0, 1), ("G", "W"))])
        text = render_configuration(grid, config)
        lines = text.splitlines()
        assert len(lines) == 2
        assert "GW" in lines[0] and "G" in lines[0]
        assert set(lines[1].split()) == {"."}

    def test_render_with_visited_markers(self):
        grid = Grid(1, 3)
        config = Configuration.from_pairs([((0, 2), ("W",))])
        text = render_configuration(grid, config, visited={(0, 0)})
        assert text.split() == ["*", ".", "W"]

    def test_render_world_and_trace(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        world = algorithm.initial_world(Grid(2, 3))
        assert "G" in render_world(world)
        result = run_fsync(algorithm, Grid(2, 3))
        rendered = render_trace(Grid(2, 3), result.trace, limit=2)
        assert "[0]" in rendered and "more configurations" in rendered


class TestFigureHelpers:
    def test_find_index_and_subtrace(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        result = run_fsync(algorithm, Grid(3, 4))
        target = result.trace[2]
        assert find_index(result.trace, lambda c: c == target) == 2
        assert find_subtrace(result.trace, [result.trace[1], result.trace[3]]) == 1
        missing = Configuration.from_pairs([((0, 0), ("B",))])
        assert find_subtrace(result.trace, [missing]) is None

    def test_render_figure_sequence(self):
        grid = Grid(2, 3)
        frames = [
            FigureFrame("Fig. X(a)", Configuration.from_pairs([((0, 0), ("G",))])),
            FigureFrame("Fig. X(b)", Configuration.from_pairs([((0, 1), ("G",))])),
        ]
        text = render_figure_sequence(grid, frames)
        assert "Fig. X(a)" in text and "Fig. X(b)" in text


class TestVerificationCampaigns:
    def test_single_verification_report(self):
        report = verify_one(get("fsync_phi2_l2_chir_k2"), 4, 5)
        assert report.ok and report.reason == "ok"

    def test_failed_verification_reports_reason(self):
        report = verify_one(get("fsync_phi2_l2_chir_k2"), 6, 7, max_steps=2)
        assert not report.ok and "terminate" in report.reason

    def test_grid_sweep_and_raise_on_failure(self):
        report = grid_sweep(get("fsync_phi1_l2_chir_k3"))
        assert report.ok
        report.raise_on_failure()  # must not raise
        assert "verification runs succeeded" in report.summary()

    def test_sweep_failure_raises(self):
        report = grid_sweep(get("fsync_phi2_l2_chir_k2"), model="SSYNC", sizes=[(4, 4)], seed=1)
        if not report.ok:
            with pytest.raises(VerificationError):
                report.raise_on_failure()

    def test_stress_test_for_async_algorithm(self):
        report = stress_test(
            get("async_phi2_l3_chir_k2"), sizes=[(3, 4)], seeds=(0, 1, 2), models=("SSYNC", "ASYNC")
        )
        assert report.ok and len(report.reports) == 6

    def test_verify_algorithm_dispatches_on_synchrony(self):
        fsync_report = verify_algorithm(get("fsync_phi2_l2_chir_k2"), sizes=[(3, 4), (4, 5)])
        async_report = verify_algorithm(get("async_phi2_l3_chir_k2"), sizes=[(3, 4)], seeds=(0, 1))
        assert fsync_report.ok and async_report.ok
        assert all(r.model == "FSYNC" for r in fsync_report.reports)
        assert {r.model for r in async_report.reports} == {"FSYNC", "SSYNC", "ASYNC"}
