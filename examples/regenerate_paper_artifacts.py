#!/usr/bin/env python3
"""Regenerate the paper's Table 1 and a figure gallery in one go.

Produces, on stdout:

1. the regenerated Table 1 (paper bounds vs. this repository's verified
   algorithms), and
2. an ASCII gallery of the border-pivot figure for each algorithm.

Usage::

    python examples/regenerate_paper_artifacts.py
"""

from __future__ import annotations

from repro.algorithms import table1_rows
from repro.analysis import build_table1, render_table1
from repro.core import Grid, SequentialAsync, run_async, run_fsync
from repro.viz.figures import FigureFrame, render_figure_sequence


def figure_gallery() -> None:
    print("\n=== Figure gallery: first border pivot of every algorithm ===")
    for algorithm in table1_rows():
        grid = Grid(max(4, algorithm.min_m), max(5, algorithm.min_n))
        if algorithm.synchrony == "FSYNC":
            result = run_fsync(algorithm, grid, tie_break="first")
        else:
            result = run_async(algorithm, grid, scheduler=SequentialAsync(), tie_break="first")
        start = next(
            (i for i, c in enumerate(result.trace) if any(node[1] == grid.n - 1 for node, _ in c)),
            0,
        )
        frames = [
            FigureFrame(f"step {index}", result.trace[index])
            for index in range(start, min(start + 5, len(result.trace)))
        ]
        print(f"\n--- {algorithm.summary()} (paper Section {algorithm.paper_section}) ---")
        print(render_figure_sequence(grid, frames))
        print(result.summary())


def main() -> int:
    print("=== Table 1: paper bounds vs. reproduced algorithms ===")
    rows = build_table1(quick=True)
    print(render_table1(rows))
    figure_gallery()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
