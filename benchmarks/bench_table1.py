"""Benchmark: regenerate Table 1 (the paper's headline table).

Run with ``pytest benchmarks/bench_table1.py --benchmark-only -s`` to see
the regenerated table.  Each row benchmark times the verification of one
Table 1 row (a grid-size sweep under the row's claimed synchrony model);
``test_print_table1`` prints the full paper-versus-measured table.
"""

from __future__ import annotations

import pytest

from repro.algorithms import table1_rows
from repro.analysis import build_table1, render_table1
from repro.core import Grid, RandomAsync, run_async
from repro.verification import grid_sweep

ROWS = table1_rows()


@pytest.mark.parametrize("algorithm", ROWS, ids=[a.name for a in ROWS])
def test_table1_row_fsync_sweep(benchmark, algorithm):
    """Time the FSYNC verification sweep of one Table 1 row."""

    def run_row():
        report = grid_sweep(algorithm, model="FSYNC")
        assert report.ok
        return report

    result = benchmark.pedantic(run_row, rounds=1, iterations=1)
    assert result.ok


ASYNC_ROWS = [a for a in ROWS if a.synchrony == "ASYNC"]


@pytest.mark.parametrize("algorithm", ASYNC_ROWS, ids=[a.name for a in ASYNC_ROWS])
def test_table1_row_async_execution(benchmark, algorithm):
    """Time one full ASYNC execution of each SSYNC/ASYNC row on a 6x7 grid."""
    grid = Grid(6, max(7, algorithm.min_n))

    def run_async_row():
        result = run_async(algorithm, grid, scheduler=RandomAsync(seed=1))
        assert result.is_terminating_exploration
        return result

    benchmark.pedantic(run_async_row, rounds=1, iterations=1)


def test_print_table1(capsys):
    """Regenerate and print the full Table 1 (paper vs. this repository)."""
    rows = build_table1(quick=True)
    table = render_table1(rows)
    with capsys.disabled():
        print("\n=== Table 1 — terminating grid exploration with myopic robots ===")
        print(table)
    reproduced = [row for row in rows if row.algorithm is not None]
    assert len(reproduced) >= 13
    assert all(row.matches_paper for row in reproduced)
