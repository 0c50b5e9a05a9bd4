"""Exploration-shape table: the graphs the explorer builds on the parity suite.

``exploration_shapes.json`` records, for every ``reduction_parity_suite()``
case under every reduction spec in :data:`SPECS`, the shape of the explored
successor graph: states, edges, terminal states, the active reduction and
its statistics.  Verdict tests only see whether a check passed; this table
pins the graph itself, so a change that moves any exploration (a new
successor kernel, a faster canonicaliser, a reworked reduction) fails here
even when every verdict survives.

The file holds one row per line between the brackets, and every row ends
in a comma, so deleting rows never edits a surviving line.  The table is
data, not a golden file to refresh: regenerate it only in a change that
means to alter explorations, and say so in that change::

    PYTHONPATH=src python tests/engine/test_exploration_shapes.py \\
        > tests/engine/exploration_shapes.json
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.algorithms import get
from repro.core.grid import Grid
from repro.engine import AlgorithmTransitionSystem, explore, reduction_parity_suite

TABLE = Path(__file__).with_name("exploration_shapes.json")

#: The reductions every suite case is explored under.
SPECS = ("none", "grid")


def shape(name: str, m: int, n: int, model: str, spec: str) -> dict:
    """One table row: the shape of ``name`` on ``m x n`` under ``model``/``spec``."""
    exploration = explore(
        AlgorithmTransitionSystem(get(name), Grid(m, n), model), reduction=spec
    )
    return {
        "algorithm": name,
        "m": m,
        "n": n,
        "model": model,
        "spec": spec,
        "num_states": exploration.num_states,
        "edges": sum(len(children) for children in exploration.succ),
        "terminal_states": len(exploration.terminal_indices()),
        "reduction": exploration.reduction,
        "reduction_stats": exploration.reduction_stats,
    }


@lru_cache(maxsize=None)
def recorded() -> dict:
    """The table, keyed by ``(algorithm, m, n, model, spec)``."""
    rows = [json.loads(line.rstrip(",")) for line in TABLE.read_text().splitlines()[1:-1]]
    return {(r["algorithm"], r["m"], r["n"], r["model"], r["spec"]): r for r in rows}


def test_table_covers_the_suite_exactly():
    expected = {case + (spec,) for case in reduction_parity_suite() for spec in SPECS}
    assert set(recorded()) == expected


@pytest.mark.parametrize("name,m,n,model", reduction_parity_suite())
def test_exploration_shapes_match_the_table(name, m, n, model):
    for spec in SPECS:
        assert shape(name, m, n, model, spec) == recorded()[(name, m, n, model, spec)], spec


if __name__ == "__main__":
    rows = [shape(*case, spec) for case in reduction_parity_suite() for spec in SPECS]
    print("[\n" + "".join(json.dumps(row, sort_keys=True) + ",\n" for row in rows) + "]")
