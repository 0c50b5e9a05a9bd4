"""The own-model suite's graphs, pinned: perfbench's ``suite`` workload at full size.

Every registered algorithm is explored in its own synchrony model over
``default_grid_suite(max_side=12)`` under the grid quotient: 130 checks.
The totals below are the counts perfbench's ``expected.json`` and its
traced ``suite`` report carry.  Benchmark tests run only the tiny size, so
without this test a change that moves these graphs would first show in a
full-size benchmark run.  Each verdict is read off the graph as the
checker reads it: no cycle, and the root guarantees every node.
"""

from __future__ import annotations

from repro.algorithms import registry
from repro.core import Grid
from repro.engine import SerialBackend, default_grid_suite
from repro.engine.explorer import explore_sharded, guaranteed_nodes, has_cycle, root_guarantee


def test_own_model_suite_graphs_are_pinned():
    backend = SerialBackend()
    checks = states = edges = collapses = 0
    failures = []
    for name, algorithm in sorted(registry.all_algorithms().items()):
        for m, n in default_grid_suite(algorithm, max_side=12):
            grid = Grid(m, n)
            exploration = explore_sharded(
                algorithm, grid, algorithm.synchrony, reduction="grid", backend=backend
            )
            checks += 1
            states += exploration.num_states
            edges += sum(len(children) for children in exploration.succ)
            collapses += exploration.reduction_stats["grid"]["orbit_collapses"]
            ok = not has_cycle(exploration) and root_guarantee(
                exploration, guaranteed_nodes(exploration)
            ) == set(grid.nodes())
            if not ok:
                failures.append((name, m, n))
    assert failures == []
    assert (checks, states, edges, collapses) == (130, 18_416, 19_153, 579)
