"""Differential fuzz: the grid quotient against the unreduced explorer.

The parity suite only runs the registry's thirteen hand-designed
algorithms.  Random rule tables fail in many more ways: they loop
forever, stall with nodes unvisited, stack robots and move them in
lockstep, or move them off the grid.  Each seed below draws one table
and checks it unreduced and under ``reduction="grid"`` on 2x3 (FSYNC,
SSYNC, ASYNC) and 3x3 (FSYNC, SSYNC); the quotient must reproduce the
termination verdict, the coverage verdict and the counterexample text
(which names unvisited nodes in the raw initial state's coordinates, so
it also checks the root witness).

The generator is bounded, not the seed list: a table whose unreduced
exploration of any case exceeds :data:`STATE_CAP` states is redrawn from
the same seeded stream, so every seed still yields a table and the whole
set stays fast.

Many tables move a robot off the grid.  The exhaustive check then fails
closed with :class:`IllegalMoveError`, as the walk does, so a case's
unreduced outcome is either a verdict or that error, and every other
route must reproduce it.  Under ``grid`` the error names coordinates in
the representative's frame, so only its type is compared.

The same tables also run as one campaign on a two-worker pool through a
verdict store: algorithms travel to the workers by value, and every
report, fresh or stored, must carry the serial unreduced outcome.

The walk (:mod:`repro.engine.walk`, over a ``World``) and the
kernel (:mod:`repro.engine.transition`, over records) implement the
Look-Compute-Move semantics separately.  Seeded random walks on every
table must stay within the check's verdict, which keeps the two equal on
tables that fail in all the ways above.

The coverage analysis runs on integer node bitmasks.  On every table
and case, unreduced and under the quotient, each state's mask must decode
to the guarantee the frozenset fixpoint it replaced computes
(:func:`reference_guarantees`, kept here as the reference), cyclic
components included; so must the suite's largest case.

Last, the Theorem 1 refuter reads its answer off the quotient's coverage
analysis, cycles included.  On every table and case it must name the
node, and the kind of execution that avoids it, that a brute-force
search of the unreduced graph finds.
"""

from __future__ import annotations

import dataclasses
import random
from collections import defaultdict
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

import pytest

from repro.algorithms import get
from repro.checking import CheckResult, check_terminating_exploration
from repro.core import Algorithm, Grid
from repro.core.errors import IllegalMoveError, StateSpaceLimitExceeded
from repro.core.grid import Node
from repro.core.rules import EMPTY, FREE, WALL, Guard, Rule, occ
from repro.core.views import ball_offsets
from repro.engine import CampaignTask, ParallelCampaignEngine, PoolBackend, VerdictStore, run
from repro.engine.explorer import Exploration, explore_sharded, guaranteed_nodes, has_cycle, mask_nodes
from repro.engine.states import initial_state
from repro.engine.store import HIT, MISS
from repro.impossibility import refute_terminating_exploration

SEEDS = range(200)
CASES = ((2, 3, "FSYNC"), (2, 3, "SSYNC"), (2, 3, "ASYNC"), (3, 3, "FSYNC"), (3, 3, "SSYNC"))
PALETTE = ("G", "W", "B")
MOVES = (None, "N", "S", "E", "W")
#: Largest unreduced exploration a drawn table may need on any case.
STATE_CAP = 1500
#: Draws per seed before the generator gives up (none needs more than a few).
MAX_DRAWS = 20

Case = Tuple[int, int, str]
#: A check's verdict, or the error it raised because a robot left the grid.
Outcome = Union[CheckResult, IllegalMoveError]
#: The grids of :data:`CASES`.
GRIDS = sorted({(m, n) for m, n, _ in CASES})
#: Random-walk seeds per table and case in the walk-vs-kernel test.
WALK_SEEDS = range(3)


def random_cell(rng: random.Random, colors):
    """One guard cell: empty, off-grid, either, or an exact light multiset."""
    kind = rng.randrange(4)
    if kind == 3:
        return occ(*rng.choices(colors, k=rng.randint(1, 2)))
    return (EMPTY, WALL, FREE)[kind]


def random_table(rng: random.Random, name: str) -> Dict[Tuple[int, int], Algorithm]:
    """One random rule table, as an :class:`Algorithm` per grid of :data:`GRIDS`.

    phi 1-2, 1-3 colors, either chirality, k 2-3, 1-5 rules.  Each rule
    constrains 0-3 random cells of the visibility ball (the rest keep the
    guard default: no robot there) and picks a random new color and move.
    The initial placement puts the ``k`` robots on distinct random nodes
    with random colors, seeded per grid; each grid's :class:`Algorithm`
    has the same rules and that grid's placement.
    """
    phi = rng.choice((1, 2))
    colors = PALETTE[: rng.randint(1, 3)]
    chirality = rng.random() < 0.5
    k = rng.choice((2, 3))
    offsets = [offset for offset in ball_offsets(phi) if offset != (0, 0)]
    rules = []
    for index in range(rng.randint(1, 5)):
        cells = {offset: random_cell(rng, colors) for offset in rng.sample(offsets, rng.randint(0, 3))}
        rules.append(
            Rule(
                f"R{index}",
                rng.choice(colors),
                Guard.from_mapping(phi, cells),
                rng.choice(colors),
                rng.choice(MOVES),
            )
        )
    placement_seed = rng.getrandbits(32)

    def placement(m: int, n: int):
        place = random.Random(placement_seed * 1000 + m * 10 + n)
        nodes = place.sample([(i, j) for i in range(m) for j in range(n)], k)
        return tuple((node, place.choice(colors)) for node in nodes)

    base = Algorithm(
        name=name,
        synchrony="ASYNC",
        phi=phi,
        colors=colors,
        chirality=chirality,
        k=k,
        rules=tuple(rules),
        initial_placement=placement(*GRIDS[0]),
        min_m=2,
        min_n=3,
    )
    return {grid: dataclasses.replace(base, initial_placement=placement(*grid)) for grid in GRIDS}


def outcome(algorithm: Algorithm, m: int, n: int, model: str, **kwargs) -> Outcome:
    """The check's verdict, or the :class:`IllegalMoveError` it raises."""
    try:
        return check_terminating_exploration(algorithm, Grid(m, n), model=model, **kwargs)
    except IllegalMoveError as error:
        return error


@lru_cache(maxsize=None)
def bounded_table(seed: int) -> Tuple[Dict[Tuple[int, int], Algorithm], Dict[Case, Outcome]]:
    """The first table of ``seed``'s stream within :data:`STATE_CAP`, with its unreduced outcomes."""
    rng = random.Random(seed)
    for _ in range(MAX_DRAWS):
        tables = random_table(rng, f"fuzz_{seed}")
        try:
            plain = {
                (m, n, model): outcome(tables[m, n], m, n, model, max_states=STATE_CAP, reduction="none")
                for m, n, model in CASES
            }
        except StateSpaceLimitExceeded:
            continue
        return tables, plain
    raise AssertionError(f"seed {seed}: no table within {STATE_CAP} states in {MAX_DRAWS} draws")


@pytest.mark.parametrize("seed", SEEDS)
def test_grid_quotient_matches_unreduced_on_random_tables(seed):
    tables, plain = bounded_table(seed)
    for (m, n, model), unreduced in plain.items():
        quotient = outcome(tables[m, n], m, n, model, reduction="grid")
        case = f"{m}x{n} {model}"
        if isinstance(unreduced, IllegalMoveError):
            assert isinstance(quotient, IllegalMoveError), case
            continue
        assert quotient.terminates == unreduced.terminates, case
        assert quotient.explores == unreduced.explores, case
        assert quotient.counterexample == unreduced.counterexample, case
        assert quotient.states_explored <= unreduced.states_explored, case


def test_pool_and_store_reproduce_the_serial_unreduced_checks(tmp_path):
    """Every seed, case and reduction as one campaign on two pool workers, through a store."""
    tasks, expected = [], []
    for seed in SEEDS:
        tables, plain = bounded_table(seed)
        for (m, n, model), unreduced in plain.items():
            for reduction in ("none", "grid"):
                tasks.append(
                    CampaignTask(
                        tables[m, n], m, n, model, kind="check", reduction=reduction, max_states=STATE_CAP
                    )
                )
                expected.append(unreduced)
    with PoolBackend(workers=2) as backend, VerdictStore(tmp_path / "store") as store:
        engine = ParallelCampaignEngine(backend=backend, store=store)
        reports = engine.run_tasks(tasks)
        assert backend.started
        rerun = engine.run_tasks(tasks)
    for task, report, unreduced in zip(tasks, reports, expected):
        case = f"{task.algorithm.name} {task.m}x{task.n} {task.model} {task.reduction}"
        assert report.store_stats["outcome"] == MISS, case
        if isinstance(unreduced, IllegalMoveError):
            assert not report.ok and report.reason.startswith("IllegalMoveError: "), case
            if task.reduction == "none":
                assert report.reason == f"IllegalMoveError: {unreduced}", case
            continue
        assert report.ok == unreduced.ok, case
        assert report.reason == (unreduced.counterexample or "ok"), case
        if task.reduction == "none":
            assert report.steps == unreduced.states_explored, case
    assert [report.store_stats["outcome"] for report in rerun] == [HIT] * len(tasks)
    assert rerun == reports


@pytest.mark.parametrize("seed", SEEDS)
def test_random_walks_stay_within_the_checked_verdict(seed):
    """The walk and the kernel agree on every table and case.

    A walk follows one path of the graph the check explores.  So a walk
    that leaves the grid means the check fails closed too, a passing
    check means the walk is a terminating exploration, and a walk that
    runs :data:`STATE_CAP` steps passes through more states than the
    check reached, so it repeated one and the check reports a cycle.
    """
    tables, plain = bounded_table(seed)
    for (m, n, model), unreduced in plain.items():
        if isinstance(unreduced, IllegalMoveError):
            continue  # the check failed closed, whatever a walk does
        for walk_seed in WALK_SEEDS:
            case = f"{m}x{n} {model} walk seed {walk_seed}"
            try:
                walk = run(
                    tables[m, n], Grid(m, n), model,
                    tie_break="random", seed=walk_seed, max_steps=STATE_CAP,
                )
            except IllegalMoveError as error:
                pytest.fail(f"{case}: the walk raised {error!r}, the check did not")
            if unreduced.ok:
                assert walk.is_terminating_exploration, case
            if walk.termination_reason == "max_steps":
                assert not unreduced.terminates, case


def reference_guarantees(exploration: Exploration) -> List[FrozenSet[Node]]:
    """The coverage fixpoint on frozensets of nodes: the reference for the bitmask pass.

    A terminal state guarantees its occupied nodes, any other state those
    plus the intersection of its successors' guarantees, each mapped
    through its edge witness node by node.  Components are solved
    successors first; a cyclic one takes the least solution by a worklist
    seeded with the occupied nodes.
    """
    states, succ, edge_syms = exploration.states, exploration.succ, exploration.edge_syms
    result: List[FrozenSet[Node]] = [frozenset()] * len(states)

    def solve(current: int) -> FrozenSet[Node]:
        occupied = frozenset(states[current].occupied_nodes())
        children = succ[current]
        if not children:
            return occupied
        common: Optional[FrozenSet[Node]] = None
        for child, h in zip(children, edge_syms[current]):
            guarantee = result[child]
            if h is not None:
                guarantee = frozenset(h.node(node) for node in guarantee)
            common = guarantee if common is None else common & guarantee
        return occupied | common

    for component in exploration.components:
        if len(component) == 1 and component[0] not in succ[component[0]]:
            result[component[0]] = solve(component[0])
            continue
        parents: Dict[int, List[int]] = {current: [] for current in component}
        for current in component:
            result[current] = frozenset(states[current].occupied_nodes())
            for child in succ[current]:
                if child in parents:
                    parents[child].append(current)
        pending = set(component)
        while pending:
            current = pending.pop()
            guarantee = solve(current)
            if guarantee != result[current]:
                result[current] = guarantee
                pending.update(parents[current])
    return result


def coverage_matches_the_reference(algorithm: Algorithm, grid: Grid, model: str, reduction: str) -> bool:
    """Assert every state's decoded mask equals the reference; return whether the graph is cyclic."""
    exploration = explore_sharded(algorithm, grid, model, reduction=reduction)
    expected = reference_guarantees(exploration)
    decoded = [mask_nodes(mask, grid) for mask in guaranteed_nodes(exploration)]
    assert decoded == expected, f"{algorithm.name} {grid.m}x{grid.n} {model} {reduction}"
    return has_cycle(exploration)


@pytest.mark.parametrize("seed", SEEDS)
def test_integer_coverage_decodes_to_the_frozenset_fixpoint(seed):
    tables, plain = bounded_table(seed)
    for (m, n, model), unreduced in plain.items():
        if isinstance(unreduced, IllegalMoveError):
            continue
        for reduction in ("none", "grid"):
            cyclic = coverage_matches_the_reference(tables[m, n], Grid(m, n), model, reduction)
            assert cyclic == (not unreduced.terminates)


def test_the_fuzz_tables_exercise_cyclic_components():
    """The coverage comparison above reaches the least-fixpoint branch."""
    outcomes = [
        outcome
        for seed in SEEDS
        for outcome in bounded_table(seed)[1].values()
        if not isinstance(outcome, IllegalMoveError)
    ]
    cyclic = sum(not outcome.terminates for outcome in outcomes)
    assert 0 < cyclic < len(outcomes)


@pytest.mark.parametrize("reduction", ["none", "grid"])
def test_integer_coverage_on_the_largest_suite_case(reduction):
    cyclic = coverage_matches_the_reference(get("async_phi2_l2_nochir_k4"), Grid(12, 11), "ASYNC", reduction)
    assert not cyclic


def avoiding_execution(graph, root, node) -> Optional[str]:
    """How an execution that never occupies ``node`` can end, by brute force.

    ``"terminal"`` when one reaches a state without successors, else
    ``"cycle"`` when one can run forever, else ``None``.  ``graph`` is
    the unreduced state-keyed successor graph.
    """
    if node in root.occupied_nodes():
        return None
    reached, pending = {root}, [root]
    while pending:
        for child in graph[pending.pop()]:
            if child not in reached and node not in child.occupied_nodes():
                reached.add(child)
                pending.append(child)
    if any(not graph[state] for state in reached):
        return "terminal"
    # Kahn's peeling: a state left over has a successor left over, so
    # the states left over contain a cycle.
    waiting = {state: 0 for state in reached}
    parents = defaultdict(list)
    for state in reached:
        for child in graph[state]:
            if child in reached:
                waiting[state] += 1
                parents[child].append(state)
    ready = [state for state, count in waiting.items() if not count]
    peeled = 0
    while ready:
        peeled += 1
        for parent in parents[ready.pop()]:
            waiting[parent] -= 1
            if not waiting[parent]:
                ready.append(parent)
    return "cycle" if peeled < len(reached) else None


@pytest.mark.parametrize("seed", SEEDS)
def test_refuter_matches_a_brute_force_on_the_unreduced_graph(seed):
    """The refuter's witness is the first avoidable node, centre outward."""
    tables, plain = bounded_table(seed)
    for (m, n, model), unreduced in plain.items():
        algorithm, grid = tables[m, n], Grid(m, n)
        case = f"{m}x{n} {model}"
        if isinstance(unreduced, IllegalMoveError):
            with pytest.raises(IllegalMoveError):
                refute_terminating_exploration(algorithm, grid, model=model)
            continue
        exploration = explore_sharded(algorithm, grid, model, max_states=STATE_CAP, reduction="none")
        states = exploration.states
        graph = {states[i]: [states[j] for j in children] for i, children in enumerate(exploration.succ)}
        root = initial_state(algorithm, grid)
        centre = ((m - 1) / 2, (n - 1) / 2)
        expected = None
        for node in sorted(grid.nodes(), key=lambda v: abs(v[0] - centre[0]) + abs(v[1] - centre[1])):
            kind = avoiding_execution(graph, root, node)
            if kind is not None:
                expected = (node, kind)
                break
        witness = refute_terminating_exploration(algorithm, grid, model=model)
        assert (witness and (witness.node, witness.kind)) == expected, case
