"""The table-driven canonicaliser against the matrix-applying one it replaced.

``ORACLE`` below is the previous :func:`repro.engine.symmetry.canonicalize`
kept as it was: for every group element it builds the fully transformed
state, applying the D4 matrix to every position, snapshot cell and pending
move, and compares whole :meth:`SchedulerState.sort_key` values.  Its
``GridSymmetry.node``/``offset``/``is_identity`` calls are spelled out from
the symmetry's defining fields, so the oracle shares no table with the code
under test.  The table-driven version must return the same representative
and the same witness ``h`` on:

* every raw successor the quotient exploration reaches in each of the 45
  parity-suite cases;
* targeted states: tied stacked robots under ASYNC, a robot off the grid,
  a square grid with all eight elements, and a state that a non-identity
  element fixes (the identity must keep the tie);
* seeded random states with stacked robots, off-grid positions, stored
  snapshots and pending moves.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterable, Optional, Tuple

import pytest

from repro.algorithms import get
from repro.core import Grid
from repro.core.views import ball_offsets
from repro.engine import (
    AlgorithmTransitionSystem,
    canonicalize,
    grid_symmetries,
    reduction_parity_suite,
)
from repro.engine.states import AsyncRobotState, SchedulerState, freeze_snapshot
from repro.engine.symmetry import GridSymmetry


# ---------------------------------------------------------------------------
# The oracle: the previous canonicaliser, matrices applied on every call
# ---------------------------------------------------------------------------
def _node(gs: GridSymmetry, node):
    i, j = gs.symmetry.apply(node)
    return (i + gs._ti, j + gs._tj)


def _is_identity(gs: GridSymmetry) -> bool:
    return gs.symmetry.matrix() == ((1, 0), (0, 1))


def oracle_transform_state(state: SchedulerState, gs: GridSymmetry) -> SchedulerState:
    records = []
    for record in state.robots:
        snapshot = record.snapshot
        if snapshot is not None:
            snapshot = tuple(sorted((gs.symmetry.apply(offset), content) for offset, content in snapshot))
        pending_move = record.pending_move
        if pending_move is not None:
            pending_move = gs.symmetry.apply(pending_move)
        records.append(
            AsyncRobotState(
                pos=_node(gs, record.pos),
                color=record.color,
                phase=record.phase,
                snapshot=snapshot,
                pending_color=record.pending_color,
                pending_move=pending_move,
            )
        )
    return SchedulerState.from_records(records)


def ORACLE(
    state: SchedulerState, symmetries: Iterable[GridSymmetry]
) -> Tuple[SchedulerState, Optional[GridSymmetry]]:
    best = state
    best_key = state.sort_key()
    best_sym: Optional[GridSymmetry] = None
    for gs in symmetries:
        if _is_identity(gs):
            continue
        candidate = oracle_transform_state(state, gs)
        key = candidate.sort_key()
        if key < best_key:
            best = candidate
            best_key = key
            best_sym = gs
    if best_sym is None:
        return best, None
    return best, best_sym.inverse()


def assert_same(state: SchedulerState, symmetries) -> Tuple[SchedulerState, Optional[GridSymmetry]]:
    rep, h = canonicalize(state, symmetries)
    expected_rep, expected_h = ORACLE(state, symmetries)
    assert rep.robots == expected_rep.robots
    assert h == expected_h
    if h is None:
        assert rep is state
    return rep, h


# ---------------------------------------------------------------------------
# Every successor of the 45 parity-suite cases
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name,m,n,model", reduction_parity_suite())
def test_every_parity_suite_successor_canonicalises_as_before(name, m, n, model):
    algorithm = get(name)
    grid = Grid(m, n)
    ts = AlgorithmTransitionSystem(algorithm, grid, model)
    symmetries = grid_symmetries(grid, algorithm.chirality)
    root, _ = assert_same(ts.initial(), symmetries)
    seen = {root}
    frontier = deque([root])
    while frontier:
        for raw in ts.successors(frontier.popleft()):
            rep, _ = assert_same(raw, symmetries)
            if rep not in seen:
                seen.add(rep)
                frontier.append(rep)


# ---------------------------------------------------------------------------
# Targeted states
# ---------------------------------------------------------------------------
def _snapshot(grid: Grid, pos, phi: int, occupied=None):
    """A frozen snapshot taken at ``pos``: walls off the grid, ``occupied`` cells filled."""
    occupied = occupied or {}
    cells = {}
    for di, dj in ball_offsets(phi):
        node = (pos[0] + di, pos[1] + dj)
        cells[(di, dj)] = occupied.get((di, dj), ()) if grid.contains(node) else None
    return freeze_snapshot(cells)


def test_tied_stacked_robots_hold_different_snapshots():
    # Two looked robots share (pos, color, phase) but saw different
    # neighbourhoods, so their order inside the mapped key depends on the
    # snapshots: the tail fields decide the representative.
    grid = Grid(3, 3)
    pos = (1, 1)
    records = [
        AsyncRobotState(pos, "G", "looked", _snapshot(grid, pos, 1, {(0, 0): ("G", "G"), (0, 1): ("W",)})),
        AsyncRobotState(pos, "G", "looked", _snapshot(grid, pos, 1, {(0, 0): ("G", "G"), (1, 0): ("W",)})),
        AsyncRobotState((0, 1), "W", "idle"),
        AsyncRobotState((1, 0), "W", "idle"),
    ]
    state = SchedulerState.from_records(records)
    for chirality in (True, False):
        symmetries = grid_symmetries(grid, chirality)
        assert_same(state, symmetries)
        # Every orbit member canonicalises as before, too.
        for gs in symmetries:
            assert_same(oracle_transform_state(state, gs), symmetries)


def test_tied_computed_robots_differ_only_in_pending_move():
    grid = Grid(4, 4)
    records = [
        AsyncRobotState((1, 2), "G", "computed", None, "G", (0, 1)),
        AsyncRobotState((1, 2), "G", "computed", None, "G", (1, 0)),
        AsyncRobotState((2, 1), "G", "computed", None, "G", (-1, 0)),
        AsyncRobotState((2, 2), "W", "idle"),
    ]
    state = SchedulerState.from_records(records)
    for gs in grid_symmetries(grid, chirality=False):
        assert_same(oracle_transform_state(state, gs), grid_symmetries(grid, chirality=False))


def test_robot_off_the_grid():
    # Random rule tables walk robots off the grid (the fuzz reaches (2, 3)
    # on 3x3 and (-1, 0) elsewhere); the tables map such positions too.
    grid = Grid(3, 3)
    for off in ((-1, 0), (2, 3), (-2, -1), (5, 1)):
        state = SchedulerState.from_records(
            [AsyncRobotState(off, "W"), AsyncRobotState((1, 1), "G"), AsyncRobotState((0, 2), "G")]
        )
        for chirality in (True, False):
            symmetries = grid_symmetries(grid, chirality)
            for gs in symmetries:
                assert_same(oracle_transform_state(state, gs), symmetries)


def test_square_grid_uses_all_eight_elements():
    grid = Grid(4, 4)
    symmetries = grid_symmetries(grid, chirality=False)
    assert len(symmetries) == 8
    state = SchedulerState.from_records(
        [AsyncRobotState((0, 1), "G"), AsyncRobotState((2, 3), "W"), AsyncRobotState((3, 3), "G")]
    )
    witnesses = set()
    for gs in symmetries:
        rep, h = assert_same(oracle_transform_state(state, gs), symmetries)
        witnesses.add(h)
    assert len(witnesses) == 8  # no symmetry fixes this state, so each member needs its own witness


def test_state_fixed_by_a_non_identity_element_keeps_the_identity():
    # rot180 maps this 3x3 state onto itself: the identity ties with it and,
    # coming first, wins, so the state is its own representative.
    grid = Grid(3, 3)
    state = SchedulerState.from_records([AsyncRobotState((0, 0), "G"), AsyncRobotState((2, 2), "G")])
    symmetries = grid_symmetries(grid, chirality=True)
    rot180 = next(gs for gs in symmetries if gs.name == "rot180")
    assert oracle_transform_state(state, rot180) == state
    rep, h = assert_same(state, symmetries)
    assert rep is state and h is None


# ---------------------------------------------------------------------------
# Seeded random states
# ---------------------------------------------------------------------------
def _random_state(rng: random.Random, grid: Grid) -> SchedulerState:
    colors = ("G", "W", "B")
    phi = rng.choice((1, 2))
    spots = [(i, j) for i in range(-1, grid.m + 1) for j in range(-1, grid.n + 1)]
    records = []
    for _ in range(rng.randint(1, 4)):
        if records and rng.random() < 0.4:
            pos = rng.choice(records).pos  # stack on another robot
        else:
            pos = rng.choice(spots)
        color = rng.choice(colors)
        phase = rng.choice(("idle", "looked", "computed"))
        if phase == "looked":
            occupied = {
                offset: tuple(sorted(rng.choices(colors, k=rng.randint(1, 2))))
                for offset in rng.sample(ball_offsets(phi), rng.randint(0, 3))
            }
            records.append(AsyncRobotState(pos, color, phase, _snapshot(grid, pos, phi, occupied)))
        elif phase == "computed":
            move = rng.choice((None, (-1, 0), (1, 0), (0, -1), (0, 1)))
            records.append(AsyncRobotState(pos, color, phase, None, rng.choice(colors), move))
        else:
            records.append(AsyncRobotState(pos, color))
    return SchedulerState.from_records(records)


@pytest.mark.parametrize("shape", [(2, 3), (3, 3), (3, 4), (4, 4)])
def test_random_states_canonicalise_as_before(shape):
    grid = Grid(*shape)
    rng = random.Random(f"canonicalize-{shape}")
    for _ in range(300):
        state = _random_state(rng, grid)
        for chirality in (True, False):
            assert_same(state, grid_symmetries(grid, chirality))
