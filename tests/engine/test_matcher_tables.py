"""Oracle: the matcher's per-node neighbourhood tables against the scan they replaced.

:class:`~repro.engine.matcher.LocalMatcher` reads a robot's local key off
its node's :class:`~repro.engine.matcher.NodeTable` entry: the capped wall
distances and a position -> offset map of the radius-``phi`` ball.  Before
the tables, the key came from a scan of every robot with the distances
computed on the spot; :func:`scan_key` keeps that loop as the reference.

Random configurations stack robots, put them on every boundary and run on
1xN, Nx1 and 2xN grids as well as larger ones, for ``phi`` 1 and 2.  On
each, the table-driven key must equal the scan's for every robot (in walk
order and in a canonical state's sorted record order), ``batched_matches``
must agree robot by robot with the algorithm's own matching over a
:class:`~repro.core.world.World` snapshot, and the memoized frozen snapshot
must equal the frozen dictionary snapshot and the world's.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms import get
from repro.core import Grid
from repro.core.world import World
from repro.engine import LocalMatcher, MatcherCache
from repro.engine.matcher import node_table
from repro.engine.states import AsyncRobotState, SchedulerState, freeze_snapshot

#: One registered algorithm per (phi, chirality) pair.
ALGORITHMS = (
    "fsync_phi1_l2_chir_k3",
    "fsync_phi1_l3_nochir_k4",
    "fsync_phi2_l2_chir_k2",
    "async_phi2_l2_nochir_k4",
)
SHAPES = [
    (1, 1), (1, 2), (1, 5), (1, 9), (2, 1), (5, 1), (9, 1),
    (2, 2), (2, 3), (2, 7), (3, 3), (4, 6), (7, 5),
]
CONFIGURATIONS = 25


def scan_key(matcher: LocalMatcher, robots, center):
    """The local key as a scan of every robot computed it, walls on the spot."""
    phi = matcher.algorithm.phi
    ci, cj = center
    near = []
    for robot in robots:
        di = robot.pos[0] - ci
        dj = robot.pos[1] - cj
        if abs(di) + abs(dj) <= phi:
            near.append(((di, dj), robot.color))
    near.sort()
    m, n = matcher.grid.m, matcher.grid.n
    walls = (min(ci, phi), min(m - 1 - ci, phi), min(cj, phi), min(n - 1 - cj, phi))
    return (walls, tuple(near))


def sides(grid: Grid, node) -> set:
    """The grid boundaries ``node`` lies on."""
    i, j = node
    return {side for side, on in zip("NSWE", (i == 0, i == grid.m - 1, j == 0, j == grid.n - 1)) if on}


def random_world(rng: random.Random, grid: Grid, colors) -> World:
    """1-6 robots: random nodes, nodes on a random boundary, and stacks on earlier robots."""
    m, n = grid.m, grid.n
    boundaries = [
        [(0, j) for j in range(n)],
        [(m - 1, j) for j in range(n)],
        [(i, 0) for i in range(m)],
        [(i, n - 1) for i in range(m)],
    ]
    placement = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.randrange(3)
        if kind == 0 and placement:
            node = rng.choice(placement)[0]
        elif kind == 1:
            node = rng.choice(rng.choice(boundaries))
        else:
            node = (rng.randrange(m), rng.randrange(n))
        placement.append((node, rng.choice(colors)))
    return World.from_placement(grid, placement)


@pytest.mark.parametrize("name", ALGORITHMS)
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_tables_agree_with_the_scan(name, shape):
    algorithm = get(name)
    grid = Grid(*shape)
    rng = random.Random(f"{name} {shape}")
    # A matcher on a shared cache and a private one read the same node table.
    matchers = (LocalMatcher(algorithm, grid), MatcherCache().matcher_for(algorithm, grid))
    assert matchers[0].nodes is matchers[1].nodes
    stacked, touched = 0, set()
    for _ in range(CONFIGURATIONS):
        world = random_world(rng, grid, algorithm.colors)
        robots = world.robots
        records = SchedulerState.from_records(
            AsyncRobotState(pos=robot.pos, color=robot.color) for robot in robots
        ).robots
        stacked += len({robot.pos for robot in robots}) < len(robots)
        touched.update(*(sides(grid, robot.pos) for robot in robots))
        for matcher in matchers:
            batch = matcher.batched_matches(robots)
            assert [robot for robot, _ in batch] == robots
            for robot, matches in batch:
                key = scan_key(matcher, robots, robot.pos)
                assert matcher.local_key(robots, robot.pos) == key
                assert matcher.local_key(records, robot.pos) == key
                assert list(matches) == algorithm.matches_for_robot(world, robot)
                frozen = matcher.frozen_snapshot_for_key(key)
                assert frozen == freeze_snapshot(matcher.snapshot(robots, robot.pos))
                assert frozen == freeze_snapshot(world.snapshot(robot.pos, algorithm.phi))
                assert frozen is matcher.frozen_snapshot_for_key(key)  # memoized
    assert stacked and touched == set("NSWE")


def test_node_tables_fill_on_lookup_and_are_shared_per_grid_and_radius():
    algorithm = get("fsync_phi2_l2_chir_k2")
    grid = Grid(1000, 1000)
    node_table.cache_clear()  # tables other tests filled
    matcher = LocalMatcher(algorithm, grid)
    assert len(matcher.nodes) == 0
    matcher.local_key([], (500, 500))
    matcher.local_key([], (500, 500))  # a second lookup reads the stored entry
    assert list(matcher.nodes) == [(500, 500)]
    assert LocalMatcher(algorithm, Grid(1000, 1000)).nodes is matcher.nodes
    assert LocalMatcher(get("fsync_phi1_l2_chir_k3"), grid).nodes is not matcher.nodes
    walls, ball = matcher.nodes[(0, 999)]
    assert walls == (0, 2, 2, 0)
    assert ball == {(0, 999): (0, 0), (1, 999): (1, 0), (2, 999): (2, 0), (0, 998): (0, -1),
                    (0, 997): (0, -2), (1, 998): (1, -1)}


def test_the_async_compute_memo_matches_the_algorithm():
    algorithm = get("async_phi2_l2_nochir_k4")
    grid = Grid(5, 6)
    matcher = LocalMatcher(algorithm, grid)
    world = algorithm.initial_world(grid)
    for robot in world.robots:
        frozen = matcher.frozen_snapshot_for_key(matcher.local_key(world.robots, robot.pos))
        matches = algorithm.matches_for_robot(world, robot)
        assert list(matcher.matches_for_frozen(frozen, robot.color)) == matches
        actions = matcher.actions_for_frozen(frozen, robot.color)
        assert list(actions) == algorithm.distinct_actions(matches)
        assert matcher.actions_for_frozen(frozen, robot.color) is actions
