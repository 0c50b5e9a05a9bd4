"""Compiled guards against the interpretive matcher they replaced.

``oracle_matches_for_snapshot`` below is the previous matching chain kept as
it was: ``Algorithm.matches_for_snapshot`` looping over rules and
symmetries, ``Rule.matches`` passing ``occ(self_color)`` as the centre
default, and ``Guard.matches`` walking the ball, re-reading ``as_dict()``
and applying the symmetry matrix to every cell.  The compiled tables must
return identical ``Match`` lists, in the same order, on seeded random rule
tables (phi 1 and 2, with and without chirality, explicit centre cells,
``ANY`` cells, white/black/gray defaults) against random snapshots; and
``Guard.matches``/``Rule.matches`` must give the oracle's answer for every
(rule, symmetry) pair.
"""

from __future__ import annotations

import random
from typing import List, Optional

import pytest

from repro.algorithms import all_algorithms, get
from repro.core import Algorithm, Grid
from repro.core.algorithm import Action, Match
from repro.core.rules import ANY, EMPTY, FREE, WALL, CellKind, CellSpec, Guard, GuardChecks, Rule, occ
from repro.core.views import Snapshot, Symmetry, ball_offsets
from repro.core.world import World


# ---------------------------------------------------------------------------
# The oracle: the previous interpretive matcher
# ---------------------------------------------------------------------------
def oracle_cell_matches(spec: CellSpec, content) -> bool:
    if spec.kind is CellKind.ANY:
        return True
    if spec.kind is CellKind.WALL:
        return content is None
    if spec.kind is CellKind.EMPTY:
        return content == ()
    if spec.kind is CellKind.FREE:
        return content is None or content == ()
    return content is not None and content == spec.colors


def oracle_guard_matches(
    guard: Guard, snapshot: Snapshot, symmetry: Symmetry, center_default: Optional[CellSpec] = None
) -> bool:
    explicit = guard.as_dict()
    for offset in ball_offsets(guard.phi):
        if offset == (0, 0):
            spec = explicit.get(offset)
            if spec is None:
                spec = center_default if center_default is not None else guard.default
        else:
            spec = explicit.get(offset, guard.default)
        if spec.kind is CellKind.ANY:
            continue
        if not oracle_cell_matches(spec, snapshot[symmetry.apply(offset)]):
            return False
    return True


def oracle_rule_matches(rule: Rule, snapshot: Snapshot, symmetry: Symmetry) -> bool:
    return oracle_guard_matches(rule.guard, snapshot, symmetry, center_default=occ(rule.self_color))


def oracle_matches_for_snapshot(algorithm: Algorithm, snapshot: Snapshot, color) -> List[Match]:
    result: List[Match] = []
    for rule in algorithm.rules_for_color(color):
        for symmetry in algorithm.symmetries():
            if oracle_rule_matches(rule, snapshot, symmetry):
                action = Action(new_color=rule.new_color, world_move=rule.world_move(symmetry))
                result.append(Match(rule=rule, symmetry=symmetry, action=action))
    return result


# ---------------------------------------------------------------------------
# Random rule tables and snapshots
# ---------------------------------------------------------------------------
PALETTE = ("G", "W", "B")
MOVES = (None, "N", "S", "E", "W")


def random_multiset(rng: random.Random, colors):
    return tuple(sorted(rng.choices(colors, k=rng.randint(1, 2))))


def random_spec(rng: random.Random, colors) -> CellSpec:
    kind = rng.randrange(5)
    if kind == 4:
        return occ(*random_multiset(rng, colors))
    return (EMPTY, WALL, FREE, ANY)[kind]


def random_table(rng: random.Random, phi: int, chirality: bool) -> Algorithm:
    colors = PALETTE[: rng.randint(1, 3)]
    rules = []
    for index in range(rng.randint(1, 6)):
        offsets = rng.sample(ball_offsets(phi), rng.randint(0, 5))
        cells = {}
        for offset in offsets:
            spec = random_spec(rng, colors)
            if offset == (0, 0):
                spec = occ(*random_multiset(rng, colors))  # an explicit stack at the centre
            cells[offset] = spec
        default = rng.choice((FREE, FREE, EMPTY, WALL, ANY))
        rules.append(
            Rule(
                f"R{index}",
                rng.choice(colors),
                Guard.from_mapping(phi, cells, default=default),
                rng.choice(colors),
                rng.choice(MOVES),
            )
        )
    return Algorithm(
        name=f"random_phi{phi}_{'chir' if chirality else 'nochir'}",
        synchrony="ASYNC",
        phi=phi,
        colors=colors,
        chirality=chirality,
        k=1,
        rules=tuple(rules),
        initial_placement=(((0, 0), colors[0]),),
    )


def random_snapshot(rng: random.Random, phi: int, colors) -> Snapshot:
    snapshot = {}
    for offset in ball_offsets(phi):
        roll = rng.random()
        if roll < 0.25:
            snapshot[offset] = None
        elif roll < 0.7:
            snapshot[offset] = ()
        else:
            snapshot[offset] = random_multiset(rng, colors)
    return snapshot


def match_signature(matches):
    return [(m.rule.name, m.symmetry, m.action) for m in matches]


@pytest.mark.parametrize("phi", [1, 2])
@pytest.mark.parametrize("chirality", [True, False])
def test_compiled_tables_match_the_interpretive_matcher(phi, chirality):
    rng = random.Random(f"guards-{phi}-{chirality}")
    matched = 0
    for _ in range(60):
        algorithm = random_table(rng, phi, chirality)
        for _ in range(25):
            snapshot = random_snapshot(rng, phi, algorithm.colors)
            # Rules that fire need their centre to hold the observer: plant
            # one rule's centre requirement so the sample is not all misses.
            rule = rng.choice(algorithm.rules)
            center = rule.guard.as_dict().get((0, 0))
            snapshot[(0, 0)] = center.colors if center is not None else (rule.self_color,)
            for color in algorithm.colors + ("R",):
                expected = oracle_matches_for_snapshot(algorithm, snapshot, color)
                actual = algorithm.matches_for_snapshot(snapshot, color)
                assert actual == expected
                assert match_signature(actual) == match_signature(expected)
                matched += len(actual)
    assert matched > 0


@pytest.mark.parametrize("phi", [1, 2])
@pytest.mark.parametrize("chirality", [True, False])
def test_guard_and_rule_matches_agree_with_the_oracle(phi, chirality):
    rng = random.Random(f"rules-{phi}-{chirality}")
    for _ in range(40):
        algorithm = random_table(rng, phi, chirality)
        snapshot = random_snapshot(rng, phi, algorithm.colors)
        for rule in algorithm.rules:
            for symmetry in algorithm.symmetries():
                assert rule.matches(snapshot, symmetry) == oracle_rule_matches(rule, snapshot, symmetry)
                assert rule.guard.matches(snapshot, symmetry) == oracle_guard_matches(
                    rule.guard, snapshot, symmetry
                )
                center = occ(rule.self_color)
                assert rule.guard.matches(snapshot, symmetry, center) == oracle_guard_matches(
                    rule.guard, snapshot, symmetry, center
                )


@pytest.mark.parametrize("name", sorted(all_algorithms()))
def test_registry_matches_agree_with_the_oracle_on_real_snapshots(name):
    algorithm = get(name)
    grid = Grid(max(algorithm.min_m, 4), max(algorithm.min_n, 5))
    world = algorithm.initial_world(grid)
    rng = random.Random(name)
    for _ in range(30):
        for robot in world.robots:
            snapshot = world.snapshot(robot.pos, algorithm.phi)
            for color in algorithm.colors:
                assert algorithm.matches_for_snapshot(snapshot, color) == oracle_matches_for_snapshot(
                    algorithm, snapshot, color
                )
        # Scatter the robots to fresh nodes for the next round of snapshots.
        nodes = rng.sample(list(grid.nodes()), len(world.robots))
        world = World.from_placement(grid, [(node, rng.choice(algorithm.colors)) for node in nodes])


def test_checks_skip_any_cells_and_split_free_from_exact():
    guard = Guard.build(1, N=ANY, E=WALL, S=EMPTY, C=occ("G", "W"))
    checks = guard.checks(Symmetry("id", 1, 0, 0, 1))
    assert isinstance(checks, GuardChecks)
    assert set(checks.free) == {(0, -1)}  # W keeps the gray default
    assert dict(checks.exact) == {(0, 0): ("G", "W"), (0, 1): None, (1, 0): ()}
    assert (-1, 0) not in checks.free and (-1, 0) not in dict(checks.exact)


def test_compiled_entries_precompute_the_action():
    algorithm = get("fsync_phi2_l2_chir_k2")
    for color in algorithm.colors:
        entries = algorithm.compiled_rules(color)
        assert len(entries) == len(algorithm.rules_for_color(color)) * len(algorithm.symmetries())
        assert algorithm.compiled_rules(color) is entries  # built once per color
        for checks, match in entries:
            compiled = match.rule.checks(match.symmetry)
            assert (checks.free, checks.exact) == (compiled.free, compiled.exact)
            assert match.action == Action(match.rule.new_color, match.rule.world_move(match.symmetry))
