"""Tests for the world container and the rule-matching engine."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import (
    AlgorithmError,
    Algorithm,
    ConfigurationError,
    EMPTY,
    G,
    Grid,
    IllegalMoveError,
    Synchrony,
    W,
    World,
    occ,
)
from repro.core.rules import Guard, Rule


def tiny_algorithm(chirality=True):
    """A minimal legal algorithm used to exercise the engine."""
    rules = (
        Rule("R1", W, Guard.build(1, W=occ(G), E=EMPTY), W, "E"),
        Rule("R2", G, Guard.build(1, E=occ(W)), G, "E"),
    )
    return Algorithm(
        name="tiny",
        synchrony=Synchrony.FSYNC,
        phi=1,
        colors=(G, W),
        chirality=chirality,
        k=2,
        rules=rules,
        initial_placement=(((0, 0), G), ((0, 1), W)),
        min_m=1,
        min_n=2,
    )


class TestWorld:
    def test_from_placement(self):
        world = World.from_placement(Grid(2, 3), [((0, 0), G), ((0, 1), W)])
        assert world.k == 2
        assert world.robot(0).color == G
        assert world.robots_at((0, 1))[0].color == W

    def test_placement_off_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            World.from_placement(Grid(2, 2), [((5, 5), G)])

    def test_move_and_set_color(self):
        world = World.from_placement(Grid(2, 3), [((0, 0), G)])
        world.move(0, (0, 1))
        world.set_color(0, W)
        assert world.robot(0).pos == (0, 1) and world.robot(0).color == W

    def test_set_color_to_the_same_light_keeps_the_robot(self):
        world = World.from_placement(Grid(2, 3), [((0, 0), G), ((0, 1), W)])
        robot = world.robot(0)
        world.set_color(0, G)
        assert world.robot(0) is robot
        with pytest.raises(ValueError, match="invalid color"):
            world.set_color(0, "")
        assert world.robot(0) is robot
        with pytest.raises(KeyError):
            world.set_color(7, G)

    def test_illegal_move_raises(self):
        world = World.from_placement(Grid(2, 2), [((0, 0), G)])
        with pytest.raises(IllegalMoveError):
            world.move(0, (-1, 0))

    def test_clone_is_independent(self):
        world = World.from_placement(Grid(2, 2), [((0, 0), G)])
        copy = world.clone()
        copy.move(0, (0, 1))
        assert world.robot(0).pos == (0, 0)

    def test_configuration_view(self):
        world = World.from_placement(Grid(2, 2), [((0, 0), G), ((0, 0), W)])
        assert world.configuration().colors_at((0, 0)) == (G, W)


class TestAlgorithmValidation:
    def test_ell_and_summary(self):
        algorithm = tiny_algorithm()
        assert algorithm.ell == 2
        assert "phi=1" in algorithm.summary()

    def test_rule_color_must_be_in_palette(self):
        with pytest.raises(AlgorithmError):
            Algorithm(
                name="bad",
                synchrony=Synchrony.FSYNC,
                phi=1,
                colors=(G,),
                chirality=True,
                k=1,
                rules=(Rule("R1", W, Guard.build(1), W, None),),
                initial_placement=(((0, 0), G),),
            )

    def test_duplicate_rule_names_rejected(self):
        rule = Rule("R1", G, Guard.build(1), G, None)
        with pytest.raises(AlgorithmError):
            Algorithm(
                name="bad",
                synchrony=Synchrony.FSYNC,
                phi=1,
                colors=(G,),
                chirality=True,
                k=1,
                rules=(rule, rule),
                initial_placement=(((0, 0), G),),
            )

    def test_phi_mismatch_rejected(self):
        with pytest.raises(AlgorithmError):
            Algorithm(
                name="bad",
                synchrony=Synchrony.FSYNC,
                phi=2,
                colors=(G,),
                chirality=True,
                k=1,
                rules=(Rule("R1", G, Guard.build(1), G, None),),
                initial_placement=(((0, 0), G),),
            )

    def test_placement_size_checked(self):
        # Checked at construction: no grid is needed to see the mismatch.
        algorithm = tiny_algorithm()
        with pytest.raises(AlgorithmError, match="initial_placement places 1 robots, expected k=3"):
            Algorithm(
                name="bad-k",
                synchrony=Synchrony.FSYNC,
                phi=1,
                colors=(G, W),
                chirality=True,
                k=3,
                rules=algorithm.rules,
                initial_placement=(((0, 0), G),),
            )

    def test_callable_placement_refused(self):
        # A placement is data; a function of the grid would not pickle.
        with pytest.raises(AlgorithmError, match="initial_placement"):
            dataclasses.replace(tiny_algorithm(), initial_placement=lambda m, n: [((0, 0), G), ((0, 1), W)])

    def test_placement_color_must_be_in_palette(self):
        with pytest.raises(AlgorithmError, match="initial_placement color"):
            dataclasses.replace(tiny_algorithm(), initial_placement=(((0, 0), G), ((0, 1), "B")))

    def test_placement_is_normalized_to_a_tuple(self):
        algorithm = dataclasses.replace(tiny_algorithm(), initial_placement=[([0, 0], G), ((0, 1), W)])
        assert algorithm.initial_placement == (((0, 0), G), ((0, 1), W))
        assert algorithm == tiny_algorithm()
        assert algorithm.placement(2, 3) == [((0, 0), G), ((0, 1), W)]

    def test_digest_names_the_content(self):
        algorithm = tiny_algorithm()
        # Documentation fields leave the digest alone ...
        relabelled = dataclasses.replace(algorithm, description="other words", optimal=True)
        assert relabelled.digest == algorithm.digest
        # ... every behavioural field moves it, the name included.
        for change in (
            {"rules": algorithm.rules[:1]},
            {"initial_placement": (((0, 1), G), ((0, 0), W))},
            {"chirality": False},
            {"min_n": 3},
            {"name": "tiny-renamed"},
        ):
            assert dataclasses.replace(algorithm, **change).digest != algorithm.digest, change
        assert repr(algorithm) == f"Algorithm(name='tiny', digest='{algorithm.digest}')"

    def test_supports_grid(self):
        algorithm = tiny_algorithm()
        assert algorithm.supports_grid(1, 2)
        assert not algorithm.supports_grid(1, 1)

    def test_rule_named(self):
        algorithm = tiny_algorithm()
        assert algorithm.rule_named("R2").self_color == G
        with pytest.raises(KeyError):
            algorithm.rule_named("R99")

    def test_synchrony_subsumption(self):
        assert Synchrony.subsumes("ASYNC", "FSYNC")
        assert Synchrony.subsumes("ASYNC", "SSYNC")
        assert not Synchrony.subsumes("FSYNC", "SSYNC")


class TestMatchingEngine:
    def test_enabled_robots_initial(self):
        algorithm = tiny_algorithm()
        world = algorithm.initial_world(Grid(2, 3))
        enabled = algorithm.enabled_robots(world)
        assert {robot.color for robot in enabled} == {G, W}

    def test_matches_report_rule_and_symmetry(self):
        algorithm = tiny_algorithm()
        world = algorithm.initial_world(Grid(2, 3))
        matches = algorithm.matches_for_robot(world, world.robot(1))
        assert matches and matches[0].rule.name == "R1"
        assert matches[0].action.world_move == (0, 1)

    def test_terminal_detection(self):
        algorithm = tiny_algorithm()
        world = World.from_placement(Grid(2, 3), [((0, 0), G), ((1, 2), W)])
        assert algorithm.is_terminal(world)

    def test_distinct_actions_deduplicates(self):
        algorithm = tiny_algorithm()
        world = algorithm.initial_world(Grid(2, 3))
        matches = algorithm.matches_for_robot(world, world.robot(0))
        actions = algorithm.distinct_actions(matches)
        assert len(actions) == len({(a.new_color, a.world_move) for a in actions})

    def test_no_chirality_allows_mirror_matches(self):
        # An "L" shaped guard (G ahead, W to the left) only matches the mirror
        # image (G ahead, W to the right) when reflections are allowed, i.e.
        # when robots do not share a common chirality.
        from repro.core.rules import Guard, Rule
        from repro.core import symmetries_for

        rule = Rule("L", W, Guard.build(1, N=occ(G), W=occ(W)), W, "N")
        world = World.from_placement(
            Grid(3, 3), [((1, 1), W), ((0, 1), G), ((1, 2), W)]
        )
        snapshot = world.snapshot((1, 1), 1)
        chiral_matches = [s for s in symmetries_for(True) if rule.matches(snapshot, s)]
        mirrored_matches = [s for s in symmetries_for(False) if rule.matches(snapshot, s)]
        assert not chiral_matches
        assert mirrored_matches and all(not s.is_rotation for s in mirrored_matches)
