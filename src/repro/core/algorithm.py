"""Algorithm specifications and the rule matching engine.

An :class:`Algorithm` bundles everything the paper fixes when it states
"a terminating exploration algorithm for ``m x n`` grids in case of
``phi = ..., ell = ..., (no) common chirality and k = ...``":

* the synchrony model it is designed for (FSYNC, or ASYNC which subsumes
  SSYNC and FSYNC),
* the visibility radius ``phi``,
* the color set,
* whether a common chirality is assumed,
* the number of robots ``k``,
* the rule set,
* the initial configuration, a fixed tuple of ``(node, color)`` pairs
  (the paper anchors every initial configuration at the northwest corner,
  whatever the grid size).

An :class:`Algorithm` is plain data: it pickles, compares by value, and
its :attr:`~Algorithm.digest` names its content, so verdict-store keys
and campaign tasks address an algorithm by what it does rather than by
its name alone.

The matching engine implements Section 2.2/2.4 semantics: a robot is
*enabled* when some rule guard matches one of its views, i.e. matches its
snapshot under one of the allowed symmetries.  All matches are reported;
which one is executed when several disagree is the scheduler's choice.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .colors import Color
from .errors import AlgorithmError, ConfigurationError
from .grid import Grid, Node
from .robot import Robot
from .rules import GuardChecks, Rule
from .views import Offset, Snapshot, Symmetry, symmetries_for
from .world import World

__all__ = ["Synchrony", "Action", "Match", "Algorithm"]

#: Fields that document an algorithm without changing what it does; the
#: content digest leaves them out.
_UNDIGESTED = frozenset({"paper_section", "description", "optimal"})


class Synchrony:
    """Synchrony model names.

    The paper's FSYNC algorithms (Section 4.2) are only claimed for the
    fully synchronous scheduler; its ASYNC algorithms (Section 4.3) work
    under ASYNC and therefore also under SSYNC and FSYNC.
    """

    FSYNC = "FSYNC"
    SSYNC = "SSYNC"
    ASYNC = "ASYNC"

    #: Orders models from strongest scheduler assumption to weakest.
    ORDER = (FSYNC, SSYNC, ASYNC)

    @classmethod
    def validate(cls, model: str) -> str:
        if model not in cls.ORDER:
            raise AlgorithmError(f"unknown synchrony model {model!r}")
        return model

    @classmethod
    def subsumes(cls, designed_for: str, run_under: str) -> bool:
        """Whether an algorithm designed for ``designed_for`` is claimed under ``run_under``.

        An ASYNC algorithm is claimed under all three models; an SSYNC
        algorithm under SSYNC and FSYNC; an FSYNC algorithm only under
        FSYNC.
        """
        return cls.ORDER.index(run_under) <= cls.ORDER.index(designed_for)


@dataclass(frozen=True)
class Action:
    """The outcome of executing a matched rule: new color and world movement."""

    new_color: Color
    world_move: Optional[Offset]

    def __str__(self) -> str:
        if self.world_move is None:
            return f"({self.new_color}, Idle)"
        return f"({self.new_color}, move {self.world_move})"


@dataclass(frozen=True)
class Match:
    """A (rule, symmetry) pair whose guard matched a robot's snapshot."""

    rule: Rule
    symmetry: Symmetry
    action: Action

    def __str__(self) -> str:
        return f"{self.rule.name}@{self.symmetry.name} -> {self.action}"


@dataclass(frozen=True)
class Algorithm:
    """A complete terminating-exploration algorithm specification.

    ``initial_placement`` is the tuple of ``(node, color)`` pairs the robots
    start on, one per robot; a callable is refused.  The compiled guard
    tables are built on first use and never pickled.
    """

    name: str
    synchrony: str
    phi: int
    colors: Tuple[Color, ...]
    chirality: bool
    k: int
    rules: Tuple[Rule, ...]
    initial_placement: Tuple[Tuple[Node, Color], ...]
    min_m: int = 2
    min_n: int = 3
    paper_section: str = ""
    description: str = ""
    optimal: bool = False

    def __post_init__(self) -> None:
        Synchrony.validate(self.synchrony)
        if self.phi not in (1, 2):
            raise AlgorithmError(f"{self.name}: unsupported phi={self.phi}")
        if self.k < 1:
            raise AlgorithmError(f"{self.name}: k must be positive")
        if len(set(self.colors)) != len(self.colors):
            raise AlgorithmError(f"{self.name}: duplicate colors in palette")
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise AlgorithmError(f"{self.name}: duplicate rule names")
        for rule in self.rules:
            if rule.self_color not in self.colors:
                raise AlgorithmError(
                    f"{self.name}: rule {rule.name} self color {rule.self_color!r}"
                    " not in the algorithm palette"
                )
            if rule.new_color not in self.colors:
                raise AlgorithmError(
                    f"{self.name}: rule {rule.name} new color {rule.new_color!r}"
                    " not in the algorithm palette"
                )
            if rule.phi != self.phi:
                raise AlgorithmError(
                    f"{self.name}: rule {rule.name} has phi={rule.phi}, expected {self.phi}"
                )
        if callable(self.initial_placement):
            raise AlgorithmError(
                f"{self.name}: initial_placement must be a tuple of (node, color) pairs,"
                " not a callable"
            )
        placement = tuple((tuple(node), color) for node, color in self.initial_placement)
        if len(placement) != self.k:
            raise AlgorithmError(
                f"{self.name}: initial_placement places {len(placement)} robots,"
                f" expected k={self.k}"
            )
        for _node, color in placement:
            if color not in self.colors:
                raise AlgorithmError(
                    f"{self.name}: initial_placement color {color!r} not in the algorithm palette"
                )
        object.__setattr__(self, "initial_placement", placement)

    def __getstate__(self) -> Dict[str, object]:
        # The digest travels with the fields: a pool worker unpickles one copy
        # per task and looks its matcher tables up by digest.  The compiled
        # guard tables stay behind and rebuild on first use.
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        state["digest"] = self.digest
        return state

    def __repr__(self) -> str:
        return f"Algorithm(name={self.name!r}, digest={self.digest!r})"

    @cached_property
    def digest(self) -> str:
        """SHA-256 (hex) over every field but ``paper_section``, ``description`` and ``optimal``.

        Two algorithms with equal rules, placement, palette, ``phi``,
        chirality, synchrony, grid bounds and name share a digest; editing
        any of them moves it.  Verdict-store keys, campaign task keys and
        matcher caches are keyed by it.
        """
        content = tuple(
            (f.name, getattr(self, f.name)) for f in fields(self) if f.name not in _UNDIGESTED
        )
        return hashlib.sha256(repr(content).encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------
    @property
    def ell(self) -> int:
        """Number of colors ``ℓ = |Col|``."""
        return len(self.colors)

    def symmetries(self) -> Tuple[Symmetry, ...]:
        """The symmetries under which guards may match (4 or 8)."""
        return symmetries_for(self.chirality)

    def supports_grid(self, m: int, n: int) -> bool:
        """Whether the paper claims the algorithm for an ``m x n`` grid."""
        return m >= self.min_m and n >= self.min_n

    def rules_for_color(self, color: Color) -> Tuple[Rule, ...]:
        """The rules whose ``self_color`` is ``color``."""
        return tuple(rule for rule in self.rules if rule.self_color == color)

    def rule_named(self, name: str) -> Rule:
        """Look a rule up by its label (e.g. ``"R4"``)."""
        for rule in self.rules:
            if rule.name == name:
                return rule
        raise KeyError(f"{self.name}: no rule named {name!r}")

    # ------------------------------------------------------------------
    # World construction
    # ------------------------------------------------------------------
    def placement(self, m: int, n: int) -> List[Tuple[Node, Color]]:
        """The initial ``(node, color)`` placement for an ``m x n`` grid.

        The walk and the exhaustive kernel both start here, so a robot
        placed outside the grid raises :class:`ConfigurationError` on
        either route.
        """
        if not self.supports_grid(m, n):
            raise AlgorithmError(
                f"{self.name} requires m >= {self.min_m} and n >= {self.min_n},"
                f" got {m}x{n}"
            )
        for (i, j), _color in self.initial_placement:
            if not (0 <= i < m and 0 <= j < n):
                raise ConfigurationError(
                    f"{self.name}: initial placement puts a robot at {(i, j)},"
                    f" outside the {m}x{n} grid"
                )
        return list(self.initial_placement)

    def initial_world(self, grid: Grid) -> World:
        """A freshly initialised :class:`~repro.core.world.World`."""
        return World.from_placement(grid, self.placement(grid.m, grid.n))

    # ------------------------------------------------------------------
    # Matching engine
    # ------------------------------------------------------------------
    def compiled_rules(self, color: Color) -> Tuple[Tuple[GuardChecks, Match], ...]:
        """The rules for light ``color``, compiled once per allowed symmetry.

        One ``(checks, match)`` entry per (rule, symmetry) pair, in rule
        declaration order, then symmetry order: ``checks`` is the rule's
        guard in world offsets (:meth:`Rule.checks`) and ``match`` the
        :class:`Match` it yields, its :class:`Action` precomputed.  Built on
        first use per color and kept on the instance (outside the compared
        and hashed fields).
        """
        table = self.__dict__.get("_compiled_rules")
        if table is None:
            table = {}
            object.__setattr__(self, "_compiled_rules", table)
        entries = table.get(color)
        if entries is None:
            entries = tuple(
                (
                    rule.checks(symmetry),
                    Match(
                        rule=rule,
                        symmetry=symmetry,
                        action=Action(new_color=rule.new_color, world_move=rule.world_move(symmetry)),
                    ),
                )
                for rule in self.rules_for_color(color)
                for symmetry in self.symmetries()
            )
            table[color] = entries
        return entries

    def matches_for_snapshot(self, snapshot: Snapshot, color: Color) -> List[Match]:
        """All (rule, symmetry) matches for a robot with light ``color``.

        Matches are returned in a deterministic order (rule declaration
        order, then symmetry order) so that deterministic tie-breaking
        policies are reproducible.
        """
        return [match for checks, match in self.compiled_rules(color) if checks.holds(snapshot)]

    def matches_for_robot(self, world: World, robot: Robot) -> List[Match]:
        """All matches for ``robot`` in the current ``world``."""
        snapshot = world.snapshot(robot.pos, self.phi)
        return self.matches_for_snapshot(snapshot, robot.color)

    def distinct_actions(self, matches: Sequence[Match]) -> List[Action]:
        """The distinct outcomes among a list of matches, in first-seen order."""
        seen: Dict[Action, None] = {}
        for match in matches:
            seen.setdefault(match.action, None)
        return list(seen)

    def enabled(self, world: World, robot: Robot) -> bool:
        """Whether ``robot`` is enabled (some rule matches some of its views)."""
        return bool(self.matches_for_robot(world, robot))

    def enabled_robots(self, world: World) -> List[Robot]:
        """All enabled robots in ``world``."""
        return [robot for robot in world.robots if self.enabled(world, robot)]

    def is_terminal(self, world: World) -> bool:
        """Whether the configuration is terminal (no robot enabled)."""
        return not self.enabled_robots(world)

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """A one-line summary used by the registry and the benchmarks."""
        chirality = "chirality" if self.chirality else "no chirality"
        star = " (optimal)" if self.optimal else ""
        return (
            f"{self.name}: {self.synchrony}, phi={self.phi}, ell={self.ell},"
            f" {chirality}, k={self.k}{star}"
        )

    def __str__(self) -> str:
        return self.summary()
