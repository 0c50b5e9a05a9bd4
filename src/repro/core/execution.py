"""Execution traces and results.

An execution of the paper (Section 2.3) is a maximal sequence of
configurations.  A walk records only its initial configuration and its
*events* (which robot executed which rule under which symmetry, and how
its position and light changed).  The result derives the rest from those
two on demand: the configuration trace, the final configuration and the
set of visited nodes, which the terminating exploration property needs
because it is about node coverage and termination together.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import attrgetter
from typing import List, Optional, Set

from .configuration import Configuration
from .grid import Grid, Node

__all__ = ["Event", "ExecutionResult"]


@dataclass(frozen=True)
class Event:
    """One applied action: robot ``rid`` executed ``rule`` at ``time``.

    ``time`` counts FSYNC/SSYNC rounds or ASYNC atomic steps; ``phase`` is
    ``"cycle"`` for the synchronous models and one of ``"look"``,
    ``"compute"``, ``"move"`` for ASYNC.  Every event turns one robot's
    ``(old_pos, old_color)`` into ``(new_pos, new_color)``, so the events
    of a run replay its configurations.
    """

    time: int
    rid: int
    phase: str
    rule: Optional[str]
    symmetry: Optional[str]
    old_pos: Node
    new_pos: Node
    old_color: str
    new_color: str

    def moved(self) -> bool:
        """Whether the event changed the robot's position."""
        return self.old_pos != self.new_pos

    def recolored(self) -> bool:
        """Whether the event changed the robot's light."""
        return self.old_color != self.new_color


@dataclass
class ExecutionResult:
    """The outcome of one simulated execution: ``initial`` plus ``events``.

    :attr:`trace`, :attr:`final` and :attr:`visited` are derived from
    those two when first read, so a run whose caller only asks for the
    verdict builds one configuration, the initial one.
    """

    algorithm_name: str
    model: str
    grid: Grid
    initial: Configuration
    events: List[Event]
    steps: int
    terminated: bool
    termination_reason: str
    #: The seed that drove every random choice of the run (tie-breaking and
    #: the default schedulers); re-running with the same seed replays the
    #: execution exactly.  ``None`` for results built by external tooling.
    seed: Optional[int] = None
    #: The tie-break policy the run was executed under.
    tie_break: Optional[str] = None

    # ------------------------------------------------------------------
    # Derived from the events
    # ------------------------------------------------------------------
    @cached_property
    def trace(self) -> List[Configuration]:
        """The configurations of the execution, starting at :attr:`initial`.

        Replays :attr:`events` one ``time`` at a time (one FSYNC/SSYNC
        round or one ASYNC step) and appends the configuration after each
        group that changed it.
        """
        pairs = Counter((node, color) for node, colors in self.initial for color in colors)
        trace = [self.initial]
        for _time, group in groupby(self.events, key=attrgetter("time")):
            for event in group:
                pairs[event.old_pos, event.old_color] -= 1
                pairs[event.new_pos, event.new_color] += 1
            configuration = Configuration.from_pairs(
                (node, (color,) * count) for (node, color), count in pairs.items()
            )
            if configuration != trace[-1]:
                trace.append(configuration)
        return trace

    @property
    def final(self) -> Configuration:
        """The configuration after every event."""
        return self.trace[-1]

    @cached_property
    def visited(self) -> Set[Node]:
        """Every node some robot stood on: the initial nodes and each event's ``new_pos``."""
        visited = set(self.initial.occupied_nodes())
        visited.update(event.new_pos for event in self.events)
        return visited

    # ------------------------------------------------------------------
    # Terminating-exploration predicate (Definition 1)
    # ------------------------------------------------------------------
    @property
    def explored(self) -> bool:
        """Whether every node of the grid was visited by at least one robot."""
        return len(self.visited) == self.grid.num_nodes

    @property
    def unvisited(self) -> List[Node]:
        """Nodes never visited during the execution."""
        return [node for node in self.grid.nodes() if node not in self.visited]

    @property
    def is_terminating_exploration(self) -> bool:
        """Definition 1: every node visited and the execution reached a terminal configuration."""
        return self.terminated and self.explored

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def total_moves(self) -> int:
        """Total number of robot moves performed during the execution."""
        return sum(1 for event in self.events if event.moved())

    @property
    def total_color_changes(self) -> int:
        """Total number of light changes performed during the execution."""
        return sum(1 for event in self.events if event.recolored())

    def first_visit_order(self) -> List[Node]:
        """Nodes ordered by the time of their first visit.

        Initially occupied nodes come first (in configuration order), then
        nodes in the order robots first stepped onto them.  Used to check
        the Figure 3 boustrophedon route.
        """
        order: List[Node] = []
        seen: Set[Node] = set()
        for node, _colors in self.initial:
            if node not in seen:
                order.append(node)
                seen.add(node)
        for event in self.events:
            if event.moved() and event.new_pos not in seen:
                order.append(event.new_pos)
                seen.add(event.new_pos)
        return order

    def rule_census(self) -> dict:
        """How many times each rule label fired."""
        census: dict = {}
        for event in self.events:
            if event.rule is not None and event.phase in ("cycle", "compute"):
                census[event.rule] = census.get(event.rule, 0) + 1
        return census

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "terminating exploration" if self.is_terminating_exploration else (
            "terminated without full coverage" if self.terminated else "did not terminate"
        )
        return (
            f"{self.algorithm_name} on {self.grid.m}x{self.grid.n} [{self.model}]: "
            f"{status} after {self.steps} steps, {self.total_moves} moves, "
            f"{len(self.visited)}/{self.grid.num_nodes} nodes visited"
        )
