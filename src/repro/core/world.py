"""Mutable simulation state: a grid plus a population of robots.

The :class:`World` is the simulator's working object.  It knows robot
identities (for scheduling and traces) but exposes the anonymous
:class:`~repro.core.configuration.Configuration` view whenever paper-level
semantics are needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .colors import Color
from .configuration import Configuration
from .errors import ConfigurationError, IllegalMoveError
from .grid import Grid, Node
from .robot import Robot
from .views import Snapshot, snapshot_contents

__all__ = ["World"]


@dataclass
class World:
    """A grid populated by robots."""

    grid: Grid
    robots: List[Robot] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_placement(
        cls, grid: Grid, placement: Sequence[Tuple[Node, Color]]
    ) -> "World":
        """Create a world with one robot per ``(node, color)`` entry.

        Robot identifiers are assigned in the order of ``placement``.
        """
        robots = []
        for rid, (node, color) in enumerate(placement):
            if not grid.contains(node):
                raise ConfigurationError(
                    f"initial placement puts a robot at {node}, outside the grid"
                )
            robots.append(Robot(rid=rid, pos=node, color=color))
        return cls(grid=grid, robots=robots)

    def clone(self) -> "World":
        """An independent copy of this world (robots are immutable, so shallow)."""
        return World(grid=self.grid, robots=list(self.robots))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Number of robots."""
        return len(self.robots)

    def robot(self, rid: int) -> Robot:
        """The robot with identifier ``rid``."""
        for robot in self.robots:
            if robot.rid == rid:
                return robot
        raise KeyError(f"no robot with id {rid}")

    def robots_at(self, node: Node) -> List[Robot]:
        """All robots currently hosted by ``node``."""
        return [robot for robot in self.robots if robot.pos == node]

    def occupied_nodes(self) -> List[Node]:
        """Nodes hosting at least one robot."""
        return sorted({robot.pos for robot in self.robots})

    def configuration(self) -> Configuration:
        """The anonymous configuration (paper's ``C(t)``)."""
        return Configuration.from_robots(self.robots)

    def snapshot(self, center: Node, phi: int) -> Snapshot:
        """The local snapshot taken by a robot located at ``center``."""
        return snapshot_contents(self.grid, self.robots, center, phi)

    # ------------------------------------------------------------------
    # Mutation (used by the simulator)
    # ------------------------------------------------------------------
    def set_color(self, rid: int, color: Color) -> None:
        """Change the light of robot ``rid``; an unchanged light keeps the robot."""
        for index, robot in enumerate(self.robots):
            if robot.rid == rid:
                if robot.color != color:
                    self.robots[index] = robot.recolored(color)
                return
        raise KeyError(f"no robot with id {rid}")

    def move(self, rid: int, offset: Optional[Tuple[int, int]]) -> Node:
        """Move robot ``rid`` by a unit ``offset`` (``None`` for Idle).

        Returns the robot's (possibly unchanged) position.  Raises
        :class:`IllegalMoveError` when the destination is off the grid,
        which can only happen if a rule set is buggy: the paper's robots
        never attempt to leave the grid.
        """
        for index, robot in enumerate(self.robots):
            if robot.rid == rid:
                if offset is None:
                    return robot.pos
                destination = (robot.pos[0] + offset[0], robot.pos[1] + offset[1])
                if not self.grid.contains(destination):
                    raise IllegalMoveError(
                        f"robot {rid} attempted to move from {robot.pos} to {destination},"
                        f" outside the {self.grid.m}x{self.grid.n} grid"
                    )
                self.robots[index] = robot.moved_to(destination)
                return destination
        raise KeyError(f"no robot with id {rid}")

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        return f"World({self.grid.m}x{self.grid.n}, {self.configuration()})"
