"""Robot state.

A robot of the paper is anonymous, oblivious except for its persistent
light, and myopic.  The simulator nevertheless assigns each robot a small
integer identifier ``rid`` for bookkeeping (scheduling, traces, ASYNC phase
state); identifiers are *never* visible to the algorithm, which only ever
sees positions and colors, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .colors import Color, validate_color
from .grid import Node

__all__ = ["Robot"]


@dataclass(frozen=True)
class Robot:
    """An individual robot: identifier, position and light color.

    Instances are immutable; the simulator replaces robots rather than
    mutating them, which keeps execution traces cheap to snapshot and makes
    the model checker's state hashing trivial.
    """

    rid: int
    pos: Node
    color: Color

    def __post_init__(self) -> None:
        validate_color(self.color)

    def moved_to(self, pos: Node) -> "Robot":
        """A copy of this robot relocated to ``pos``.

        Built directly rather than through :func:`dataclasses.replace`,
        which costs about twice as much; ``__post_init__`` still runs.
        """
        return Robot(self.rid, pos, self.color)

    def recolored(self, color: Color) -> "Robot":
        """A copy of this robot with its light set to ``color`` (validated)."""
        return Robot(self.rid, self.pos, color)

    def key(self) -> Tuple[int, Node, Color]:
        """A hashable summary ``(rid, pos, color)``."""
        return (self.rid, self.pos, self.color)
