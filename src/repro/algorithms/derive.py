"""The paper's color-elimination construction (Sections 4.2.3, 4.2.4, 4.2.8).

Several of the paper's algorithms never change colors and never let robots
of two different colors share a node.  For those, one color can be removed
by *representing a robot of that color with a stack of two robots of
another color*: every guard cell that required ``{X}`` now requires
``{Y, Y}``, every rule executed by the ``X`` robot is executed (in FSYNC,
simultaneously) by both robots of the stack, and the initial configuration
places two ``Y`` robots where the ``X`` robot used to start.

:func:`replace_color_with_pair` performs that transformation mechanically
on an :class:`~repro.core.algorithm.Algorithm`, which is exactly how the
paper obtains

* Section 4.2.3 (phi = 2, one color, chirality, k = 3) from Algorithm 1,
* Section 4.2.4 (phi = 2, one color, no chirality, k = 4) from Algorithm 2,
* Section 4.2.8 (phi = 1, two colors, no chirality, k = 5) from Algorithm 4.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..core.algorithm import Algorithm
from ..core.colors import Color
from ..core.errors import AlgorithmError
from ..core.rules import CellKind, CellSpec, Guard, Rule, occ

__all__ = ["replace_color_with_pair"]


def _transform_multiset(colors: Sequence[Color], removed: Color, replacement: Color) -> Tuple[Color, ...]:
    """Replace every occurrence of ``removed`` by two ``replacement`` robots."""
    result = []
    for color in colors:
        if color == removed:
            result.extend([replacement, replacement])
        else:
            result.append(color)
    return tuple(sorted(result))


def _transform_spec(spec: CellSpec, removed: Color, replacement: Color) -> CellSpec:
    if spec.kind is not CellKind.OCCUPIED:
        return spec
    return occ(*_transform_multiset(spec.colors, removed, replacement))


def _transform_rule(rule: Rule, removed: Color, replacement: Color) -> Rule:
    """Transform one rule of the source algorithm."""
    cells = {}
    for offset, spec in rule.guard.as_dict().items():
        cells[offset] = _transform_spec(spec, removed, replacement)
    executed_by_pair = rule.self_color == removed
    if executed_by_pair and (0, 0) not in cells:
        # The paper's default centre ("the robot is alone") becomes "the two
        # robots of the stack are alone together".
        cells[(0, 0)] = occ(replacement, replacement)
    guard = Guard.from_mapping(rule.guard.phi, cells, default=rule.guard.default)
    return Rule(
        name=rule.name,
        self_color=replacement if executed_by_pair else rule.self_color,
        guard=guard,
        new_color=replacement if rule.new_color == removed else rule.new_color,
        move=rule.move,
    )


def replace_color_with_pair(
    source: Algorithm,
    removed: Color,
    replacement: Color,
    name: str,
    paper_section: str,
    description: str = "",
    optimal: bool = False,
    synchrony: Optional[str] = None,
) -> Algorithm:
    """Derive a new algorithm by representing every ``removed``-colored robot
    with a stack of two ``replacement``-colored robots.

    The construction is only sound for algorithms that (as the paper notes
    for Algorithms 1, 2 and 4) never change the ``removed`` color and never
    stack a ``removed`` robot with a differently-colored robot; validity is
    re-established empirically by the verification suite, not assumed.
    """
    if removed not in source.colors:
        raise AlgorithmError(f"{source.name} has no color {removed!r} to remove")
    if replacement not in source.colors:
        raise AlgorithmError(f"replacement color {replacement!r} not in {source.name}'s palette")
    if removed == replacement:
        raise AlgorithmError("removed and replacement colors must differ")
    for rule in source.rules:
        if rule.self_color == removed and rule.new_color != removed:
            raise AlgorithmError(
                f"{source.name}: rule {rule.name} changes the color {removed!r};"
                " the pair construction does not apply"
            )

    placement = []
    for node, color in source.initial_placement:
        if color == removed:
            placement += [(node, replacement), (node, replacement)]
        else:
            placement.append((node, color))

    return Algorithm(
        name=name,
        synchrony=synchrony if synchrony is not None else source.synchrony,
        phi=source.phi,
        colors=tuple(color for color in source.colors if color != removed),
        chirality=source.chirality,
        k=len(placement),
        rules=tuple(_transform_rule(rule, removed, replacement) for rule in source.rules),
        initial_placement=tuple(placement),
        min_m=source.min_m,
        min_n=source.min_n,
        paper_section=paper_section,
        description=description or (
            f"Derived from {source.name} by replacing color {removed} with a pair of {replacement} robots"
        ),
        optimal=optimal,
    )
