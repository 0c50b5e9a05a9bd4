"""Guards, actions and rules: the algorithm description formalism.

Section 2.4 of the paper describes an algorithm as a set of rules, each
rule being a combination of a label, a *guard* and an *action*.  A guard
constrains every node of the visibility ball:

* a node painted **white** must be empty (``∅``);
* a node painted **black** must not exist (``⊥`` — beyond the grid
  boundary);
* a node painted **gray** may be either empty or non-existent;
* a node annotated with a multiset (for instance ``{G, W}``) must host
  exactly the robots whose lights form that multiset;
* the centre cell carries the observing robot's own color ``c_r`` together
  with the multiset of the node it occupies.

The action is a pair ``(c_new, Movement)`` where ``Movement`` is one of
``Idle``, ``←``, ``→``, ``↑``, ``↓`` interpreted in the *guard's frame* and
mapped into the world through whichever symmetry made the guard match.

This module provides the executable counterpart of that formalism:
:class:`CellSpec`, :class:`Guard`, :class:`Rule`, a compact keyword-based
guard constructor and an ASCII-art guard parser used by the algorithm
modules and the documentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Mapping, Optional, Tuple

from .colors import Color, ColorMultiset, multiset, validate_color
from .errors import GuardError, RuleError
from .views import CellContent, Offset, Snapshot, Symmetry, ball_offsets

__all__ = [
    "CellKind",
    "CellSpec",
    "EMPTY",
    "WALL",
    "FREE",
    "ANY",
    "occ",
    "OFFSET_NAMES",
    "NAMED_OFFSETS",
    "Guard",
    "GuardChecks",
    "Movement",
    "IDLE",
    "Rule",
    "parse_guard_art",
    "guard_to_art",
]


class CellKind(Enum):
    """The kinds of constraints a guard may place on one visible cell."""

    #: The node exists and hosts no robot (white cell, ``∅``).
    EMPTY = "empty"
    #: The node does not exist (black cell, ``⊥``).
    WALL = "wall"
    #: Either empty or non-existent (gray cell).
    FREE = "free"
    #: The node exists and hosts exactly the given multiset of lights.
    OCCUPIED = "occupied"
    #: No constraint at all (not used by the paper's figures, available for
    #: user-defined algorithms).
    ANY = "any"


@dataclass(frozen=True)
class CellSpec:
    """A constraint on the content of a single visible cell."""

    kind: CellKind
    colors: ColorMultiset = ()

    def __post_init__(self) -> None:
        if self.kind is CellKind.OCCUPIED:
            if not self.colors:
                raise GuardError("an OCCUPIED cell spec needs at least one color")
            object.__setattr__(self, "colors", multiset(*self.colors))
        elif self.colors:
            raise GuardError(f"{self.kind} cell spec cannot carry colors")

    def matches(self, content: CellContent) -> bool:
        """Whether a snapshot cell satisfies this constraint."""
        if self.kind is CellKind.ANY:
            return True
        if self.kind is CellKind.WALL:
            return content is None
        if self.kind is CellKind.EMPTY:
            return content == ()
        if self.kind is CellKind.FREE:
            return content is None or content == ()
        # OCCUPIED
        return content is not None and content == self.colors

    def __str__(self) -> str:
        if self.kind is CellKind.OCCUPIED:
            return "{" + ",".join(self.colors) + "}"
        return {
            CellKind.EMPTY: "o",
            CellKind.WALL: "#",
            CellKind.FREE: ".",
            CellKind.ANY: "?",
        }[self.kind]


#: The node must be empty (paper: white cell).
EMPTY = CellSpec(CellKind.EMPTY)
#: The node must not exist (paper: black cell).
WALL = CellSpec(CellKind.WALL)
#: The node must be empty or non-existent (paper: gray cell).
FREE = CellSpec(CellKind.FREE)
#: No constraint.
ANY = CellSpec(CellKind.ANY)


def occ(*colors: Color) -> CellSpec:
    """Constraint: the node hosts exactly the robots with these lights.

    >>> occ("G", "W").matches(("G", "W"))
    True
    >>> occ("G").matches(())
    False
    """
    return CellSpec(CellKind.OCCUPIED, multiset(*colors))


#: The radius-2 ball's offsets keyed by value.  D4 maps the ball onto
#: itself, so compiled checks store these shared tuples rather than one
#: fresh tuple per (rule, symmetry, cell).
_BALL_OFFSETS: Dict[Offset, Offset] = {offset: offset for offset in ball_offsets(2)}


class GuardChecks:
    """A guard compiled for one view symmetry: its checks in world offsets.

    ``free`` holds the world offsets that must be empty or off-grid (gray
    cells).  ``exact`` pairs every other constrained world offset with the
    one content it must hold: ``None`` (black, off-grid), ``()`` (white,
    empty) or an exact light multiset.  ``ANY`` cells appear in neither.
    :meth:`Guard.checks` builds these; :meth:`holds` is the only guard
    evaluator.
    """

    __slots__ = ("free", "exact")

    def __init__(
        self,
        free: Tuple[Offset, ...],
        exact: Tuple[Tuple[Offset, CellContent], ...],
    ) -> None:
        self.free = free
        self.exact = exact

    def holds(self, snapshot: Snapshot) -> bool:
        """Whether ``snapshot`` satisfies every check."""
        for offset in self.free:
            if snapshot[offset]:
                return False
        for offset, content in self.exact:
            if snapshot[offset] != content:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GuardChecks(free={self.free!r}, exact={self.exact!r})"


#: Compass-style names for the offsets of the radius-2 visibility ball.
#: ``C`` is the observing robot's own node.  Single letters are the four
#: neighbors, doubled letters are two steps away along an axis and the
#: two-letter diagonals are the distance-2 diagonal cells.
NAMED_OFFSETS: Dict[str, Offset] = {
    "C": (0, 0),
    "N": (-1, 0),
    "S": (1, 0),
    "E": (0, 1),
    "W": (0, -1),
    "NN": (-2, 0),
    "SS": (2, 0),
    "EE": (0, 2),
    "WW": (0, -2),
    "NE": (-1, 1),
    "NW": (-1, -1),
    "SE": (1, 1),
    "SW": (1, -1),
}

#: Inverse of :data:`NAMED_OFFSETS`.
OFFSET_NAMES: Dict[Offset, str] = {offset: name for name, offset in NAMED_OFFSETS.items()}


#: Movement labels: the four guard-frame directions plus ``Idle``.
Movement = Optional[str]

#: The ``Idle`` movement (the robot stays on its node).
IDLE: Movement = None

_MOVE_OFFSETS: Dict[str, Offset] = {
    "N": (-1, 0),
    "S": (1, 0),
    "E": (0, 1),
    "W": (0, -1),
}


@dataclass(frozen=True)
class Guard:
    """A constraint on the full radius-``phi`` view, in the guard's frame.

    Cells omitted from ``cells`` default to :data:`FREE` (the gray cells of
    the paper's figures): they may be empty or off-grid but may *not* host a
    robot.  This default keeps guard declarations compact while remaining
    faithful — the paper's guards never leave an occupied cell undrawn.
    """

    phi: int
    cells: Tuple[Tuple[Offset, CellSpec], ...]
    default: CellSpec = FREE

    def __post_init__(self) -> None:
        if self.phi not in (1, 2):
            raise GuardError(f"unsupported visibility radius phi={self.phi}")
        valid = set(ball_offsets(self.phi))
        seen = set()
        for offset, spec in self.cells:
            if offset not in valid:
                raise GuardError(
                    f"guard cell offset {offset} outside the radius-{self.phi} ball"
                )
            if offset in seen:
                raise GuardError(f"guard cell offset {offset} specified twice")
            if not isinstance(spec, CellSpec):
                raise GuardError(f"guard cell at {offset} is not a CellSpec: {spec!r}")
            seen.add(offset)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        phi: int,
        default: CellSpec = FREE,
        **named_cells: CellSpec,
    ) -> "Guard":
        """Build a guard from compass-named cells.

        >>> g = Guard.build(1, W=occ("G"), E=EMPTY)
        >>> g.spec_at((0, -1))
        CellSpec(kind=<CellKind.OCCUPIED: 'occupied'>, colors=('G',))
        """
        cells = []
        for name, spec in named_cells.items():
            try:
                offset = NAMED_OFFSETS[name]
            except KeyError as exc:
                raise GuardError(f"unknown guard cell name {name!r}") from exc
            cells.append((offset, spec))
        return cls(phi=phi, cells=tuple(sorted(cells)), default=default)

    @classmethod
    def from_mapping(
        cls, phi: int, mapping: Mapping[Offset, CellSpec], default: CellSpec = FREE
    ) -> "Guard":
        """Build a guard from an offset -> spec mapping."""
        return cls(phi=phi, cells=tuple(sorted(mapping.items())), default=default)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def spec_at(self, offset: Offset) -> CellSpec:
        """The constraint on a given guard-frame offset."""
        for cell_offset, spec in self.cells:
            if cell_offset == offset:
                return spec
        return self.default

    def as_dict(self) -> Dict[Offset, CellSpec]:
        """All constrained cells as a dictionary (defaults not expanded)."""
        return dict(self.cells)

    def occupied_offsets(self) -> Tuple[Offset, ...]:
        """Guard-frame offsets that require a specific non-empty multiset."""
        return tuple(
            offset for offset, spec in self.cells if spec.kind is CellKind.OCCUPIED
        )

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def checks(self, symmetry: Symmetry, center_default: Optional[CellSpec] = None) -> GuardChecks:
        """The guard compiled for ``symmetry``: world-frame checks on a snapshot.

        The guard-frame offset ``o`` becomes a check on the snapshot cell at
        the world offset ``symmetry(o)``.  ``center_default`` is the
        constraint on the centre cell when the guard does not specify one
        (see :meth:`matches`).  :meth:`Algorithm.compiled_rules
        <repro.core.algorithm.Algorithm.compiled_rules>` keeps the result
        per rule and symmetry, so matching compiles each guard once.
        """
        explicit = self.as_dict()
        free = []
        exact = []
        for offset in ball_offsets(self.phi):
            spec = explicit.get(offset)
            if spec is None:
                if offset == (0, 0) and center_default is not None:
                    spec = center_default
                else:
                    spec = self.default
            kind = spec.kind
            if kind is CellKind.ANY:
                continue
            world = _BALL_OFFSETS[symmetry.apply(offset)]
            if kind is CellKind.FREE:
                free.append(world)
            elif kind is CellKind.WALL:
                exact.append((world, None))
            elif kind is CellKind.EMPTY:
                exact.append((world, ()))
            else:
                exact.append((world, spec.colors))
        return GuardChecks(tuple(free), tuple(exact))

    def matches(
        self,
        snapshot: Snapshot,
        symmetry: Symmetry,
        center_default: Optional[CellSpec] = None,
    ) -> bool:
        """Whether ``snapshot`` satisfies the guard under ``symmetry``.

        The guard-frame offset ``o`` is checked against the snapshot cell at
        the world offset ``symmetry(o)``.

        ``center_default`` is the constraint applied to the centre cell when
        the guard does not specify one.  The centre always hosts at least
        the observing robot, so the gray default used for the surrounding
        cells would never match there; :class:`Rule` passes "exactly the
        observing robot's own color", matching the paper's convention of
        drawing only ``c_r`` at the centre when the robot is alone on its
        node.
        """
        return self.checks(symmetry, center_default).holds(snapshot)


@dataclass(frozen=True)
class Rule:
    """One rule ``label : guard -> (c_new, movement)`` of an algorithm.

    ``self_color`` is the color ``c_r`` the observing robot must currently
    display for the rule to apply; ``move`` is expressed in the guard's
    frame (``"N"``, ``"S"``, ``"E"``, ``"W"`` or ``None`` for ``Idle``).
    """

    name: str
    self_color: Color
    guard: Guard
    new_color: Color
    move: Movement = IDLE

    def __post_init__(self) -> None:
        validate_color(self.self_color)
        validate_color(self.new_color)
        if self.move is not None and self.move not in _MOVE_OFFSETS:
            raise RuleError(f"rule {self.name}: invalid movement {self.move!r}")

    @property
    def phi(self) -> int:
        """Visibility radius of the rule's guard."""
        return self.guard.phi

    def move_offset(self) -> Optional[Offset]:
        """The guard-frame unit offset of the movement (``None`` for Idle)."""
        if self.move is None:
            return None
        return _MOVE_OFFSETS[self.move]

    def world_move(self, symmetry: Symmetry) -> Optional[Offset]:
        """The world-frame movement offset once the guard matched under ``symmetry``."""
        offset = self.move_offset()
        if offset is None:
            return None
        return symmetry.apply(offset)

    def center_spec(self) -> CellSpec:
        """The constraint on the robot's own node.

        If the guard names the centre cell explicitly (for instance
        ``C=occ("G", "W")`` for a robot stacked with another one) that
        constraint is used verbatim; otherwise the robot must be alone on
        its node, i.e. the centre multiset is exactly ``{self_color}``.
        """
        explicit = self.guard.as_dict().get((0, 0))
        if explicit is not None:
            return explicit
        return occ(self.self_color)

    def checks(self, symmetry: Symmetry) -> GuardChecks:
        """The guard compiled for ``symmetry``, centre defaulting to ``{self_color}``."""
        return self.guard.checks(symmetry, occ(self.self_color))

    def matches(self, snapshot: Snapshot, symmetry: Symmetry) -> bool:
        """Whether the rule's guard matches ``snapshot`` under ``symmetry``.

        The observing robot's own color is *not* checked here (the caller
        filters rules by ``self_color`` first); only the cell contents are.
        """
        return self.checks(symmetry).holds(snapshot)

    def action_label(self) -> str:
        """Human-readable action, e.g. ``"G,->"`` or ``"W,Idle"``."""
        arrow = {None: "Idle", "N": "^", "S": "v", "E": "->", "W": "<-"}[self.move]
        return f"{self.new_color},{arrow}"

    def __str__(self) -> str:
        return f"{self.name}: {self.self_color} / {self.action_label()}"


# ---------------------------------------------------------------------------
# ASCII guard art
# ---------------------------------------------------------------------------

_ART_SIZE = {1: 3, 2: 5}


def parse_guard_art(phi: int, art: str, default: CellSpec = FREE) -> Guard:
    """Parse a guard drawn as ASCII art.

    The drawing is a ``3x3`` (phi = 1) or ``5x5`` (phi = 2) token grid whose
    centre is the observing robot.  Tokens:

    * ``.``   gray cell (empty or off-grid) — the default;
    * ``o``   white cell (must be empty);
    * ``#``   black cell (must be off-grid);
    * ``?``   unconstrained;
    * ``_``   cell outside the visibility diamond (ignored);
    * a comma-free string of color letters, e.g. ``G`` or ``GW``, meaning
      the node hosts exactly those robots.

    Example (phi = 1)::

        parse_guard_art(1, '''
            _ o _
            G * o
            _ . _
        ''')

    The centre token must be ``*`` (the centre constraint, which also covers
    the observing robot itself, is supplied through the ``C`` keyword of
    :meth:`Guard.build`) or a color string constraining the full multiset on
    the robot's own node.
    """
    size = _ART_SIZE.get(phi)
    if size is None:
        raise GuardError(f"unsupported visibility radius phi={phi}")
    rows = [line.split() for line in art.strip().splitlines() if line.strip()]
    if len(rows) != size or any(len(row) != size for row in rows):
        raise GuardError(f"guard art for phi={phi} must be a {size}x{size} token grid")
    half = size // 2
    cells: Dict[Offset, CellSpec] = {}
    for r, row in enumerate(rows):
        for c, token in enumerate(row):
            offset = (r - half, c - half)
            inside = abs(offset[0]) + abs(offset[1]) <= phi
            if token == "_":
                if inside:
                    raise GuardError(f"cell {offset} is inside the ball, cannot be '_'")
                continue
            if not inside:
                raise GuardError(f"cell {offset} is outside the ball, use '_'")
            if offset == (0, 0):
                if token == "*":
                    continue
                cells[offset] = occ(*token)
                continue
            if token == ".":
                continue
            if token == "o":
                cells[offset] = EMPTY
            elif token == "#":
                cells[offset] = WALL
            elif token == "?":
                cells[offset] = ANY
            else:
                cells[offset] = occ(*token)
    return Guard.from_mapping(phi, cells, default=default)


def guard_to_art(guard: Guard) -> str:
    """Render a guard back to the ASCII-art syntax of :func:`parse_guard_art`."""
    size = _ART_SIZE[guard.phi]
    half = size // 2
    lines = []
    for r in range(size):
        tokens = []
        for c in range(size):
            offset = (r - half, c - half)
            if abs(offset[0]) + abs(offset[1]) > guard.phi:
                tokens.append("_")
                continue
            spec = guard.spec_at(offset)
            if offset == (0, 0) and spec == guard.default:
                tokens.append("*")
                continue
            if spec.kind is CellKind.OCCUPIED:
                tokens.append("".join(spec.colors))
            elif spec.kind is CellKind.EMPTY:
                tokens.append("o")
            elif spec.kind is CellKind.WALL:
                tokens.append("#")
            elif spec.kind is CellKind.ANY:
                tokens.append("?")
            else:
                tokens.append(".")
        lines.append(" ".join(tokens))
    return "\n".join(lines)
