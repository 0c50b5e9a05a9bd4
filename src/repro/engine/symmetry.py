"""Grid-symmetry reduction for the state-space explorer.

The paper's guards match a snapshot under every view symmetry the robots
cannot distinguish: the four rotations with a common chirality, the full
dihedral group D4 without one (:func:`repro.core.views.symmetries_for`).
A direct consequence is that the *global* dynamics commute with every grid
automorphism whose linear part lies in that group: if ``g`` maps the grid
onto itself and ``s'`` is a successor of ``s``, then ``g(s')`` is a
successor of ``g(s)``.  Two states in the same orbit therefore generate
isomorphic sub-state-spaces and only one representative needs exploring —
the classic symmetry-reduction trick of explicit-state model checkers.

Soundness of the restriction to ``symmetries_for(chirality)``: with a
common chirality, rule matching only quantifies over rotations, so a
*reflected* configuration may behave differently — reflections are only
folded in for chirality-free algorithms, where matching already quantifies
over them.

An ``m x n`` grid admits the identity and the 180-degree rotation for any
shape, the axis flips when reflections are allowed, and the four diagonal
elements (rot90/rot270/transpose/antitranspose) only when ``m == n``.

Coverage accounting across collapsed edges needs the witnessing symmetry:
if a raw successor ``u`` canonicalises to representative ``r`` via
``r = g(u)``, then the set of nodes guaranteed to be visited from ``u`` is
``h(guaranteed(r))`` with ``h = g^-1``.  :func:`canonicalize` returns that
``h`` so the explorer can label the quotient edge with it, and
:meth:`GridSymmetry.mask` maps a node bitmask through it.

The quotient is the only state-space reduction: ``reduction="grid"``
selects it on every exploration entry point and ``"none"`` (the default of
the checking layer) explores unreduced; :func:`normalize_reduction` is the
one spelling of that argument.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Tuple

from ..core.grid import Grid, Node
from ..core.views import ALL_SYMMETRIES, Symmetry, ball_offsets, symmetries_for
from .states import AsyncRobotState, SchedulerState

__all__ = [
    "GridSymmetry",
    "grid_symmetries",
    "transform_state",
    "canonicalize",
    "normalize_reduction",
]


class _Images(dict):
    """The point table of one affine map of Z^2, filled on lookup.

    The first lookup of a point computes its image by the map's arithmetic
    and stores it, so later lookups are plain dictionary reads.  ``points``
    are precomputed at construction.  A table holds only the points looked
    up so far: its size follows the states explored, not the grid.
    """

    __slots__ = ("_map",)

    def __init__(self, a: int, b: int, c: int, d: int, ti: int, tj: int, points=()) -> None:
        super().__init__()
        self._map = (a, b, c, d, ti, tj)
        for point in points:
            self.__missing__(point)

    def __missing__(self, point: Tuple[int, int]) -> Tuple[int, int]:
        # Threads sharing a table may both miss a point; they store the
        # same image, so the race needs no lock.
        a, b, c, d, ti, tj = self._map
        i, j = point
        image = self[point] = (a * i + b * j + ti, c * i + d * j + tj)
        return image


class _MaskBytes(dict):
    """The bit permutation of one grid symmetry, by mask byte, filled on lookup.

    Node ``(i, j)`` is bit ``i * n + j`` of a mask.  The key
    ``position << 8 | byte`` stands for the value ``byte`` at byte
    ``position`` of a mask; its entry is the mask of those nodes' images.
    A table holds only the bytes looked up so far.
    """

    __slots__ = ("_nodes", "_n")

    def __init__(self, nodes: _Images, n: int) -> None:
        super().__init__()
        self._nodes = nodes
        self._n = n

    def __missing__(self, key: int) -> int:
        # Threads sharing a table may both miss a byte; they store the same
        # image, so the race needs no lock.
        nodes, n = self._nodes, self._n
        first = (key >> 8) * 8
        image = 0
        for bit in range(8):
            if key >> bit & 1:
                i, j = nodes[divmod(first + bit, n)]
                image |= 1 << (i * n + j)
        self[key] = image
        return image


class GridSymmetry:
    """A symmetry of the ``m x n`` grid induced by a D4 element.

    The node action is ``v -> sigma(v) + t`` where ``t`` translates the
    image of the ``[0, m) x [0, n)`` rectangle back onto itself; offsets
    (relative moves, snapshot cells) transform by the linear part alone.

    Both actions are point tables, so :func:`canonicalize` maps a record
    with dictionary lookups instead of matrix products: the offset table
    is precomputed over the radius-2 ball, and the node table fills in as
    positions are looked up, so a symmetry of a huge grid costs nothing
    until states are explored on it.  The bit permutation that maps node
    bitmasks (:meth:`mask`) fills in the same way, a byte at a time.
    """

    __slots__ = (
        "symmetry", "m", "n", "_ti", "_tj", "preserves_shape", "_inverse",
        "nodes", "offsets", "is_identity", "_mask_bytes",
    )

    def __init__(self, symmetry: Symmetry, m: int, n: int) -> None:
        self.symmetry = symmetry
        self.m = m
        self.n = n
        corners = ((0, 0), (m - 1, 0), (0, n - 1), (m - 1, n - 1))
        images = [symmetry.apply(corner) for corner in corners]
        min_i = min(i for i, _ in images)
        max_i = max(i for i, _ in images)
        min_j = min(j for _, j in images)
        max_j = max(j for _, j in images)
        self._ti = -min_i
        self._tj = -min_j
        self.preserves_shape = (max_i - min_i == m - 1) and (max_j - min_j == n - 1)
        a, b, c, d = symmetry.a, symmetry.b, symmetry.c, symmetry.d
        #: Node -> image, filled on lookup.
        self.nodes = _Images(a, b, c, d, self._ti, self._tj)
        #: Offset -> image (linear part), precomputed over the radius-2 ball.
        self.offsets = _Images(a, b, c, d, 0, 0, ball_offsets(2))
        self.is_identity = symmetry.matrix() == ((1, 0), (0, 1))
        self._mask_bytes = _MaskBytes(self.nodes, n)

    @property
    def name(self) -> str:
        return self.symmetry.name

    def node(self, node: Node) -> Node:
        """The image of a grid node."""
        return self.nodes[node]

    def offset(self, offset: Tuple[int, int]) -> Tuple[int, int]:
        """The image of a relative offset (linear part only)."""
        return self.offsets[offset]

    def mask(self, mask: int) -> int:
        """The image of a node bitmask, node ``(i, j)`` being bit ``i * n + j``.

        The symmetry preserves the grid's shape, so the image uses the same
        numbering.  Each non-zero byte of ``mask`` costs one table lookup.
        """
        table = self._mask_bytes
        image = 0
        key = 0
        for byte in mask.to_bytes((self.m * self.n + 7) // 8, "little"):
            if byte:
                image |= table[key | byte]
            key += 256
        return image

    def inverse(self) -> "GridSymmetry":
        """The inverse grid symmetry (D4 is a group, so it always exists).

        Cached on the instance: :func:`canonicalize` asks for the inverse of
        the winning symmetry on every call, and the D4 scan plus the
        :class:`GridSymmetry` construction are pure functions of ``self``.
        """
        try:
            return self._inverse
        except AttributeError:
            pass
        for candidate in ALL_SYMMETRIES:
            if (
                candidate.apply(self.symmetry.apply((1, 0))) == (1, 0)
                and candidate.apply(self.symmetry.apply((0, 1))) == (0, 1)
            ):
                self._inverse = GridSymmetry(candidate, self.m, self.n)
                return self._inverse
        raise AssertionError(f"no inverse for {self.name}")  # pragma: no cover

    def __eq__(self, other: object) -> bool:
        # Value equality on the defining triple: a GridSymmetry is a pure
        # function of (symmetry, m, n), whichever instance built it.
        if not isinstance(other, GridSymmetry):
            return NotImplemented
        return (self.symmetry, self.m, self.n) == (other.symmetry, other.m, other.n)

    def __hash__(self) -> int:
        return hash((self.symmetry, self.m, self.n))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GridSymmetry({self.name}, {self.m}x{self.n})"


@lru_cache(maxsize=256)
def _grid_symmetries_cached(m: int, n: int, chirality: bool) -> Tuple[GridSymmetry, ...]:
    result = []
    for symmetry in symmetries_for(chirality):
        candidate = GridSymmetry(symmetry, m, n)
        if candidate.preserves_shape:
            result.append(candidate)
    return tuple(result)


def grid_symmetries(grid: Grid, chirality: bool) -> Tuple[GridSymmetry, ...]:
    """The grid automorphisms usable for reduction, mindful of chirality.

    Always contains the identity first.  With ``chirality=True`` only the
    rotations are candidates; without it all eight D4 elements are.  The
    diagonal elements survive only on square grids.

    Memoized per ``(m, n, chirality)``: one exploration computes the group
    once (and :func:`canonicalize` reuses each element's cached inverse),
    instead of rebuilding the eight candidate symmetries per call site.
    """
    return _grid_symmetries_cached(grid.m, grid.n, chirality)


def transform_state(state: SchedulerState, gs: GridSymmetry) -> SchedulerState:
    """The image of a canonical scheduler state under a grid symmetry.

    Positions map through the node action; stored ASYNC snapshots and
    pending moves map through the linear part (a robot's local view rotates
    with the world around it); colors and phases are invariant.
    """
    nodes = gs.nodes
    offsets = gs.offsets
    records = []
    for record in state.robots:
        snapshot = record.snapshot
        if snapshot is not None:
            snapshot = tuple(sorted([(offsets[offset], content) for offset, content in snapshot]))
        pending_move = record.pending_move
        if pending_move is not None:
            pending_move = offsets[pending_move]
        records.append(
            AsyncRobotState(
                pos=nodes[record.pos],
                color=record.color,
                phase=record.phase,
                snapshot=snapshot,
                pending_color=record.pending_color,
                pending_move=pending_move,
            )
        )
    return SchedulerState.from_records(records)


#: The sort-key tail of a record with no snapshot and nothing pending.
_BARE_TAIL = ((), "", (9, 9))


class _Tail:
    """The sort-key fields after ``(pos, color, phase)`` of one mapped record.

    :meth:`SchedulerState.sort_key` orders a record by ``(pos, color,
    phase, snapshot, pending_color, pending_move)``.  Comparisons of
    candidate keys reach these tail fields only when everything before
    them ties, so the snapshot and pending move are mapped then, once, and
    never for a record a comparison settles earlier.  ``offsets`` is the
    symmetry's offset table, or ``None`` for the state's own records,
    whose key is taken as stored.  Snapshot cells are compared raw; see
    :meth:`SchedulerState.sort_key` for why an off-grid cell never meets
    an on-grid one.
    """

    __slots__ = ("record", "offsets", "_key")

    def __init__(self, record: AsyncRobotState, offsets) -> None:
        self.record = record
        self.offsets = offsets

    def key(self):
        try:
            return self._key
        except AttributeError:
            pass
        record = self.record
        offsets = self.offsets
        snapshot = record.snapshot or ()
        pending_move = record.pending_move
        if offsets is None:
            cells = snapshot
        else:
            cells = tuple(sorted([(offsets[offset], content) for offset, content in snapshot]))
            if pending_move is not None:
                pending_move = offsets[pending_move]
        self._key = (
            cells,
            record.pending_color or "",
            pending_move if pending_move is not None else (9, 9),
        )
        return self._key

    def __eq__(self, other):
        return self.key() == (other.key() if other.__class__ is _Tail else other)

    def __lt__(self, other):
        return self.key() < (other.key() if other.__class__ is _Tail else other)

    def __gt__(self, other):
        return self.key() > (other.key() if other.__class__ is _Tail else other)

    __hash__ = None  # type: ignore[assignment]


def _tail(record: AsyncRobotState, offsets):
    if record.snapshot is None and record.pending_move is None and record.pending_color is None:
        return _BARE_TAIL
    return _Tail(record, offsets)


def canonicalize(
    state: SchedulerState, symmetries: Iterable[GridSymmetry]
) -> Tuple[SchedulerState, Optional[GridSymmetry]]:
    """The orbit representative of ``state`` and the symmetry that undoes it.

    Returns ``(rep, h)`` with ``state = h(rep)`` (``h`` is ``None`` when the
    state is its own representative under the identity).  The representative
    is the orbit member with the smallest :meth:`SchedulerState.sort_key`,
    which is injective, so every member of an orbit canonicalises to the
    same state regardless of enumeration order; among symmetries that reach
    it, the first in ``symmetries`` wins.

    Candidates are compared without being built: each one's sort key is the
    sorted list of its records' ``(g(pos), color, phase, tail)``, read from
    the symmetry's node table, where the tail (:class:`_Tail`) maps a
    snapshot or pending move only when a comparison reaches it.  A
    candidate whose smallest mapped position exceeds the best key's first
    position loses before its key is built.  Only the winning state is
    built.
    """
    robots = state.robots
    if not robots:
        return state, None
    positions = [record.pos for record in robots]
    best_first = positions[0]
    best_key = None
    best_sym: Optional[GridSymmetry] = None
    for gs in symmetries:
        if gs.is_identity:
            continue
        nodes = gs.nodes
        first = min([nodes[pos] for pos in positions])
        if first > best_first:
            continue
        offsets = gs.offsets
        key = [
            (nodes[record.pos], record.color, record.phase, _tail(record, offsets))
            for record in robots
        ]
        key.sort()
        if best_key is None:
            # The state's own key, in its stored record order.
            best_key = [
                (record.pos, record.color, record.phase, _tail(record, None)) for record in robots
            ]
        if key < best_key:
            best_key = key
            best_first = first
            best_sym = gs
    if best_sym is None:
        return state, None
    return transform_state(state, best_sym), best_sym.inverse()


def normalize_reduction(reduction: Optional[str]) -> str:
    """The canonical spelling of a ``reduction=`` argument.

    ``None``, ``""`` and ``"none"`` mean the unreduced exploration
    (``"none"``); ``"grid"`` means the grid-automorphism quotient.  Case and
    surrounding whitespace are ignored.  Any other string raises
    :class:`ValueError`, anything but a string or ``None``
    :class:`TypeError`.
    """
    if reduction is None:
        return "none"
    if not isinstance(reduction, str):
        raise TypeError(f"reduction must be 'none', 'grid' or None, got {reduction!r}")
    spec = reduction.strip().lower() or "none"
    if spec not in ("none", "grid"):
        raise ValueError(f"unknown reduction {reduction!r}; expected 'none' or 'grid'")
    return spec
