"""Composable state-space reduction: grid symmetry x color symmetry x POR.

Before this module, "reduction" was a single hard-wired boolean
(``symmetry_reduction=``) that quotiented the exploration by grid
automorphisms only.  This module turns reduction into a first-class,
composable subsystem: a :class:`ReductionPipeline` built from pluggable
components, selected by a spec string threaded through every exploration
entry point (``explore``, ``explore_sharded``, the three
``repro.checking`` entry points, campaigns and the scaling sweeps)::

    reduction="grid"            # the old symmetry_reduction=True
    reduction="grid+color"      # + color-permutation symmetry
    reduction="grid+color+por"  # + ASYNC partial-order reduction
    reduction="none"            # the unreduced explorer

The three components, and why each preserves verdicts exactly:

**Grid-automorphism quotient** (``"grid"``) — the reduction previously
baked into the explorer, refactored into a component.  Guards match modulo
the robots' view symmetries, so the global dynamics commute with every grid
automorphism whose linear part is an allowed view symmetry; orbit members
generate isomorphic sub-state-spaces and one representative suffices.  See
:mod:`repro.engine.symmetry` for the full argument.

**Color-permutation symmetry** (``"color"``) — new.  A permutation ``pi``
of the algorithm's palette under which the *rule set* is invariant (every
rule maps to a rule of the set when ``pi`` is applied to its self color,
its new color and every color multiset in its guard) commutes with the
dynamics for exactly the same reason a grid automorphism does: snapshots of
``pi(s)`` are ``pi`` images of snapshots of ``s``, so matches — and hence
successors — correspond one-to-one (``succ(pi(s)) = pi(succ(s))``).
:func:`detect_color_permutations` finds the full stabilizer subgroup by
testing every palette permutation (``ell! <= 6`` for the paper's
``ell <= 3``) against a semantic canonical form of the rules; invariant
permutations automatically form a group.  The detected group composes with
the grid group as a *product action* (the two actions commute: one moves
positions, the other recolors lights), and canonicalization scans the
product orbit, returning the witnessing inverse for coverage accounting
exactly as the grid quotient does.

**ASYNC partial-order reduction** (``"por"``) — new, ample-set style.  The
ASYNC kernel exposes three atomic steps per robot per cycle, and the
interleavings of those micro-steps are the dominant blow-up.  At a state
where some robot has a pending *private* step — a step that reads and
writes only the robot's own phase-local fields, never its observable
position or color — the component expands only that robot's single
transition (the ample set) and defers every other robot.  Exactly two step
shapes qualify:

* a ``looked`` robot whose stored snapshot matches no rule (its Compute
  resets it to idle, changing nothing any other robot can observe), and
* a ``computed`` robot with no pending move (its Move only clears the
  phase bookkeeping; the color became visible at Compute time and the
  position does not change).

Both are deterministic, invisible to the checked properties (they change
no node occupancy) and *globally independent*: rule matching reads only
the positions and colors of other robots (:meth:`LocalMatcher.local_key`),
and these steps touch neither, so they commute with every transition of
every other robot and can neither disable one nor be disabled.  That makes
the singleton ample set satisfy the standard conditions C0-C2.  The cycle
proviso (C3) holds *by construction*: every ample step strictly decreases
the total phase measure (``idle=0 < looked=1 < computed=2`` summed over
robots), no other transition is offered at an ample state, and the measure
is bounded below — so no cycle lies entirely inside ample states and no
run can defer the other robots' transitions forever (after at most ``2k``
consecutive ample steps a fully expanded state is reached).  Termination
verdicts transfer in both directions (the reduced graph is an edge-subgraph
of the full one, and every full infinite run maps to a reduced one);
coverage verdicts transfer because ample steps move no robot, so every
full execution has a reduced representative with the identical Move
sequence and therefore the identical visited-node set.

The pipeline composes soundly: POR is applied to the representative
dynamics of the quotient (eligibility of a private step is invariant under
both group actions, since phases, pending moves and "no rule matches" are
preserved by them), so the composite graph is a POR of the quotient system
— two verdict-preserving reductions stacked.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Dict, List, Optional, Protocol, Tuple, Union

from ..core.algorithm import Algorithm
from ..core.grid import Grid, Node
from ..core.rules import CellKind
from ..core.views import ball_offsets
from .states import AsyncRobotState, SchedulerState
from .symmetry import (
    GridSymmetry,
    canonicalize as grid_canonicalize,
    grid_symmetries,
    transform_state,
)

__all__ = [
    "REDUCTION_COMPONENTS",
    "ColorPermutation",
    "ProductWitness",
    "Reduction",
    "ReductionPipeline",
    "detect_color_permutations",
    "normalize_reduction",
    "resolve_reduction",
    "transform_state_colors",
]

#: The pluggable components, in canonical spec order.
REDUCTION_COMPONENTS = ("grid", "color", "por")

#: What callers may pass as ``reduction=``: a spec string (``"grid"``,
#: ``"grid+color+por"``, ...), an already-built pipeline, or ``None`` (fall
#: back to the deprecated ``symmetry_reduction`` boolean).
ReductionSpec = Union[str, "ReductionPipeline", None]


class Reduction(Protocol):
    """What the pipeline needs from a pluggable reduction component.

    A component is *bound* to one ``(algorithm, grid, model)`` triple.  It
    may act as a quotient (``canonicalize`` maps a state to its orbit
    representative plus the witnessing inverse) and/or as a successor
    filter (``successors`` returns the ample subset, or ``None`` to decline
    and let the full expansion run).  ``active`` reports whether the
    component can do anything at all for its binding; inactive components
    drop out of the pipeline's ``active_spec``.
    """

    name: str

    @property
    def active(self) -> bool: ...


# ---------------------------------------------------------------------------
# Color permutations
# ---------------------------------------------------------------------------
class ColorPermutation:
    """A permutation of an algorithm's palette, acting on states by recoloring.

    Normalized at construction to a sorted-domain representation, so two
    permutations with the same *mapping* compare (and hash, and serialize)
    equal regardless of the domain order they were built from — an inverse
    built from a permuted domain is indistinguishable from the same mapping
    built from the palette directly.
    """

    __slots__ = ("domain", "image", "_map")

    def __init__(self, domain: Tuple[str, ...], image: Tuple[str, ...]) -> None:
        if sorted(domain) != sorted(image):
            raise ValueError(f"{image!r} is not a permutation of {domain!r}")
        pairs = tuple(sorted(zip(domain, image)))
        self.domain = tuple(color for color, _ in pairs)
        self.image = tuple(color for _, color in pairs)
        self._map = dict(pairs)

    @property
    def is_identity(self) -> bool:
        return self.domain == self.image

    @property
    def name(self) -> str:
        if self.is_identity:
            return "id"
        return ",".join(f"{a}->{b}" for a, b in zip(self.domain, self.image) if a != b)

    def color(self, color: str) -> str:
        """The image of one color (colors outside the domain pass through)."""
        return self._map.get(color, color)

    def inverse(self) -> "ColorPermutation":
        return ColorPermutation(self.image, self.domain)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ColorPermutation)
            and self.domain == other.domain
            and self.image == other.image
        )

    def __hash__(self) -> int:
        return hash((self.domain, self.image))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColorPermutation({self.name})"


def transform_state_colors(state: SchedulerState, perm: ColorPermutation) -> SchedulerState:
    """The image of a canonical scheduler state under a color permutation.

    Colors, pending colors and the color multisets inside stored ASYNC
    snapshots map through the permutation; positions, phases and pending
    moves are invariant.  (Snapshot cells keep their offset order: offsets
    are unique within a snapshot, so recoloring cannot reorder the tuple.)
    """
    records = []
    for record in state.robots:
        snapshot = record.snapshot
        if snapshot is not None:
            snapshot = tuple(
                (
                    offset,
                    content
                    if content is None
                    else tuple(sorted(perm.color(color) for color in content)),
                )
                for offset, content in snapshot
            )
        records.append(
            AsyncRobotState(
                pos=record.pos,
                color=perm.color(record.color),
                phase=record.phase,
                snapshot=snapshot,
                pending_color=(
                    perm.color(record.pending_color)
                    if record.pending_color
                    else record.pending_color
                ),
                pending_move=record.pending_move,
            )
        )
    return SchedulerState.from_records(records)


def _semantic_rules(algorithm: Algorithm, perm: ColorPermutation) -> frozenset:
    """The rule set as a name-free semantic canonical form, recolored by ``perm``.

    Two rule sets with equal canonical forms have identical matching
    behaviour: every guard cell is expanded (defaults included, the centre
    through :meth:`Rule.center_spec`), multisets are re-sorted after
    recoloring, and rule names are dropped.
    """
    forms = []
    for rule in algorithm.rules:
        cells = []
        for offset in ball_offsets(rule.phi):
            spec = rule.center_spec() if offset == (0, 0) else rule.guard.spec_at(offset)
            colors = (
                tuple(sorted(perm.color(color) for color in spec.colors))
                if spec.kind is CellKind.OCCUPIED
                else ()
            )
            cells.append((offset, spec.kind.value, colors))
        forms.append(
            (
                perm.color(rule.self_color),
                perm.color(rule.new_color),
                rule.move,
                tuple(cells),
            )
        )
    return frozenset(forms)


@lru_cache(maxsize=256)
def detect_color_permutations(algorithm: Algorithm) -> Tuple[ColorPermutation, ...]:
    """The palette permutations under which the rule set is invariant.

    Always contains the identity first.  Invariance is decided on the
    semantic canonical form of the rules (guards expanded cell by cell, so
    equivalent declarations compare equal), and the invariant permutations
    form a group automatically — the stabilizer of the rule set inside the
    symmetric group of the palette.  Memoized per algorithm: the scan is
    ``ell! * |rules|`` work and every exploration of the same algorithm
    asks for the same answer.
    """
    colors = algorithm.colors
    identity = ColorPermutation(colors, colors)
    result = [identity]
    if len(colors) > 1:
        base = _semantic_rules(algorithm, identity)
        for image in permutations(colors):
            if image == colors:
                continue
            candidate = ColorPermutation(colors, image)
            if _semantic_rules(algorithm, candidate) == base:
                result.append(candidate)
    return tuple(result)


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------
class ProductWitness:
    """A product-group witness ``h`` with ``raw = h(rep)``.

    The grid part moves nodes, the color part recolors lights; the two
    actions commute, so application order is irrelevant.  Only the grid
    part matters for coverage accounting (``node``): guaranteed-node sets
    contain positions, which a recoloring leaves untouched.  Either part
    may be ``None`` (identity).
    """

    __slots__ = ("grid", "color")

    def __init__(
        self, grid: Optional[GridSymmetry], color: Optional[ColorPermutation]
    ) -> None:
        self.grid = grid
        self.color = color

    def node(self, node: Node) -> Node:
        """The image of a grid node (the coverage-fixpoint hook)."""
        return self.grid.node(node) if self.grid is not None else node

    def apply(self, state: SchedulerState) -> SchedulerState:
        """The image of a state (testing/debugging aid)."""
        if self.color is not None:
            state = transform_state_colors(state, self.color)
        if self.grid is not None:
            state = transform_state(state, self.grid)
        return state

    @property
    def name(self) -> str:
        grid = self.grid.name if self.grid is not None else "id"
        color = self.color.name if self.color is not None else "id"
        return f"{grid}|{color}"

    def _key(self):
        return (
            (self.grid.name, self.grid.m, self.grid.n) if self.grid is not None else None,
            (self.color.domain, self.color.image) if self.color is not None else None,
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProductWitness) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProductWitness({self.name})"


#: The interning key of a product witness: ``(grid name | None, color
#: image | None)``.
WitnessKey = Tuple[Optional[str], Optional[Tuple[str, ...]]]


# ---------------------------------------------------------------------------
# Spec handling
# ---------------------------------------------------------------------------
def normalize_reduction(
    reduction: ReductionSpec, symmetry_reduction: bool = False
) -> str:
    """Normalize a ``reduction=`` argument to a canonical spec string.

    ``None`` falls back to the deprecated ``symmetry_reduction`` boolean
    (``True`` is an alias for ``"grid"``).  Component names may come in any
    order and are emitted in canonical order (``grid+color+por``).
    """
    if reduction is None:
        return "grid" if symmetry_reduction else "none"
    if isinstance(reduction, ReductionPipeline):
        return reduction.spec
    if not isinstance(reduction, str):
        raise TypeError(
            f"reduction must be a spec string, a ReductionPipeline or None, got {reduction!r}"
        )
    parts = [part.strip().lower() for part in reduction.split("+")]
    parts = [part for part in parts if part]
    if not parts or parts == ["none"]:
        return "none"
    chosen = set()
    for part in parts:
        if part not in REDUCTION_COMPONENTS:
            raise ValueError(
                f"unknown reduction component {part!r}; expected a '+'-combination"
                f" of {REDUCTION_COMPONENTS} or 'none'"
            )
        chosen.add(part)
    return "+".join(name for name in REDUCTION_COMPONENTS if name in chosen)


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------
class GridSymmetryReduction:
    """The grid-automorphism quotient as a pipeline component."""

    name = "grid"

    def __init__(self, algorithm: Algorithm, grid: Grid) -> None:
        self.symmetries = grid_symmetries(grid, algorithm.chirality)

    @property
    def active(self) -> bool:
        return len(self.symmetries) > 1


class ColorSymmetryReduction:
    """The detected color-permutation quotient as a pipeline component."""

    name = "color"

    def __init__(self, algorithm: Algorithm) -> None:
        self.permutations = detect_color_permutations(algorithm)

    @property
    def active(self) -> bool:
        return len(self.permutations) > 1


class AsyncPartialOrderReduction:
    """Ample-set partial-order reduction for the ASYNC micro-step kernel.

    See the module docstring for the soundness argument.  The component is
    inert outside ASYNC (the synchronous models have no micro-step
    interleavings to prune).
    """

    name = "por"

    def __init__(self, model: str) -> None:
        self.model = model

    @property
    def active(self) -> bool:
        return self.model == "ASYNC"

    def ample_successors(
        self, ts, state: SchedulerState, counters: Dict[str, int]
    ) -> Optional[List[SchedulerState]]:
        """The singleton ample expansion of ``state``, or ``None`` to decline.

        Scans the (canonically ordered) records for the first robot with a
        pending private step and returns exactly the successor the kernel
        would produce for that step; the representative choice is a
        deterministic function of the canonical state, so every exploration
        of the same state agrees.
        """
        records = state.robots
        matcher = ts.matcher
        algorithm = ts.algorithm
        for index, record in enumerate(records):
            if record.phase == "computed":
                if record.pending_move is not None:
                    continue
            elif record.phase == "looked":
                matches = matcher.matches_for_frozen(record.snapshot, record.color)
                if algorithm.distinct_actions(matches):
                    continue
            else:
                continue
            # ``record`` holds a private step: finalize it and defer the rest.
            updated = list(records)
            updated[index] = AsyncRobotState(pos=record.pos, color=record.color)
            counters["por_ample_states"] += 1
            deferred = 0
            for i, other in enumerate(records):
                if i == index:
                    continue
                if other.phase != "idle":
                    deferred += 1
                elif matcher.matches(records, other.pos, other.color):
                    # An enabled idle robot's Look was deferred too (the
                    # matches are memoized, so this accounting costs at most
                    # what the full expansion would have paid anyway).
                    deferred += 1
            counters["por_interleavings_pruned"] += deferred
            return [SchedulerState.from_records(updated)]
        return None


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------
class ReductionPipeline:
    """A composition of reduction components bound to one exploration context.

    Built from a spec string via :func:`resolve_reduction` (or directly);
    pass an instance as ``reduction=`` to reuse the detected groups across
    explorations of the same ``(algorithm, grid, model)`` triple.  The
    explorer drives it through two hooks:

    * :meth:`successors` — the (possibly POR-pruned) expansion of a state;
    * :meth:`canonicalize` — the orbit representative under the product of
      the active quotient groups, plus the witnessing inverse.

    ``counters`` accumulates per-component reduction statistics (orbit
    collapses, ample states, interleavings pruned); they are deterministic
    for a given exploration and surfaced as ``Exploration.reduction_stats``.
    """

    def __init__(self, algorithm: Algorithm, grid: Grid, model: str, spec: str = "none") -> None:
        self.algorithm = algorithm
        self.grid = grid
        self.model = model
        self.spec = normalize_reduction(spec)
        parts = () if self.spec == "none" else tuple(self.spec.split("+"))

        self._grid = GridSymmetryReduction(algorithm, grid) if "grid" in parts else None
        self._color = ColorSymmetryReduction(algorithm) if "color" in parts else None
        self._por = AsyncPartialOrderReduction(model) if "por" in parts else None

        self.components: Tuple[Reduction, ...] = tuple(
            component for component in (self._grid, self._color, self._por) if component is not None
        )
        #: The components that can actually do work for this binding, in
        #: canonical order; ``"none"`` when every requested component is inert.
        self.active_spec = (
            "+".join(component.name for component in self.components if component.active) or "none"
        )
        #: Whether a quotient (grid and/or color) is active — the meaning the
        #: pre-pipeline ``Exploration.reduced`` flag always had.
        self.reduced = bool(
            (self._grid is not None and self._grid.active)
            or (self._color is not None and self._color.active)
        )
        self.counters: Dict[str, int] = {
            "grid_orbit_collapses": 0,
            "color_orbit_collapses": 0,
            "por_ample_states": 0,
            "por_interleavings_pruned": 0,
        }
        self._witnesses: Dict[WitnessKey, ProductWitness] = {}

    # ------------------------------------------------------------------
    # Expansion (POR hook)
    # ------------------------------------------------------------------
    def successors(self, ts, state: SchedulerState) -> List[SchedulerState]:
        """Expand ``state`` through the pipeline's successor filter."""
        if self._por is not None and self._por.active:
            ample = self._por.ample_successors(ts, state, self.counters)
            if ample is not None:
                return ample
        return ts.successors(state)

    # ------------------------------------------------------------------
    # Canonicalization (quotient hook)
    # ------------------------------------------------------------------
    def canonicalize(self, state: SchedulerState):
        """The orbit representative of ``state`` and the witness undoing it.

        Returns ``(rep, h)`` with ``state = h(rep)`` (``h`` is ``None`` for
        the identity).  With only the grid quotient active the witness is
        the plain :class:`GridSymmetry` the pre-pipeline explorer attached —
        grid-only runs stay byte-identical.  With the color quotient active
        the scan covers the product orbit and the witness is a
        :class:`ProductWitness`.
        """
        if not self.reduced:
            return state, None
        color_active = self._color is not None and self._color.active
        if not color_active:
            assert self._grid is not None
            rep, h = grid_canonicalize(state, self._grid.symmetries)
            if h is not None:
                self.counters["grid_orbit_collapses"] += 1
            return rep, h

        grid_elements: Tuple[Optional[GridSymmetry], ...]
        if self._grid is not None and self._grid.active:
            grid_elements = self._grid.symmetries
        else:
            grid_elements = (None,)
        best = state
        best_key = state.sort_key()
        best_grid: Optional[GridSymmetry] = None
        best_color: Optional[ColorPermutation] = None
        for perm in self._color.permutations:
            recolored = state if perm.is_identity else transform_state_colors(state, perm)
            for gs in grid_elements:
                if gs is None or gs.is_identity:
                    if perm.is_identity:
                        continue  # the identity pair is ``state`` itself
                    candidate = recolored
                else:
                    candidate = transform_state(recolored, gs)
                key = candidate.sort_key()
                if key < best_key:
                    best = candidate
                    best_key = key
                    best_grid = None if gs is None or gs.is_identity else gs
                    best_color = None if perm.is_identity else perm
        if best_grid is None and best_color is None:
            return best, None
        if best_grid is not None:
            self.counters["grid_orbit_collapses"] += 1
        if best_color is not None:
            self.counters["color_orbit_collapses"] += 1
        grid_inverse = best_grid.inverse() if best_grid is not None else None
        color_inverse = best_color.inverse() if best_color is not None else None
        key: WitnessKey = (
            grid_inverse.name if grid_inverse is not None else None,
            color_inverse.image if color_inverse is not None else None,
        )
        witness = self._witnesses.get(key)
        if witness is None:
            witness = ProductWitness(grid_inverse, color_inverse)
            self._witnesses[key] = witness
        return best, witness

    # ------------------------------------------------------------------
    # Budget messages and statistics
    # ------------------------------------------------------------------
    @property
    def budget_note(self) -> str:
        """The suffix :class:`StateSpaceLimitExceeded` messages carry.

        ``"grid"`` keeps the pre-pipeline wording (``symmetry reduction
        on``) so existing tooling that greps budget-trip messages keeps
        working; richer specs name the active components.
        """
        if self.active_spec == "none":
            return ""
        if self.active_spec == "grid":
            return ", symmetry reduction on"
        return f", reduction {self.active_spec} on"

    def counters_snapshot(self) -> Dict[str, int]:
        return dict(self.counters)

    def counters_delta(self, before: Dict[str, int]) -> Dict[str, int]:
        return {key: value - before.get(key, 0) for key, value in self.counters.items()}

    def stats_report(
        self, counters: Optional[Dict[str, int]] = None
    ) -> Optional[Dict[str, Dict[str, float]]]:
        """Per-component reduction statistics for one exploration.

        ``None`` when no component is active (mirrors ``matcher_stats``
        being ``None`` without a matcher).  Otherwise one entry per active
        component — orbit collapses for the quotients, ample states and
        pruned interleavings for POR.
        """
        if self.active_spec == "none":
            return None
        counters = counters if counters is not None else self.counters
        report: Dict[str, Dict[str, float]] = {}
        if self._grid is not None and self._grid.active:
            report["grid"] = {
                "group_order": len(self._grid.symmetries),
                "orbit_collapses": counters.get("grid_orbit_collapses", 0),
            }
        if self._color is not None and self._color.active:
            report["color"] = {
                "group_order": len(self._color.permutations),
                "orbit_collapses": counters.get("color_orbit_collapses", 0),
            }
        if self._por is not None and self._por.active:
            report["por"] = {
                "ample_states": counters.get("por_ample_states", 0),
                "interleavings_pruned": counters.get("por_interleavings_pruned", 0),
            }
        return report


def resolve_reduction(
    reduction: ReductionSpec,
    symmetry_reduction: bool,
    algorithm: Algorithm,
    grid: Grid,
    model: str,
) -> ReductionPipeline:
    """The bound pipeline for a ``reduction=``/``symmetry_reduction=`` pair.

    A caller-supplied :class:`ReductionPipeline` is reused when its binding
    matches (so detected groups and interned witnesses carry over) and
    transparently rebuilt from its spec when it does not.
    """
    if isinstance(reduction, ReductionPipeline):
        if (
            reduction.algorithm is algorithm
            and reduction.grid.m == grid.m
            and reduction.grid.n == grid.n
            and reduction.model == model
        ):
            return reduction
        return ReductionPipeline(algorithm, grid, model, spec=reduction.spec)
    return ReductionPipeline(
        algorithm, grid, model, spec=normalize_reduction(reduction, symmetry_reduction)
    )
