"""Frontier-based exploration of a transition system's state space.

The explorer searches the kernel's state space: starting from the
transition system's initial state it discovers every reachable canonical
state with a breadth-first frontier, interning states into dense integer
indices (so the graph algorithms below run on plain int lists instead of
re-hashing dataclasses), and optionally quotienting the search by the grid
automorphisms the algorithm cannot distinguish (``reduction="grid"``; see
:mod:`repro.engine.symmetry`).

Under the quotient, every raw successor is replaced by its orbit
representative and the edge is labelled with the witness ``h`` mapping the
representative's coordinates back to the raw successor's.  Termination is
preserved by the quotient (a quotient cycle lifts to an infinite — hence,
on a finite space, cyclic — raw execution and vice versa); coverage is
computed exactly by pushing guaranteed-node sets through the edge labels.

:func:`explore_sharded` is the algorithm-level entry point the checking
layer calls: it builds the
:class:`~repro.engine.transition.AlgorithmTransitionSystem` for an
``(algorithm, grid, model)`` triple on the backend's matcher cache and
explores it here, in the calling process.  That transition system is the
only successor kernel.  No exploration is split across processes;
parallelism lives one level up, in campaign task lists
(:mod:`repro.engine.backend`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional

from ..core.algorithm import Algorithm
from ..core.errors import StateSpaceLimitExceeded
from ..core.grid import Grid, Node
from .profile import KernelProfile, profiling_enabled
from .states import SchedulerState
from .symmetry import GridSymmetry, canonicalize, grid_symmetries, normalize_reduction
from .transition import MODELS, AlgorithmTransitionSystem

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a module cycle)
    from .backend import ExecutionBackend

__all__ = [
    "Exploration",
    "explore",
    "explore_sharded",
    "has_cycle",
    "topological_order",
    "guaranteed_nodes",
]


@dataclass
class Exploration:
    """The interned successor graph of one exploration."""

    #: Synchrony model the graph was built under.
    model: str
    #: Whether the graph is the grid-automorphism quotient.
    reduced: bool
    #: Index -> canonical state (orbit representatives when ``reduced``).
    states: List[SchedulerState]
    #: Canonical state -> index (the interning table).
    index: Dict[SchedulerState, int]
    #: Index -> successor indices.
    succ: List[List[int]]
    #: When ``reduced``: per-edge witness ``h`` with ``raw = h(rep)``, a
    #: :class:`~repro.engine.symmetry.GridSymmetry` (``None`` entries mean
    #: the identity).  ``None`` when not reduced.
    edge_syms: Optional[List[List[Optional[GridSymmetry]]]]
    #: Index of the (canonicalised) initial state.
    root: int
    #: Witness mapping the canonical root back to the raw initial state
    #: (``None`` for the identity or when not reduced).
    root_sym: Optional[GridSymmetry] = field(default=None)
    #: Matcher cache counters accumulated *during this exploration* —
    #: ``{"hits", "misses", "hit_rate"}`` — observability for the
    #: snapshot/match memo layer.  ``None`` when the transition system
    #: does not expose a matcher.
    matcher_stats: Optional[Dict[str, float]] = field(default=None)
    #: The reduction the graph was built under: ``"grid"`` when
    #: ``reduced``, else ``"none"``.
    reduction: str = field(default="none")
    #: Quotient statistics of this exploration,
    #: ``{"grid": {"group_order", "orbit_collapses"}}``, where
    #: ``orbit_collapses`` counts the root and every successor that
    #: canonicalised through a non-identity witness.  Deterministic;
    #: ``None`` when not reduced.
    reduction_stats: Optional[Dict[str, Dict[str, float]]] = field(default=None)
    #: Opt-in per-phase wall-clock split (``REPRO_PROFILE=1``; see
    #: :mod:`repro.engine.profile`) — ``{"match_s", "canonicalise_s",
    #: "dedup_s", "total_s"}``.  Timing is observability, not a result:
    #: excluded from equality.
    profile: Optional[Dict[str, float]] = field(default=None, compare=False)

    @property
    def num_states(self) -> int:
        return len(self.states)

    def terminal_indices(self) -> List[int]:
        return [i for i, children in enumerate(self.succ) if not children]

    def graph(self) -> Dict[SchedulerState, List[SchedulerState]]:
        """The state-keyed successor mapping (backward-compatible shape)."""
        states = self.states
        return {states[i]: [states[j] for j in children] for i, children in enumerate(self.succ)}


def explore(
    ts: AlgorithmTransitionSystem,
    *,
    reduction: Optional[str] = None,
    max_states: int = 200_000,
) -> Exploration:
    """Build the (optionally reduced) reachable successor graph.

    ``reduction`` is ``"grid"`` for the grid-automorphism quotient or
    ``"none"`` (``None``) for the unreduced graph; see
    :func:`~repro.engine.symmetry.normalize_reduction`.  The graph is
    transient: nothing here caches it, only the verdicts computed from it
    are stored (:mod:`repro.engine.store`).

    Raises :class:`~repro.core.errors.StateSpaceLimitExceeded` — with the
    exploration context attached — as soon as more than ``max_states``
    distinct states have been discovered.
    """
    reduce = normalize_reduction(reduction) == "grid"
    symmetries = grid_symmetries(ts.grid, ts.algorithm.chirality) if reduce else ()

    profile = KernelProfile() if profiling_enabled() else None
    matcher = getattr(ts, "matcher", None)
    stats_before = matcher.stats.snapshot() if matcher is not None else None

    root_raw = ts.initial()
    if reduce:
        root_state, root_sym = canonicalize(root_raw, symmetries)
    else:
        root_state, root_sym = root_raw, None
    collapses = 0 if root_sym is None else 1

    states: List[SchedulerState] = [root_state]
    index: Dict[SchedulerState, int] = {root_state: 0}
    succ: List[List[int]] = []
    edge_syms: Optional[List[List[Optional[GridSymmetry]]]] = [] if reduce else None
    frontier = deque([0])

    while frontier:
        current = frontier.popleft()
        # BFS discovers states in index order, so expansions align with succ.
        assert current == len(succ)
        row: List[int] = []
        row_syms: List[Optional[GridSymmetry]] = []
        if profile is None:
            raws = ts.successors(states[current])
        else:
            t0 = perf_counter()
            raws = ts.successors(states[current])
            profile.match_s += perf_counter() - t0
        for raw in raws:
            if profile is not None:
                t0 = perf_counter()
            if reduce:
                rep, h = canonicalize(raw, symmetries)
                if h is not None:
                    collapses += 1
            else:
                rep, h = raw, None
            if profile is not None:
                t1 = perf_counter()
                profile.canonicalise_s += t1 - t0
            child = index.get(rep)
            if child is None:
                child = len(states)
                if child >= max_states:
                    raise StateSpaceLimitExceeded(
                        f"{ts.algorithm.name} on {ts.grid.m}x{ts.grid.n} [{ts.model}]:"
                        f" state budget of {max_states} exceeded after expanding"
                        f" {len(succ)} states ({len(states)} discovered,"
                        f" frontier size {len(frontier)}"
                        f"{', symmetry reduction on' if reduce else ''})",
                        algorithm=ts.algorithm.name,
                        model=ts.model,
                        max_states=max_states,
                        states_explored=len(succ),
                        frontier_size=len(frontier),
                    )
                index[rep] = child
                states.append(rep)
                frontier.append(child)
            row.append(child)
            if reduce:
                row_syms.append(h)
            if profile is not None:
                profile.dedup_s += perf_counter() - t1
        succ.append(row)
        if reduce:
            assert edge_syms is not None
            edge_syms.append(row_syms)

    return Exploration(
        model=ts.model,
        reduced=reduce,
        states=states,
        index=index,
        succ=succ,
        edge_syms=edge_syms,
        root=0,
        root_sym=root_sym,
        matcher_stats=(
            matcher.stats.delta_since(stats_before).as_dict() if matcher is not None else None
        ),
        reduction="grid" if reduce else "none",
        reduction_stats=(
            {"grid": {"group_order": len(symmetries), "orbit_collapses": collapses}}
            if reduce
            else None
        ),
        profile=profile.as_dict() if profile is not None else None,
    )


def explore_sharded(
    algorithm: Algorithm,
    grid: Grid,
    model: str,
    *,
    reduction: Optional[str] = None,
    max_states: int = 200_000,
    backend: Optional["ExecutionBackend"] = None,
) -> Exploration:
    """Explore ``algorithm`` on ``grid`` under ``model`` in this process.

    Builds the :class:`~repro.engine.transition.AlgorithmTransitionSystem`
    and runs :func:`explore` on it with the remaining keyword arguments.
    Matching runs on ``backend``'s cache, else on a fresh matcher; that
    changes only how warm the exploration starts, never its result.  A
    backend never receives the exploration itself.  The name is
    historical: explorations are no longer split across processes.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    matcher = backend.cache.matcher_for(algorithm, grid) if backend is not None else None
    ts = AlgorithmTransitionSystem(algorithm, grid, model, matcher=matcher)
    return explore(ts, reduction=reduction, max_states=max_states)


# ---------------------------------------------------------------------------
# Graph analyses (over the interned int graph)
# ---------------------------------------------------------------------------
def has_cycle(succ: List[List[int]]) -> bool:
    """Iterative three-color DFS cycle detection."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * len(succ)
    for root in range(len(succ)):
        if color[root] != WHITE:
            continue
        stack = [(root, 0)]
        color[root] = GRAY
        while stack:
            state, child_index = stack[-1]
            children = succ[state]
            if child_index < len(children):
                stack[-1] = (state, child_index + 1)
                child = children[child_index]
                if color[child] == GRAY:
                    return True
                if color[child] == WHITE:
                    color[child] = GRAY
                    stack.append((child, 0))
            else:
                color[state] = BLACK
                stack.pop()
    return False


def topological_order(succ: List[List[int]]) -> List[int]:
    """Reverse-postorder DFS: children appear before parents (valid for DAGs)."""
    visited = [False] * len(succ)
    order: List[int] = []
    for root in range(len(succ)):
        if visited[root]:
            continue
        stack = [(root, 0)]
        visited[root] = True
        while stack:
            state, child_index = stack[-1]
            children = succ[state]
            if child_index < len(children):
                stack[-1] = (state, child_index + 1)
                child = children[child_index]
                if not visited[child]:
                    visited[child] = True
                    stack.append((child, 0))
            else:
                order.append(state)
                stack.pop()
    return order


def guaranteed_nodes(exploration: Exploration) -> List[FrozenSet[Node]]:
    """The nodes *guaranteed* to be visited from each state, for acyclic graphs.

    Backward fixpoint over the DAG: a terminal state guarantees exactly its
    occupied nodes; an inner state guarantees its occupied nodes plus the
    intersection of its successors' guarantees.  Across symmetry-collapsed
    edges the successor's guarantee is mapped through the edge label first
    (``raw = h(rep)`` implies ``guaranteed(raw) = h(guaranteed(rep))``).
    """
    states = exploration.states
    succ = exploration.succ
    edge_syms = exploration.edge_syms
    result: List[Optional[FrozenSet[Node]]] = [None] * len(states)
    for current in topological_order(succ):  # children before parents
        occupied = frozenset(states[current].occupied_nodes())
        children = succ[current]
        if not children:
            result[current] = occupied
            continue
        syms = edge_syms[current] if edge_syms is not None else None

        def mapped(position: int) -> FrozenSet[Node]:
            guarantee = result[children[position]]
            assert guarantee is not None  # children precede parents in the order
            h = syms[position] if syms is not None else None
            if h is None:
                return guarantee
            return frozenset(h.node(node) for node in guarantee)

        common = mapped(0)
        for position in range(1, len(children)):
            common = common & mapped(position)
        result[current] = occupied | common
    return result  # type: ignore[return-value]
