"""Frontier-based exploration of a transition system's state space.

The explorer searches the kernel's state space: starting from the
transition system's initial state it discovers every reachable canonical
state with a breadth-first frontier, interning states into dense integer
indices (so the graph analyses below run on plain int lists instead of
re-hashing states), and optionally quotienting the search by the grid
automorphisms the algorithm cannot distinguish (``reduction="grid"``; see
:mod:`repro.engine.symmetry`).

Under the quotient, every raw successor is replaced by its orbit
representative and the edge is labelled with the witness ``h`` mapping the
representative's coordinates back to the raw successor's.  The graph has
one shape under both reductions: every edge carries a label, ``None``
standing for the identity, so unreduced every label is ``None``.
Termination is preserved by the quotient (a quotient cycle lifts to an
infinite — hence, on a finite space, cyclic — raw execution and vice
versa); coverage is computed exactly by pushing guaranteed-node bitmasks
through the edge labels' bit permutations
(:meth:`~repro.engine.symmetry.GridSymmetry.mask`).

Both verdict analyses read one iterative Tarjan pass (R. Tarjan, SIAM J.
Comput. 1972) kept on the :class:`Exploration`: its strongly connected
components, successors first.  :func:`has_cycle` asks whether one holds a
cycle, and :func:`guaranteed_nodes` solves the coverage equations in that
order, cycles included, on integer node bitmasks (node ``(i, j)`` is bit
``i * n + j``).  Its two readers, the checker and the Theorem 1 refuter
(:mod:`repro.impossibility.refuter`), decode only the root's mask back to
nodes, through :func:`root_guarantee`.

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
from functools import cached_property
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
    "guaranteed_nodes",
    "mask_nodes",
    "root_guarantee",
]


@dataclass
class Exploration:
    """The interned successor graph of one exploration."""

    #: Synchrony model the graph was built under.
    model: str
    #: The grid explored; node ``(i, j)`` is bit ``i * grid.n + j`` of the
    #: masks :func:`guaranteed_nodes` returns.
    grid: Grid
    #: Index -> canonical state (orbit representatives under ``"grid"``).
    states: List[SchedulerState]
    #: Index -> successor indices.
    succ: List[List[int]]
    #: Index -> one witness ``h`` per edge of :attr:`succ`, with
    #: ``raw = h(rep)``: a :class:`~repro.engine.symmetry.GridSymmetry`, or
    #: ``None`` for the identity.  Every entry is ``None`` when not reduced.
    edge_syms: List[List[Optional[GridSymmetry]]]
    #: Index of the (canonicalised) initial state.
    root: int
    #: Witness mapping the canonical root back to the raw initial state
    #: (``None`` for the identity or when not reduced).
    root_sym: Optional[GridSymmetry] = field(default=None)
    #: Matcher cache counters accumulated *during this exploration* —
    #: ``{"hits", "misses", "hit_rate"}`` — observability for the
    #: snapshot/match memo layer.  ``None`` when the transition system
    #: does not expose a matcher.  They depend on how warm the matcher
    #: was, so they are excluded from equality: two explorations of one
    #: spec compare equal however warm it was.
    matcher_stats: Optional[Dict[str, float]] = field(default=None, compare=False)
    #: The reduction the graph was built under: ``"grid"`` for the
    #: grid-automorphism quotient, else ``"none"``.
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

    @cached_property
    def components(self) -> List[List[int]]:
        """The strongly connected components of :attr:`succ`, successors first.

        One iterative Tarjan pass from the root (which reaches every
        state), run on first read: a component is emitted only after every
        component it reaches.  An emitted state is renumbered ``done``, above
        every ``low`` link, which spares Tarjan's on-stack flags.
        """
        succ = self.succ
        done = len(succ) + 1
        number = [0] * len(succ)  # DFS number; 0 = not yet reached
        low = [0] * len(succ)
        number[self.root] = low[self.root] = counter = 1
        stack, path = [self.root], [(self.root, iter(succ[self.root]))]
        components: List[List[int]] = []
        while path:
            state, children = path[-1]
            for child in children:
                if not number[child]:
                    counter += 1
                    number[child] = low[child] = counter
                    stack.append(child)
                    path.append((child, iter(succ[child])))
                    break
                if number[child] < low[state]:
                    low[state] = number[child]
            else:
                path.pop()
                if path and low[state] < low[path[-1][0]]:
                    low[path[-1][0]] = low[state]
                if low[state] == number[state]:
                    component = [stack.pop()]
                    while component[-1] != state:
                        component.append(stack.pop())
                    for member in component:
                        number[member] = done
                    components.append(component)
        return components


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
    edge_syms: List[List[Optional[GridSymmetry]]] = []
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
            row_syms.append(h)
            if profile is not None:
                profile.dedup_s += perf_counter() - t1
        succ.append(row)
        edge_syms.append(row_syms)

    return Exploration(
        model=ts.model,
        grid=ts.grid,
        states=states,
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
def has_cycle(exploration: Exploration) -> bool:
    """Whether some execution runs forever: a component of two states or a self-loop."""
    succ = exploration.succ
    return any(
        len(component) > 1 or component[0] in succ[component[0]]
        for component in exploration.components
    )


def guaranteed_nodes(exploration: Exploration) -> List[int]:
    """The nodes visited on every maximal execution from each state, as bitmasks.

    Node ``(i, j)`` is bit ``i * n + j`` of a mask, ``n`` the grid's column
    count.  A terminal state guarantees exactly its occupied nodes; any
    other state guarantees its occupied nodes plus the intersection of its
    successors' guarantees: an OR of its occupancy with the AND of theirs.
    Across symmetry-collapsed edges the successor's guarantee is mapped
    through the edge label's bit permutation first (``raw = h(rep)``
    implies ``guaranteed(raw) = h(guaranteed(rep))``).

    Components are solved successors first, so on an acyclic graph this is
    one backward pass.  Inside a component with a cycle the equations take
    their least solution, iterated up from the occupied nodes: an execution
    that cycles forever visits only what the cycle occupies.
    """
    states = exploration.states
    succ = exploration.succ
    edge_syms = exploration.edge_syms
    n = exploration.grid.n
    result = [0] * len(states)

    def occupancy(current: int) -> int:
        mask = 0
        for record in states[current]:
            i, j = record.pos
            mask |= 1 << (i * n + j)
        return mask

    def solve(current: int) -> int:
        children = succ[current]
        if not children:
            return occupancy(current)
        common = -1  # every bit: the identity of AND
        for child, h in zip(children, edge_syms[current]):
            common &= result[child] if h is None else h.mask(result[child])
        return occupancy(current) | common

    for component in exploration.components:
        if len(component) == 1 and component[0] not in succ[component[0]]:
            result[component[0]] = solve(component[0])
            continue
        # The least solution: seed every state with its occupied nodes, then
        # re-solve the parents of each state whose guarantee grew.
        parents: Dict[int, List[int]] = {current: [] for current in component}
        for current in component:
            result[current] = occupancy(current)
            for child in succ[current]:
                if child in parents:
                    parents[child].append(current)
        pending = set(component)
        while pending:
            current = pending.pop()
            guarantee = solve(current)
            if guarantee != result[current]:
                result[current] = guarantee
                pending.update(parents[current])
    return result


def mask_nodes(mask: int, grid: Grid) -> FrozenSet[Node]:
    """The nodes whose bits are set in ``mask`` (node ``(i, j)`` is bit ``i * n + j``)."""
    bits = bin(mask)[:1:-1]  # bit 0 first
    return frozenset(divmod(index, grid.n) for index, bit in enumerate(bits) if bit == "1")


def root_guarantee(exploration: Exploration, guaranteed: List[int]) -> FrozenSet[Node]:
    """The root's entry of :func:`guaranteed_nodes`, as nodes of the raw initial state.

    Under the quotient the root is the initial state's representative, so
    its mask goes through :attr:`Exploration.root_sym` first: coverage
    counterexamples then name the nodes the raw initial state misses.
    """
    mask = guaranteed[exploration.root]
    if exploration.root_sym is not None:
        mask = exploration.root_sym.mask(mask)
    return mask_nodes(mask, exploration.grid)
