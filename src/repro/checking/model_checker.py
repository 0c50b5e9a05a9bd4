"""Exhaustive exploration of all scheduler behaviours on small grids.

The paper's correctness arguments quantify over *every* fair schedule and
every choice the scheduler makes when several rules or views match.  On a
small grid the reachable state space of that game is finite, so it can be
enumerated exactly.  :func:`check_terminating_exploration` has
:func:`~repro.engine.explorer.explore_sharded` build the successor graph of
canonical states (:mod:`repro.engine.states`) under FSYNC, SSYNC or ASYNC
semantics, branching over every scheduler choice, and then decides the two
halves of Definition 1 over *all* executions:

* **termination**: the successor graph contains no reachable cycle
  (every execution is finite), and
* **coverage**: along every maximal execution, every grid node is
  eventually occupied — computed by a backward fixpoint over the DAG
  (the set of nodes *guaranteed* to be visited from a state is the
  intersection over its successors, plus the nodes occupied in the
  state itself), one integer bitmask per state with a bit per node;
  only the initial state's mask is decoded back to nodes.

Successor generation is delegated to the transition-system kernel
(:class:`repro.engine.transition.AlgorithmTransitionSystem`), the only
successor kernel; the frontier search, state interning and graph analyses
live in :mod:`repro.engine.explorer`.  The simulator's walk
(:mod:`repro.engine.walk`) implements the same semantics separately, and a
differential test on random rule tables keeps the two equal.  Like the
walk, a check fails closed on a robot outside the grid: a reachable move
off the grid raises :class:`~repro.core.errors.IllegalMoveError`, and an
initial placement off the grid raises
:class:`~repro.core.errors.ConfigurationError`.

``reduction="grid"`` quotients the search by the grid automorphisms the
algorithm cannot distinguish (rotations, plus reflections for
chirality-free algorithms; see :mod:`repro.engine.symmetry`);
``reduction="none"``, the default here, explores unreduced.  The quotient
shrinks the state space while preserving both the termination and the
coverage verdicts exactly.

This is a strictly stronger check than any number of randomized
simulations, and it is the tool used to validate the paper's ASYNC
algorithms (Table 1, SSYNC/ASYNC rows) on small grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from ..core.algorithm import Algorithm
from ..core.grid import Grid
from ..engine.explorer import explore_sharded, guaranteed_nodes, has_cycle, root_guarantee

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.backend import ExecutionBackend
    from ..engine.store import VerdictStore

__all__ = ["CheckResult", "check_terminating_exploration"]


@dataclass
class CheckResult:
    """Outcome of an exhaustive check on one (algorithm, grid, model) triple."""

    algorithm: str
    model: str
    m: int
    n: int
    states_explored: int
    terminal_states: int
    terminates: bool
    explores: bool
    counterexample: Optional[str] = None
    #: Matcher-cache counters accumulated by this check (``hits`` /
    #: ``misses`` / ``hit_rate``); ``None`` for results built by hand.
    #: Excluded from equality: the counters depend on how warm the matcher
    #: happened to be, and results are promised identical however warm it
    #: was.
    matcher_stats: Optional[Dict[str, float]] = field(default=None, compare=False)
    #: The reduction the check ran under: ``"grid"`` when the counts above
    #: refer to the grid-automorphism quotient, else ``"none"``.
    reduction: str = "none"
    #: Quotient statistics (group order, orbit collapses); deterministic
    #: for a given check, but excluded from equality like the matcher
    #: counters — observability, not part of the verdict.
    reduction_stats: Optional[Dict[str, Dict[str, float]]] = field(default=None, compare=False)
    #: Verdict-store counters when the check was requested through a
    #: :class:`~repro.engine.store.VerdictStore` (``hits`` / ``misses`` /
    #: ``coalesced`` / ``outcome``).  Cache observability, excluded from
    #: equality: a cached check is identical to a freshly computed one.
    store_stats: Optional[Dict[str, object]] = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        """Whether terminating exploration holds over all scheduler behaviours."""
        return self.terminates and self.explores

    def summary(self) -> str:
        status = "terminating exploration holds" if self.ok else f"FAILS ({self.counterexample})"
        reduced = ", symmetry-reduced" if self.reduction == "grid" else ""
        cache = ""
        if self.matcher_stats is not None:
            cache = f", match cache {self.matcher_stats['hit_rate']:.0%} hits"
        return (
            f"{self.algorithm} on {self.m}x{self.n} [{self.model}]: {status}"
            f" ({self.states_explored} states, {self.terminal_states} terminal{reduced}{cache})"
        )


def check_terminating_exploration(
    algorithm: Algorithm,
    grid: Grid,
    model: str = "SSYNC",
    max_states: int = 200_000,
    reduction: Optional[str] = None,
    backend: Optional["ExecutionBackend"] = None,
    store: Optional["VerdictStore"] = None,
) -> CheckResult:
    """Exhaustively decide Definition 1 over all scheduler behaviours.

    The verdict is identical under ``reduction="none"`` and
    ``reduction="grid"``; the quotient only explores fewer states (a
    quotient cycle lifts to an infinite raw execution and vice versa, and
    coverage sets are mapped exactly through the collapsing witnesses; see
    :mod:`repro.engine.symmetry`).  The verdict is likewise identical with
    and without ``backend`` (it only lends a warm matcher cache; the
    exploration runs in this process either way).

    ``store`` — a :class:`~repro.engine.store.VerdictStore` — caches the
    :class:`CheckResult`, and only it, under a content key that includes
    the algorithm's name and content digest (so an edited rule table is
    never answered by its predecessor's verdict), the normalized reduction
    *and* ``max_states`` (so a budget-limited check can never answer for a
    roomier one); duplicate concurrent requests coalesce onto a single
    exploration.  The exploration itself is transient.  Cached results are
    identical to computed ones.
    """
    def compute() -> CheckResult:
        return _run_check(
            algorithm, grid, model,
            max_states=max_states, reduction=reduction, backend=backend,
        )

    if store is not None:
        from ..engine.spec import check_store_key

        key = check_store_key(algorithm, grid.m, grid.n, model, reduction, max_states)
        return store.fetch(key, compute)
    return compute()


def _run_check(
    algorithm: Algorithm,
    grid: Grid,
    model: str,
    *,
    max_states: int,
    reduction: Optional[str],
    backend: Optional["ExecutionBackend"],
) -> CheckResult:
    """Compute one exhaustive check (the uncached body of the entry point).

    The exploration and both analyses go through this module's
    ``explore_sharded``, ``has_cycle`` and ``guaranteed_nodes`` globals,
    in that order, so wrapping those names observes every exploration and
    analysis the checker runs.  Coverage is solved only when the graph
    terminates.
    """
    exploration = explore_sharded(
        algorithm,
        grid,
        model,
        max_states=max_states,
        reduction=reduction,
        backend=backend,
    )
    terminates = not has_cycle(exploration)
    explores = False
    counterexample = "a scheduler can drive the system into an infinite execution (cycle reached)"
    if terminates:
        # The raw initial state's guarantee, so counterexamples name its nodes.
        guaranteed = root_guarantee(exploration, guaranteed_nodes(exploration))
        missing = sorted(set(grid.nodes()) - guaranteed)
        explores = not missing
        counterexample = (
            f"a scheduler can keep nodes {missing} unvisited on some execution" if missing else None
        )
    return CheckResult(
        algorithm=algorithm.name,
        model=model,
        m=grid.m,
        n=grid.n,
        states_explored=exploration.num_states,
        terminal_states=len(exploration.terminal_indices()),
        terminates=terminates,
        explores=explores,
        counterexample=counterexample,
        matcher_stats=exploration.matcher_stats,
        reduction=exploration.reduction,
        reduction_stats=exploration.reduction_stats,
    )
