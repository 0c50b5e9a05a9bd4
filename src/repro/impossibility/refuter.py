"""An exact per-candidate refuter for terminating exploration.

Theorem 1 of the paper states that with ``phi = 1`` and ``k = 2`` *no*
algorithm solves terminating exploration in SSYNC (hence ASYNC), whatever
the number of colors and the chirality assumption.  A universally
quantified statement cannot be established by simulation, but its
*operational content* can: for any **given** candidate algorithm the
adversarial scheduler of the proof wins, and on a finite grid that win is
decidable exactly.

The adversary controls every source of nondeterminism (which robots are
activated, and which matching view/rule is executed when several apply),
so it can keep node ``v`` unvisited forever exactly when some maximal
execution never occupies ``v``:

* it **ends in a terminal** configuration with ``v`` unvisited, or
* it runs forever around a **cycle** without visiting ``v`` — the
  confinement argument of the paper's proof, where the two robots are made
  to oscillate between two pairs of nodes.

That is the complement of the checker's coverage analysis, so the refuter
runs no search of its own: it explores as the checker does
(:func:`~repro.engine.explorer.explore_sharded` under the grid quotient),
and ``v`` is avoidable exactly when the initial state's guaranteed set
(:func:`~repro.engine.explorer.guaranteed_nodes`, cycles included) lacks
it.  Like the check, it raises :class:`~repro.core.errors.IllegalMoveError`
when a robot can leave the grid.

:func:`refute_terminating_exploration` searches for such a node and
returns a witness; it is used by :mod:`repro.impossibility.theorem1` to
demonstrate Theorem 1 on concrete candidate algorithms, and by the test
suite as a sanity check that it does *not* refute the paper's own 3-robot
phi = 1 ASYNC algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..core.algorithm import Algorithm
from ..core.grid import Grid, Node
from ..engine.explorer import Exploration, explore_sharded, guaranteed_nodes, root_guarantee

__all__ = ["AdversaryWitness", "adversary_prevents_node", "refute_terminating_exploration"]


@dataclass
class AdversaryWitness:
    """Evidence that the adversary defeats a candidate algorithm."""

    algorithm: str
    model: str
    m: int
    n: int
    node: Node
    kind: str  # "terminal" or "cycle"
    states_explored: int

    def __str__(self) -> str:
        how = (
            "reaches a terminal configuration"
            if self.kind == "terminal"
            else "can run forever (confinement cycle)"
        )
        return (
            f"{self.algorithm} on {self.m}x{self.n} [{self.model}]: the adversary {how}"
            f" while node {self.node} is never visited"
        )


def adversary_prevents_node(
    algorithm: Algorithm,
    grid: Grid,
    node: Node,
    model: str = "SSYNC",
    max_states: int = 200_000,
) -> Optional[AdversaryWitness]:
    """Decide whether the adversary can keep ``node`` unvisited forever.

    Returns a witness if it can, ``None`` otherwise (in particular when
    the initial configuration already occupies ``node``).  A node outside
    the grid raises :class:`~repro.core.errors.GridError`.
    """
    return _first_avoidable(algorithm, grid, (grid.require(node),), model, max_states)


def refute_terminating_exploration(
    algorithm: Algorithm,
    grid: Grid,
    model: str = "SSYNC",
    max_states: int = 200_000,
) -> Optional[AdversaryWitness]:
    """Find some node the adversary can keep unvisited forever, if any.

    Nodes are tried from the centre of the grid outward (inner nodes are
    the ones the proof of Theorem 1 confines the robots away from), and
    the first avoidable one is the witness.
    """
    center = ((grid.m - 1) / 2.0, (grid.n - 1) / 2.0)
    nodes = sorted(
        grid.nodes(),
        key=lambda node: abs(node[0] - center[0]) + abs(node[1] - center[1]),
    )
    return _first_avoidable(algorithm, grid, nodes, model, max_states)


def _first_avoidable(
    algorithm: Algorithm, grid: Grid, nodes: Iterable[Node], model: str, max_states: int
) -> Optional[AdversaryWitness]:
    """The witness for the first of ``nodes`` the initial state does not guarantee."""
    exploration = explore_sharded(algorithm, grid, model, reduction="grid", max_states=max_states)
    guaranteed = root_guarantee(exploration, guaranteed_nodes(exploration))
    for node in nodes:
        if node not in guaranteed:
            return AdversaryWitness(
                algorithm=algorithm.name,
                model=model,
                m=grid.m,
                n=grid.n,
                node=node,
                kind="terminal" if _ends_unvisited(exploration, node) else "cycle",
                states_explored=exploration.num_states,
            )
    return None


def _ends_unvisited(exploration: Exploration, node: Node) -> bool:
    """Whether some execution that never occupies ``node`` reaches a terminal state.

    A search over ``(state, node)`` pairs, the node written in that state's
    coordinates: each edge witness ``h`` (``raw = h(rep)``) carries it into
    the successor's frame by ``h``'s inverse.
    """
    states, succ, edge_syms = exploration.states, exploration.succ, exploration.edge_syms

    def pull(h, target: Node) -> Node:
        return target if h is None else h.inverse().node(target)

    pending = [(exploration.root, pull(exploration.root_sym, node))]
    seen = set(pending)
    while pending:
        current, target = pending.pop()
        if target in states[current].occupied_nodes():
            continue
        if not succ[current]:
            return True
        for child, h in zip(succ[current], edge_syms[current]):
            pair = (child, pull(h, target))
            if pair not in seen:
                seen.add(pair)
                pending.append(pair)
    return False
