"""Algorithm 9 — ASYNC, phi = 2, ell = 2, no common chirality, k = 4 (Section 4.3.4).

Four robots, two colors, no chirality.  A single ``G`` anchors a three-``W``
convoy: two ``W`` robots ahead of the ``G`` on the sweep row and one ``W``
below it.  The convoy advances one robot at a time (R1-R4, Figure 17), so
at most one robot is enabled at any reachable configuration and the
algorithm is asynchronous-safe; at the border an eight-step pivot
(R5-R10 followed by R4, Figure 18) rebuilds the mirror convoy one row
further south, and reflection-closed matching lets the same rules drive
both sweep directions.

The end of exploration (Section 4.3.4) finishes with the four robots on
four distinct nodes of the two last rows after a final R5 step.
"""

from __future__ import annotations

from ..core.algorithm import Algorithm, Synchrony
from ..core.colors import G, W
from ..core.rules import EMPTY, Guard, Rule, WALL, occ

__all__ = ["ALGORITHM", "build"]


def build() -> Algorithm:
    """Construct Algorithm 9 of the paper."""
    rules = (
        # ---- proceeding east (Figure 17) ----------------------------------------
        # R1: the W below the G hops east first.
        Rule("R1", W, Guard.build(2, N=occ(G), NE=occ(W), E=EMPTY), W, "E"),
        # R2: the leading W extends the convoy eastward.
        Rule("R2", W, Guard.build(2, W=occ(W), WW=occ(G), SW=occ(W), E=EMPTY), W, "E"),
        # R3: the W next to the G follows, re-opening the gap behind the leader.
        Rule("R3", W, Guard.build(2, W=occ(G), S=occ(W), EE=occ(W), E=EMPTY), W, "E"),
        # R4: the G closes the convoy (the same rule, matched under a rotation,
        #     performs the final step of the border pivot in Figure 18(g)-(h)).
        Rule("R4", G, Guard.build(2, EE=occ(W), SE=occ(W), E=EMPTY), G, "E"),
        # ---- turning west (Figure 18) ----------------------------------------------
        # R5: the W at the border drops south (also the final move of the
        #     exploration, stepping onto the last unvisited corner node).
        Rule("R5", W, Guard.build(2, W=occ(W), WW=occ(G), SW=occ(W), E=WALL, S=EMPTY), W, "S"),
        # R6: the W left on the sweep row recolors to G while idle.
        Rule("R6", W, Guard.build(2, W=occ(G), S=occ(W), SE=occ(W), EE=WALL), G, None),
        # R7: the original G, now west of the new G, drops south.
        Rule("R7", G, Guard.build(2, E=occ(G), SE=occ(W), S=EMPTY), G, "S"),
        # R8: the new G slides into the border column.
        Rule("R8", G, Guard.build(2, S=occ(W), SW=occ(G), SE=occ(W), E=EMPTY, EE=WALL), G, "E"),
        # R9: the G that dropped in R7 recolors back to W while idle.
        Rule("R9", G, Guard.build(2, E=occ(W), EE=occ(W), N=EMPTY, NE=EMPTY), W, None),
        # R10: the W in the border column drops south, handing the convoy to
        #      the mirrored formation.
        Rule("R10", W, Guard.build(2, W=occ(W), WW=occ(W), N=occ(G), E=WALL, S=EMPTY), W, "S"),
    )
    return Algorithm(
        name="async_phi2_l2_nochir_k4",
        synchrony=Synchrony.ASYNC,
        phi=2,
        colors=(G, W),
        chirality=False,
        k=4,
        rules=rules,
        initial_placement=(((0, 0), G), ((0, 1), W), ((0, 2), W), ((1, 0), W)),
        min_m=2,
        min_n=4,
        paper_section="4.3.4",
        description="Algorithm 9: ASYNC, phi=2, two colors, no chirality, four robots",
        optimal=False,
    )


#: Algorithm 9 of the paper, ready to simulate.
ALGORITHM = build()
