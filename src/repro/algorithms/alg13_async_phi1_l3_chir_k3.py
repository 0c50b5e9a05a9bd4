"""Algorithm 10 — ASYNC, phi = 1, ell = 3, common chirality, k = 3 (Section 4.3.5).

Optimal in the number of robots.  Visibility one forces the three robots to
travel *through* each other: the rear robot climbs onto its neighbour,
recolors, and hops off ahead — the ring-exploration gait of Ooshita &
Tixeuil adapted to a single grid row (Figure 19).  One full row is swept
per pass; the pivot at each border (Figures 20-21) drops the convoy one
row and swaps the roles of the colors (``G`` pushes ``W``/``W`` eastward,
``W`` pushes ``B``/``B`` westward).

At most one robot is enabled at any reachable configuration and every
color-change intermediate enables no rule, which is exactly the paper's
argument for ASYNC correctness.
"""

from __future__ import annotations

from ..core.algorithm import Algorithm, Synchrony
from ..core.colors import B, G, W
from ..core.rules import EMPTY, Guard, Rule, WALL, occ

__all__ = ["ALGORITHM", "build"]


def build() -> Algorithm:
    """Construct Algorithm 10 of the paper."""
    rules = (
        # ---- proceeding east (Figure 19) -----------------------------------------
        # R1: the trailing G climbs onto the W ahead of it (the gray default on
        #     the remaining cells rejects any third robot nearby, which is what
        #     keeps the rule quiet during the border pivots).
        Rule("R1", G, Guard.build(1, E=occ(W)), G, "E"),
        # R2: the W sharing a node with the G recolors to G and hops onto the
        #     next W.
        Rule("R2", W, Guard.build(1, C=occ(G, W), E=occ(W)), G, "E"),
        # R3: the G sharing a node with a W (and seeing the other G behind)
        #     recolors to W and hops ahead, re-extending the convoy.
        Rule("R3", G, Guard.build(1, C=occ(G, W), W=occ(G), E=EMPTY), W, "E"),
        # ---- turning west (Figure 20) ------------------------------------------------
        # R4: at the east border the stacked G recolors to B and drops south.
        Rule("R4", G, Guard.build(1, C=occ(G, W), W=occ(G), E=WALL, S=EMPTY), B, "S"),
        # R5: the stacked G (its partner W now alone against the border, the
        #     new B below) drops south onto the B.
        Rule("R5", G, Guard.build(1, C=occ(G, W), S=occ(B), E=WALL), G, "S"),
        # R6: the G stacked with the B recolors to B and heads west.
        Rule("R6", G, Guard.build(1, C=occ(G, B), N=occ(W), E=WALL, W=EMPTY), B, "W"),
        # R7: a W moves onto the single B next to it (used both to close the
        #     westward turn and as the westward analogue of R1).
        Rule("R7", W, Guard.build(1, W=occ(B)), W, "W"),
        # ---- proceeding west (westward analogues of R2 and R3) ----------------------
        # R8: the B sharing a node with the W recolors to W and hops onto the
        #     next B.
        Rule("R8", B, Guard.build(1, C=occ(B, W), W=occ(B)), W, "W"),
        # R9: the W sharing a node with a B (the other W behind it) recolors
        #     to B and hops ahead.
        Rule("R9", W, Guard.build(1, C=occ(B, W), E=occ(W), W=EMPTY), B, "W"),
        # ---- turning east (Figure 21) -------------------------------------------------
        # R10: at the west border the stacked W recolors to G and drops south.
        Rule("R10", W, Guard.build(1, C=occ(B, W), E=occ(W), W=WALL, S=EMPTY), G, "S"),
        # R11: the stacked W (its partner B now alone against the border, the
        #      new G below) recolors to B and drops south onto the G.  The
        #      empty-north constraint pins the rotation so the rule stays
        #      disabled in the color-change intermediate of R4 at the
        #      northeast corner, where two walls meet.
        Rule("R11", W, Guard.build(1, C=occ(B, W), S=occ(G), W=WALL, N=EMPTY), B, "S"),
        # R12: the B stacked with the G recolors to G and heads east.
        Rule("R12", B, Guard.build(1, C=occ(G, B), N=occ(B), W=WALL, E=EMPTY), G, "E"),
        # R13: the lone B at the border drops south onto the G below it.
        Rule("R13", B, Guard.build(1, S=occ(G), W=WALL, E=EMPTY, N=EMPTY), B, "S"),
        # R14: the B stacked with that G hops east onto the other G.
        Rule("R14", B, Guard.build(1, C=occ(G, B), E=occ(G), W=WALL, N=EMPTY), B, "E"),
        # R15: the B stacked with the eastern G recolors to W, recreating the
        #      eastward convoy (Figure 19(d)).
        Rule("R15", B, Guard.build(1, C=occ(G, B), W=occ(G), E=EMPTY), W, None),
    )
    return Algorithm(
        name="async_phi1_l3_chir_k3",
        synchrony=Synchrony.ASYNC,
        phi=1,
        colors=(G, W, B),
        chirality=True,
        k=3,
        rules=rules,
        initial_placement=(((0, 0), G), ((0, 1), W), ((0, 2), W)),
        min_m=2,
        min_n=3,
        paper_section="4.3.5",
        description="Algorithm 10: ASYNC, phi=1, three colors, common chirality, three robots",
        optimal=True,
    )


#: Algorithm 10 of the paper, ready to simulate.
ALGORITHM = build()
