"""Algorithm 4 — FSYNC, phi = 1, ell = 3, no common chirality, k = 4 (Section 4.2.6).

Without chirality and with visibility one, four robots travel as a 2x2
block whose corner colors encode the travel direction:

* **Proceeding east** (R1-R4, northwest-anchored): ``G`` northwest, ``W``
  northeast, ``B`` southwest, ``W`` southeast; all four step east every
  round.
* **Turning west** (R5-R10, Figure 9): at the east border the two robots
  hugging the wall drop one row while the other column slides east,
  briefly forming a ``{B, W}`` stack; the stack then splits and the block
  reassembles one row further south as the mirror image of the eastward
  block, which (matching being closed under reflection) reuses the same
  rules for the westward sweep.
* **End of exploration**: the sweep ends with three robots stacked on a
  southern corner (``{W, W, B}``) and the last ``G`` just above it; the
  configuration matches no guard.
"""

from __future__ import annotations

from ..core.algorithm import Algorithm, Synchrony
from ..core.colors import B, G, W
from ..core.rules import EMPTY, Guard, Rule, WALL, occ

__all__ = ["ALGORITHM", "build"]


def build() -> Algorithm:
    """Construct Algorithm 4 of the paper."""
    rules = (
        # ---- proceeding (drawn for the eastward direction) ----------------------
        # R1: northeast W steps east (G behind it, the other W below it).
        Rule("R1", W, Guard.build(1, W=occ(G), S=occ(W), E=EMPTY), W, "E"),
        # R2: northwest G steps east (W ahead, B below); at the border the same
        #     rule slides G onto the node the W is leaving.
        Rule("R2", G, Guard.build(1, E=occ(W), S=occ(B)), G, "E"),
        # R3: southeast W steps east (B behind it, the other W above it).
        Rule("R3", W, Guard.build(1, W=occ(B), N=occ(W), E=EMPTY), W, "E"),
        # R4: southwest B steps east (G above, W ahead); at the border the same
        #     rule slides B onto the node the W is leaving.
        Rule("R4", B, Guard.build(1, N=occ(G), E=occ(W)), B, "E"),
        # ---- turning (Figure 9) ---------------------------------------------------
        # R5: at the border the northeast W drops onto the node of the
        #     southeast W (which drops simultaneously via R6); the same rule
        #     closes the terminal {W, W, B} stack at the end of exploration.
        Rule("R5", W, Guard.build(1, W=occ(G), S=occ(W), E=WALL), W, "S"),
        # R6: the southeast W drops one row along the border.
        Rule("R6", W, Guard.build(1, W=occ(B), N=occ(W), E=WALL, S=EMPTY), W, "S"),
        # R7: the W of the {B, W} stack heads away from the border, back over
        #     the row just explored.
        Rule("R7", W, Guard.build(1, C=occ(B, W), N=occ(G), S=occ(W), E=WALL, W=EMPTY), W, "W"),
        # R8: the W below the stack also heads away from the border.
        Rule("R8", W, Guard.build(1, N=occ(B, W), E=WALL, W=EMPTY), W, "W"),
        # R9: the B of the {B, W} stack continues south along the border.
        Rule("R9", B, Guard.build(1, C=occ(B, W), N=occ(G), S=occ(W), E=WALL), B, "S"),
        # R10: the G drops onto the node the stack is vacating, completing the
        #      mirrored block for the return sweep.
        Rule("R10", G, Guard.build(1, S=occ(B, W), E=WALL, W=EMPTY), G, "S"),
    )
    return Algorithm(
        name="fsync_phi1_l3_nochir_k4",
        synchrony=Synchrony.FSYNC,
        phi=1,
        colors=(G, W, B),
        chirality=False,
        k=4,
        rules=rules,
        initial_placement=(((0, 0), G), ((0, 1), W), ((1, 0), B), ((1, 1), W)),
        min_m=2,
        min_n=3,
        paper_section="4.2.6",
        description="Algorithm 4: FSYNC, phi=1, three colors, no chirality, four robots",
        optimal=False,
    )


#: Algorithm 4 of the paper, ready to simulate.
ALGORITHM = build()
