"""Algorithm 2 — FSYNC, phi = 2, ell = 2, no common chirality, k = 3 (Section 4.2.2).

Without a common chirality the robots cannot tell a right turn from a left
turn, so the formation itself must encode the travel direction: two ``G``
robots ride on the sweep row and a single ``W`` robot rides one row below
the trailing ``G``.  The mirror image of the formation is used for the
opposite direction, and because matching is performed up to reflection the
same eight rules serve both directions (Section 4.2.2, Figure 6).

* **Proceeding** (R1-R3): all three robots step toward the leading ``G``.
* **Turning** (R4-R7, Figure 6): at the border the trailing column (the
  ``G``/``W`` pair) drops one row, then the leading ``G`` drops and the
  ``W`` slides under it, producing the mirrored formation one row south.
* **End of exploration** (R8): when the sweep ends on the last row the
  trailing ``G`` steps onto the single unvisited corner node and the
  configuration becomes terminal with the robots on three distinct nodes.
"""

from __future__ import annotations

from ..core.algorithm import Algorithm, Synchrony
from ..core.colors import G, W
from ..core.rules import EMPTY, Guard, Rule, WALL, occ

__all__ = ["ALGORITHM", "build"]


def build() -> Algorithm:
    """Construct Algorithm 2 of the paper."""
    rules = (
        # ---- proceeding (drawn for the eastward direction) ---------------------
        # R1: the leading G steps forward; the trailing G and the W below it
        #     are visible behind.
        Rule("R1", G, Guard.build(2, W=occ(G), SW=occ(W), E=EMPTY), G, "E"),
        # R2: the trailing G steps forward while the row continues (two free
        #     cells ahead of the pair).
        Rule("R2", G, Guard.build(2, E=occ(G), S=occ(W), EE=EMPTY), G, "E"),
        # R3: the W steps forward underneath the trailing G.
        Rule("R3", W, Guard.build(2, N=occ(G), NE=occ(G), E=EMPTY, EE=EMPTY), W, "E"),
        # ---- turning (Figure 6) -------------------------------------------------
        # R4: at the border the trailing G drops south (the W below follows
        #     simultaneously via R5); requires two free rows below so that the
        #     end-of-exploration configuration stays terminal.
        Rule("R4", G, Guard.build(2, E=occ(G), S=occ(W), EE=WALL, SS=EMPTY), G, "S"),
        # R5: the W below the trailing G drops south together with it.
        Rule("R5", W, Guard.build(2, N=occ(G), NE=occ(G), EE=WALL, S=EMPTY), W, "S"),
        # R6: the leading G, with the trailing G on its rear diagonal and the W
        #     already two rows below it along the border, drops south.
        #     Reproduction note: the paper fires R6 and R7 in the same round;
        #     at the very first turn (top row) the leading G's view is then
        #     symmetric under a reflection, so without chirality the adversary
        #     could send it west instead of south.  Requiring the W to be
        #     visible two cells south (i.e. sequencing R7 one round before R6)
        #     pins the orientation and preserves the figure's outcome.
        Rule("R6", G, Guard.build(2, SW=occ(G), SS=occ(W), E=WALL, S=EMPTY, W=EMPTY), G, "S"),
        # R7: the W slides under the (old) leading G, completing the mirrored
        #     formation for the return sweep.
        Rule(
            "R7",
            W,
            Guard.build(2, N=occ(G), NW=EMPTY, NE=EMPTY, W=EMPTY, E=EMPTY, EE=WALL),
            W,
            "E",
        ),
        # ---- end of exploration ---------------------------------------------------
        # R8: the sweep has reached the far corner of the last row; the
        #     trailing G steps onto the single unvisited corner node.
        Rule("R8", G, Guard.build(2, E=occ(G), SE=occ(W), W=WALL, S=EMPTY, SS=WALL), G, "S"),
    )
    return Algorithm(
        name="fsync_phi2_l2_nochir_k3",
        synchrony=Synchrony.FSYNC,
        phi=2,
        colors=(G, W),
        chirality=False,
        k=3,
        rules=rules,
        initial_placement=(((0, 0), G), ((0, 1), G), ((1, 0), W)),
        min_m=2,
        # Reproduction note: the paper claims n >= 3, but on a 3-column grid
        # the W robot's view during the turn is reflection-symmetric (both
        # side walls are two cells away), so without a common chirality no
        # guard can tell east from west at that moment.  We therefore claim
        # the encoding for n >= 4; Table 1 notes the gap on this row.
        min_n=4,
        paper_section="4.2.2",
        description="Algorithm 2: FSYNC, phi=2, two colors, no chirality, three robots",
        optimal=False,
    )


#: Algorithm 2 of the paper, ready to simulate.
ALGORITHM = build()
