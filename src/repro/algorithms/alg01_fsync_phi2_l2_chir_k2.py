"""Algorithm 1 — FSYNC, phi = 2, ell = 2, common chirality, k = 2 (Section 4.2.1).

Optimal in the number of robots (the lower bound of two is from Bramas et
al. [5]).  Two robots with colors ``G`` and ``W`` sweep the grid along the
boustrophedon route of Figure 3:

* **Proceeding east** (rules R1, R2): the robots travel adjacent, ``G``
  behind (west) and ``W`` ahead (east), both stepping east every round.
* **Turning west** (rules R3-R5, Figure 4): at the east border ``G`` drops
  one row south, then ``W`` drops south while ``G`` steps west, producing
  the proceeding-west formation.
* **Proceeding west** (rules R6, R7): the robots travel at distance two,
  ``G`` ahead (west) and ``W`` behind (east), both stepping west every
  round.
* **Turning east** (rules R8, R9, Figure 5): at the west border ``G`` drops
  south while ``W`` closes in, then ``W`` drops south, restoring the
  proceeding-east formation one row further south.
* **End of exploration**: with ``m`` odd the robots stop in the southeast
  corner; with ``m`` even rule R10 makes them merge on ``v_{m-1,1}``
  (Section 4.2.1, "End of exploration").

Guards below are transcriptions of the paper's rule figures: each names
only the cells the figure draws as occupied, white (must be empty) or black
(must be off-grid); all remaining cells are gray (empty or off-grid), the
library default.
"""

from __future__ import annotations

from ..core.algorithm import Algorithm, Synchrony
from ..core.colors import G, W
from ..core.rules import EMPTY, Guard, Rule, WALL, occ

__all__ = ["ALGORITHM", "build"]


def build() -> Algorithm:
    """Construct Algorithm 1."""
    rules = (
        # ---- proceeding east -------------------------------------------------
        # R1: the leading W robot steps east, keeping G adjacent behind it.
        Rule("R1", W, Guard.build(2, W=occ(G), E=EMPTY), W, "E"),
        # R2: the trailing G robot follows W east while the row continues.
        Rule("R2", G, Guard.build(2, E=occ(W), EE=EMPTY), G, "E"),
        # ---- turning west (Figure 4) ----------------------------------------
        # R3: at the east border (wall beyond W) G starts the turn by moving south.
        Rule("R3", G, Guard.build(2, E=occ(W), EE=WALL, S=EMPTY), G, "S"),
        # R4: W, hugging the east wall with G on its southwest diagonal, drops south.
        Rule("R4", W, Guard.build(2, SW=occ(G), E=WALL, S=EMPTY), W, "S"),
        # R5: G, one row below with W on its northeast diagonal and the wall
        #     two cells east, heads west to open the proceeding-west formation.
        Rule("R5", G, Guard.build(2, NE=occ(W), EE=WALL, W=EMPTY), G, "W"),
        # ---- proceeding west -------------------------------------------------
        # R6: the leading G robot steps west with W two cells behind.
        Rule("R6", G, Guard.build(2, EE=occ(W), W=EMPTY), G, "W"),
        # R7: the trailing W robot steps west with G two cells ahead.
        Rule("R7", W, Guard.build(2, WW=occ(G), W=EMPTY), W, "W"),
        # ---- turning east (Figure 5) -----------------------------------------
        # R8: at the west border G starts the turn by moving south.
        Rule("R8", G, Guard.build(2, EE=occ(W), W=WALL, S=EMPTY), G, "S"),
        # R9: W, with G on its southwest diagonal and the wall two cells west,
        #     drops south to restore the proceeding-east formation.
        Rule("R9", W, Guard.build(2, SW=occ(G), WW=WALL, S=EMPTY), W, "S"),
        # ---- end of exploration (m even) --------------------------------------
        # R10: in the southwest corner of the last row G steps east onto the
        #      node W is about to reach, producing the terminal {G, W} stack.
        Rule("R10", G, Guard.build(2, EE=occ(W), W=WALL, S=WALL, E=EMPTY), G, "E"),
    )
    return Algorithm(
        name="fsync_phi2_l2_chir_k2",
        synchrony=Synchrony.FSYNC,
        phi=2,
        colors=(G, W),
        chirality=True,
        k=2,
        rules=rules,
        initial_placement=(((0, 0), G), ((0, 1), W)),
        min_m=2,
        min_n=3,
        paper_section="4.2.1",
        description="Algorithm 1: FSYNC, phi=2, two colors, common chirality, two robots",
        optimal=True,
    )


#: Algorithm 1, ready to simulate.
ALGORITHM = build()
