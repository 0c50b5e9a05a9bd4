"""Algorithm 3 — FSYNC, phi = 1, ell = 3, common chirality, k = 2 (Section 4.2.5).

Optimal in the number of robots.  Two robots with colors from
``{G, W, B}`` sweep the boustrophedon route with visibility one:

* **Proceeding east** (R1, R2): ``G`` behind, ``W`` ahead, both step east.
* **Turning west** (R3-R5, Figure 7): at the east border ``W`` turns into a
  ``G`` and drops south while the old ``G`` closes in; chirality then lets
  the two (now identically colored) robots tell "north of the pair" from
  "south of the pair", the southern one recolors to ``B`` and heads west
  (R4) while the northern one drops onto the vacated node (R5).
* **Proceeding west** (R6, R7): ``B`` ahead (west), ``G`` behind, adjacent.
* **Turning east** (R8-R10, Figure 8): at the west border ``B`` drops
  south, recolors to ``W`` and steps east (R9) while ``G`` follows south
  (R10), restoring the proceeding-east formation.
* **End of exploration**: with ``m`` odd the trailing ``G`` stacks onto the
  ``W`` in the southeast corner; with ``m`` even it stacks onto the ``B``
  in the southwest corner.  Both stacks are terminal.
"""

from __future__ import annotations

from ..core.algorithm import Algorithm, Synchrony
from ..core.colors import B, G, W
from ..core.rules import EMPTY, Guard, Rule, WALL, occ

__all__ = ["ALGORITHM", "build"]


def build() -> Algorithm:
    """Construct Algorithm 3 of the paper."""
    rules = (
        # ---- proceeding east -------------------------------------------------
        # R1: leading W steps east while G sits right behind it.
        Rule("R1", W, Guard.build(1, W=occ(G), E=EMPTY), W, "E"),
        # R2: trailing G follows the W east (also used to stack at the very end).
        Rule("R2", G, Guard.build(1, E=occ(W)), G, "E"),
        # ---- turning west (Figure 7) ------------------------------------------
        # R3: at the east border W recolors to G and drops south.
        Rule("R3", W, Guard.build(1, W=occ(G), E=WALL, S=EMPTY), G, "S"),
        # R4: the southern robot of the vertical G/G pair at the east border
        #     recolors to B and heads west (chirality tells it from R5's robot).
        Rule("R4", G, Guard.build(1, N=occ(G), E=WALL, W=EMPTY), B, "W"),
        # R5: the northern robot of the same pair drops onto the vacated node.
        Rule("R5", G, Guard.build(1, S=occ(G), E=WALL, W=EMPTY), G, "S"),
        # ---- proceeding west -------------------------------------------------
        # R6: leading B steps west while G sits right behind it.  The row just
        #     explored (north) is known to be empty; constraining it prevents a
        #     rotated match along the west wall during the eastward turn.
        Rule("R6", B, Guard.build(1, E=occ(G), W=EMPTY, N=EMPTY), B, "W"),
        # R7: trailing G follows the B west (also used to stack at the very
        #     end).  The empty-north constraint separates it from R10, which
        #     handles the G against the west wall during the eastward turn.
        Rule("R7", G, Guard.build(1, W=occ(B), N=EMPTY), G, "W"),
        # ---- turning east (Figure 8) ------------------------------------------
        # R8: at the west border B drops south.  The empty-north constraint
        #     pins the orientation in the southwest corner, where both the
        #     west and the south cells are walls and a rotated match would
        #     otherwise send B east instead of south.
        Rule("R8", B, Guard.build(1, E=occ(G), W=WALL, S=EMPTY, N=EMPTY), B, "S"),
        # R9: B, now below the G and hugging the west wall, recolors to W and
        #     steps east to become the new leader of the eastward sweep.
        Rule("R9", B, Guard.build(1, N=occ(G), W=WALL, E=EMPTY), W, "E"),
        # R10: G follows the departing B south along the west wall.
        Rule("R10", G, Guard.build(1, S=occ(B), W=WALL), G, "S"),
    )
    return Algorithm(
        name="fsync_phi1_l3_chir_k2",
        synchrony=Synchrony.FSYNC,
        phi=1,
        colors=(G, W, B),
        chirality=True,
        k=2,
        rules=rules,
        initial_placement=(((0, 0), G), ((0, 1), W)),
        min_m=2,
        min_n=3,
        paper_section="4.2.5",
        description="Algorithm 3: FSYNC, phi=1, three colors, common chirality, two robots",
        optimal=True,
    )


#: Algorithm 3 of the paper, ready to simulate.
ALGORITHM = build()
