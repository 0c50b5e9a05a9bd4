"""Algorithm 8 — ASYNC, phi = 2, ell = 2, common chirality, k = 3 (Section 4.3.3).

Two colors only, so the travel direction is encoded in the *shape* of the
three-robot formation rather than in the palette.  At most one robot is
enabled at any reachable configuration, which is what makes the algorithm
asynchronous-safe.

* **Proceeding east** (R1-R3, northwest-anchored): a ``G`` on the sweep
  row, the ``W`` leader ahead of it, and a second ``G`` one row below the
  first; the three robots cycle W, north-G, south-G.
* **Turning west** (R4-R8, Figure 15): at the east border the ``W`` drops
  south, the southern ``G`` recolors to ``W``, the northern ``G`` slides
  into the border column and the two ``W`` robots and the ``G`` reassemble
  one row further south in the westward formation.
* **Proceeding west** (R9-R11): the ``W`` leader on the sweep row, the
  ``G`` behind it and the second ``W`` below the ``G``.
* **Turning east** (R12-R16, Figure 16): the symmetric pivot at the west
  border, including the idle recoloring (R13) that converts the westward
  formation back into the eastward one.
* **End of exploration**: with ``m`` even the last eastward sweep ends in
  the southeast corner right after R4; with ``m`` odd the last westward
  sweep ends in the southwest corner right after R12 (Section 4.3.3).
"""

from __future__ import annotations

from ..core.algorithm import Algorithm, Synchrony
from ..core.colors import G, W
from ..core.rules import EMPTY, Guard, Rule, WALL, occ

__all__ = ["ALGORITHM", "build"]


def build() -> Algorithm:
    """Construct Algorithm 8 of the paper."""
    rules = (
        # ---- proceeding east -------------------------------------------------
        # R1: the W leader steps east (north G behind it, south G on its rear
        #     diagonal).
        Rule("R1", W, Guard.build(2, W=occ(G), SW=occ(G), E=EMPTY), W, "E"),
        # R2: the north G follows once the leader is two cells ahead.
        Rule("R2", G, Guard.build(2, EE=occ(W), S=occ(G), E=EMPTY), G, "E"),
        # R3: the south G closes the formation (the vacated node above it and
        #     the north G on its forward diagonal identify it).
        Rule("R3", G, Guard.build(2, NE=occ(G), N=EMPTY, E=EMPTY), G, "E"),
        # ---- turning west (Figure 15) ------------------------------------------
        # R4: at the east border the W drops south.
        Rule("R4", W, Guard.build(2, W=occ(G), SW=occ(G), E=WALL, S=EMPTY), W, "S"),
        # R5: the south G, squeezed between the north G and the W against the
        #     border, recolors to W without moving.
        Rule("R5", G, Guard.build(2, N=occ(G), E=occ(W), EE=WALL, S=EMPTY), W, None),
        # R6: the north G slides into the border column over the two W robots.
        Rule("R6", G, Guard.build(2, S=occ(W), SE=occ(W), E=EMPTY, EE=WALL), G, "E"),
        # R7: the W beside the border drops south.
        Rule("R7", W, Guard.build(2, W=occ(W), N=occ(G), E=WALL, S=EMPTY), W, "S"),
        # R8: the G in the border column drops south, completing the westward
        #     formation one row down.
        Rule("R8", G, Guard.build(2, SW=occ(W), SS=occ(W), E=WALL, S=EMPTY), G, "S"),
        # ---- proceeding west -------------------------------------------------
        # R9: the W leader steps west (G behind it, the other W on its rear
        #     diagonal).
        Rule("R9", W, Guard.build(2, E=occ(G), SE=occ(W), W=EMPTY), W, "W"),
        # R10: the G follows once the leader is two cells ahead.
        Rule("R10", G, Guard.build(2, WW=occ(W), S=occ(W), W=EMPTY), G, "W"),
        # R11: the trailing W closes the formation.
        Rule("R11", W, Guard.build(2, NW=occ(G), N=EMPTY, W=EMPTY), W, "W"),
        # ---- turning east (Figure 16) -------------------------------------------
        # R12: at the west border the W leader drops south (also the final
        #      move of the exploration when m is odd).
        Rule("R12", W, Guard.build(2, E=occ(G), SE=occ(W), W=WALL, S=EMPTY), W, "S"),
        # R13: that W recolors to G while idle, seeding the eastward pair.
        Rule("R13", W, Guard.build(2, E=occ(W), NE=occ(G), W=WALL, N=EMPTY, S=EMPTY), G, None),
        # R14: the G on the sweep row slides into the border column above the
        #      new G.
        Rule("R14", G, Guard.build(2, S=occ(W), SW=occ(G), W=EMPTY, WW=WALL), G, "W"),
        # R15: the southern G drops one row along the border.
        Rule("R15", G, Guard.build(2, N=occ(G), E=occ(W), W=WALL, S=EMPTY), G, "S"),
        # R16: the northern G drops onto the vacated node, completing the
        #      eastward formation.
        Rule("R16", G, Guard.build(2, SS=occ(G), SE=occ(W), S=EMPTY, W=WALL), G, "S"),
    )
    return Algorithm(
        name="async_phi2_l2_chir_k3",
        synchrony=Synchrony.ASYNC,
        phi=2,
        colors=(G, W),
        chirality=True,
        k=3,
        rules=rules,
        initial_placement=(((0, 0), G), ((0, 1), W), ((1, 0), G)),
        min_m=2,
        min_n=3,
        paper_section="4.3.3",
        description="Algorithm 8: ASYNC, phi=2, two colors, common chirality, three robots",
        optimal=False,
    )


#: Algorithm 8 of the paper, ready to simulate.
ALGORITHM = build()
