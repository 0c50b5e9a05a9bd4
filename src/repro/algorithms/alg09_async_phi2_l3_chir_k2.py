"""Algorithm 6 — ASYNC, phi = 2, ell = 3, common chirality, k = 2 (Section 4.3.1).

Optimal in the number of robots, and correct under the asynchronous
scheduler (hence also SSYNC and FSYNC).  Asynchrony is handled by keeping
*at most one robot enabled at any reachable configuration*: the robots take
turns, so no stale-snapshot hazard can arise, and the intermediate
configurations created by the color changes of rules R4 and R8 enable no
rule (Figures 12-13).

* **Proceeding east** (R1, R2): ``W`` leads; the two robots alternate
  single steps, the gap between them oscillating between one and two.
* **Turning west** (R3, R4, Figure 12): at the east border ``W`` drops
  south, then ``G`` recolors to ``B`` and drops south beside it.
* **Proceeding west** (R5, R6): ``B`` leads, ``W`` trails.
* **Turning east** (R7-R9, Figure 13): at the west border ``B`` drops
  south, recolors to ``G`` while idle, and only then does ``W`` drop south
  — the idle recoloring is what prevents the pair from immediately reading
  itself as a westward formation again.
* **End of exploration**: on the last row the sweep simply runs out of
  enabled rules in the corner (southeast when ``m`` is odd, southwest when
  ``m`` is even).
"""

from __future__ import annotations

from ..core.algorithm import Algorithm, Synchrony
from ..core.colors import B, G, W
from ..core.rules import EMPTY, Guard, Rule, WALL, occ

__all__ = ["ALGORITHM", "build"]


def build() -> Algorithm:
    """Construct Algorithm 6 of the paper."""
    rules = (
        # ---- proceeding east -------------------------------------------------
        # R1: W steps east when G is right behind it.
        Rule("R1", W, Guard.build(2, W=occ(G), E=EMPTY), W, "E"),
        # R2: G steps east when W is two cells ahead.
        Rule("R2", G, Guard.build(2, EE=occ(W), E=EMPTY), G, "E"),
        # ---- turning west (Figure 12) ------------------------------------------
        # R3: at the east border W drops south.
        Rule("R3", W, Guard.build(2, W=occ(G), E=WALL, S=EMPTY), W, "S"),
        # R4: G, seeing W on its southeast diagonal against the border,
        #     recolors to B and drops south (intermediate configuration
        #     enables nothing).
        Rule("R4", G, Guard.build(2, SE=occ(W), EE=WALL, S=EMPTY), B, "S"),
        # ---- proceeding west -------------------------------------------------
        # R5: B steps west when W is right behind it.
        Rule("R5", B, Guard.build(2, E=occ(W), W=EMPTY), B, "W"),
        # R6: W steps west when B is two cells ahead.
        Rule("R6", W, Guard.build(2, WW=occ(B), W=EMPTY), W, "W"),
        # ---- turning east (Figure 13) -------------------------------------------
        # R7: at the west border B drops south.
        Rule("R7", B, Guard.build(2, E=occ(W), W=WALL, S=EMPTY), B, "S"),
        # R8: B, now below-left of the W, recolors to G without moving; only
        #     after this does the W see a proceeding-east pattern.
        Rule("R8", B, Guard.build(2, NE=occ(W), W=WALL, N=EMPTY), G, None),
        # R9: W drops south next to the recolored G, restoring the eastward
        #     formation one row further south.  The empty-north constraint
        #     pins the rotation so the rule cannot fire (rotated) right after
        #     the westward turn, where the wall lies north instead of west.
        Rule("R9", W, Guard.build(2, SW=occ(G), WW=WALL, S=EMPTY, N=EMPTY), W, "S"),
    )
    return Algorithm(
        name="async_phi2_l3_chir_k2",
        synchrony=Synchrony.ASYNC,
        phi=2,
        colors=(G, W, B),
        chirality=True,
        k=2,
        rules=rules,
        initial_placement=(((0, 0), G), ((0, 1), W)),
        min_m=2,
        min_n=3,
        paper_section="4.3.1",
        description="Algorithm 6: ASYNC, phi=2, three colors, common chirality, two robots",
        optimal=True,
    )


#: Algorithm 6 of the paper, ready to simulate.
ALGORITHM = build()
