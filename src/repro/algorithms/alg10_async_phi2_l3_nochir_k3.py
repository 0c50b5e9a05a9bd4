"""Algorithm 7 — ASYNC, phi = 2, ell = 3, no common chirality, k = 3 (Section 4.3.2).

Three robots, three colors, visibility two, no chirality, correct under the
asynchronous scheduler.  As in Algorithm 6, at most one robot is enabled at
any reachable configuration, so Look/Compute/Move interleavings cannot
create stale-snapshot hazards, and the color-change intermediates of rules
R5 and R7 enable no rule (Figure 14).

* **Proceeding east** (R1-R3): ``W`` leads on the sweep row, ``G`` trails,
  ``B`` rides one row below the trailing ``G``; the three robots cycle
  B -> W -> G, each moving one step east.
* **Turning west** (R4-R7, Figure 14): at the east border ``B`` drops
  south, ``G`` recolors to ``W`` and drops south, ``B`` tucks back under
  the border column, and finally the old leader recolors to ``G`` and
  drops south, yielding the mirror formation one row down.
* **End of exploration** (R8): when the sweep ends against the last row the
  leading ``W`` steps onto the one unvisited corner node and everything
  halts.
"""

from __future__ import annotations

from ..core.algorithm import Algorithm, Synchrony
from ..core.colors import B, G, W
from ..core.rules import EMPTY, Guard, Rule, WALL, occ

__all__ = ["ALGORITHM", "build"]


def build() -> Algorithm:
    """Construct Algorithm 7 of the paper."""
    rules = (
        # ---- proceeding east (one robot enabled at a time) ----------------------
        # R1: B, sitting below the trailing G with the leader W on its
        #     diagonal, hops east under the leader.
        Rule("R1", B, Guard.build(2, N=occ(G), NE=occ(W), E=EMPTY, EE=EMPTY), B, "E"),
        # R2: the leader W, with G behind and B now below it, steps east.
        Rule("R2", W, Guard.build(2, W=occ(G), S=occ(B), E=EMPTY), W, "E"),
        # R3: the trailing G, with the leader two ahead and B on its forward
        #     diagonal, closes the gap.
        Rule("R3", G, Guard.build(2, EE=occ(W), SE=occ(B), E=EMPTY), G, "E"),
        # ---- turning west (Figure 14) ---------------------------------------------
        # R4: at the east border (wall two cells ahead of B) B drops south.
        Rule("R4", B, Guard.build(2, N=occ(G), NE=occ(W), EE=WALL, S=EMPTY), B, "S"),
        # R5: the trailing G, with B now two rows below it, recolors to W and
        #     drops south.
        Rule("R5", G, Guard.build(2, E=occ(W), EE=WALL, S=EMPTY, SS=occ(B)), W, "S"),
        # R6: B hops east into the border column, under the descending pair.
        #     The two-cells-behind constraint keeps the reflection from
        #     reading the move as "away from the border".
        Rule("R6", B, Guard.build(2, N=occ(W), E=EMPTY, EE=WALL, WW=EMPTY), B, "E"),
        # R7: the old leader, with the new W on its rear diagonal and B two
        #     rows below, recolors to G and drops south, completing the
        #     mirrored formation.
        Rule("R7", W, Guard.build(2, SW=occ(W), SS=occ(B), E=WALL, S=EMPTY), G, "S"),
        # ---- end of exploration -----------------------------------------------------
        # R8: the sweep has reached the far corner of the second-to-last row;
        #     the leading W steps onto the unvisited corner node below it.
        Rule("R8", W, Guard.build(2, E=occ(G), SE=occ(B), W=WALL, S=EMPTY, SS=WALL), W, "S"),
    )
    return Algorithm(
        name="async_phi2_l3_nochir_k3",
        synchrony=Synchrony.ASYNC,
        phi=2,
        colors=(G, W, B),
        chirality=False,
        k=3,
        rules=rules,
        initial_placement=(((0, 0), G), ((0, 1), W), ((1, 0), B)),
        min_m=2,
        # Reproduction note: the paper claims n >= 3, but on a 3-column grid
        # the B robot's view while re-entering the border column is
        # reflection-symmetric (both side walls two cells away), so without a
        # common chirality no guard can orient the move.  We claim n >= 4;
        # Table 1 notes the gap on this row.
        min_n=4,
        paper_section="4.3.2",
        description="Algorithm 7: ASYNC, phi=2, three colors, no chirality, three robots",
        optimal=False,
    )


#: Algorithm 7 of the paper, ready to simulate.
ALGORITHM = build()
