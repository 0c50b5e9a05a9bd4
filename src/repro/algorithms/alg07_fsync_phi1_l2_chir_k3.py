"""Algorithm 5 — FSYNC, phi = 1, ell = 2, common chirality, k = 3 (Section 4.2.7).

Optimal in the number of robots.  Three robots with colors from ``{G, W}``
sweep the grid; the third robot trails one row below so that two colors
suffice with visibility one.

Formations (northwest-anchored coordinates, see Figures 10-11):

* **Proceeding east** (R1-R3): two ``G`` robots adjacent on row ``r`` and a
  ``W`` robot below the western ``G``; all three step east every round.
* **Turning west** (R4-R7, Figure 10): at the east border the eastern ``G``
  drops south onto the node the ``W`` is entering, forming a ``{G, W}``
  stack; the stack then splits (``G`` continues south, ``W`` heads west)
  while the remaining ``G`` recolors to ``W`` and drops south.
* **Proceeding west** (R8-R10): two ``W`` robots adjacent on row ``r + 1``
  and a ``G`` robot below the eastern ``W`` — the mirror formation, which
  chirality distinguishes from the eastward one.
* **Turning east** (R11-R14, Figure 11): the symmetric turn at the west
  border, producing the eastward formation two rows further south.
* **End of exploration**: the three robots finish stacked on a southern
  corner node (``{G, G, W}`` with ``m`` odd, ``{G, W, W}`` with ``m``
  even); the stacks match no guard, so the configuration is terminal.
"""

from __future__ import annotations

from ..core.algorithm import Algorithm, Synchrony
from ..core.colors import G, W
from ..core.rules import EMPTY, Guard, Rule, WALL, occ

__all__ = ["ALGORITHM", "build"]


def build() -> Algorithm:
    """Construct Algorithm 5 of the paper."""
    rules = (
        # ---- proceeding east -------------------------------------------------
        # R1: the eastern G of the pair steps east.
        Rule("R1", G, Guard.build(1, W=occ(G), E=EMPTY), G, "E"),
        # R2: the western G (recognised by the W below it) steps east.
        Rule("R2", G, Guard.build(1, E=occ(G), S=occ(W)), G, "E"),
        # R3: the trailing W steps east, staying below the western G.
        Rule("R3", W, Guard.build(1, N=occ(G), E=EMPTY), W, "E"),
        # ---- turning west (Figure 10) ------------------------------------------
        # R4: at the east border the eastern G drops south (onto the node the
        #     W is simultaneously entering).
        Rule("R4", G, Guard.build(1, W=occ(G), E=WALL, S=EMPTY), G, "S"),
        # R5: the G of the {G, W} stack at the east border continues south.
        Rule("R5", G, Guard.build(1, C=occ(G, W), N=occ(G), E=WALL, S=EMPTY), G, "S"),
        # R6: the W of the same stack heads west, becoming the western robot
        #     of the westward formation.
        Rule("R6", W, Guard.build(1, C=occ(G, W), N=occ(G), E=WALL, S=EMPTY, W=EMPTY), W, "W"),
        # R7: the G still on the northern row recolors to W and drops south
        #     (also closes the {G, W, W} terminal stack when m is even).
        Rule("R7", G, Guard.build(1, S=occ(G, W), E=WALL), W, "S"),
        # ---- proceeding west -------------------------------------------------
        # R8: the western W of the pair steps west.
        Rule("R8", W, Guard.build(1, E=occ(W), W=EMPTY), W, "W"),
        # R9: the eastern W (recognised by the G below it) steps west.
        Rule("R9", W, Guard.build(1, W=occ(W), S=occ(G)), W, "W"),
        # R10: the trailing G steps west, staying below the eastern W.
        Rule("R10", G, Guard.build(1, N=occ(W), W=EMPTY), G, "W"),
        # ---- turning east (Figure 11) -------------------------------------------
        # R11: at the west border the western W drops south (onto the node the
        #      G is simultaneously entering).
        Rule("R11", W, Guard.build(1, E=occ(W), W=WALL, S=EMPTY), W, "S"),
        # R12: the W of the {G, W} stack at the west border continues south.
        Rule("R12", W, Guard.build(1, C=occ(G, W), N=occ(W), W=WALL, S=EMPTY), W, "S"),
        # R13: the G of the same stack heads east, becoming the eastern robot
        #      of the eastward formation.
        Rule("R13", G, Guard.build(1, C=occ(G, W), N=occ(W), W=WALL, S=EMPTY, E=EMPTY), G, "E"),
        # R14: the W still on the northern row recolors to G and drops south
        #      (also closes the {G, G, W} terminal stack when m is odd).
        Rule("R14", W, Guard.build(1, S=occ(G, W), W=WALL), G, "S"),
    )
    return Algorithm(
        name="fsync_phi1_l2_chir_k3",
        synchrony=Synchrony.FSYNC,
        phi=1,
        colors=(G, W),
        chirality=True,
        k=3,
        rules=rules,
        initial_placement=(((0, 0), G), ((0, 1), G), ((1, 0), W)),
        min_m=2,
        min_n=3,
        paper_section="4.2.7",
        description="Algorithm 5: FSYNC, phi=1, two colors, common chirality, three robots",
        optimal=True,
    )


#: Algorithm 5 of the paper, ready to simulate.
ALGORITHM = build()
