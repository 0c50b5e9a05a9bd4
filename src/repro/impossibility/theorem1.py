"""Theorem 1: with phi = 1 and k = 2, SSYNC terminating exploration is impossible.

The theorem quantifies over all algorithms; the executable content provided
here is threefold:

1. the node-class machinery of the proof (end nodes / inner nodes and the
   requirement that the grid holds at least nine inner nodes, i.e.
   ``m, n >= 9``) lives on :class:`~repro.core.grid.Grid`;
2. an **exact refuter** (:mod:`repro.impossibility.refuter`) decides, for
   any given 2-robot phi = 1 candidate and grid, whether the adversarial
   SSYNC scheduler can keep some node unvisited forever — which is exactly
   the failure mode constructed in the paper's proof.  It reads the answer
   off the model checker's quotient exploration and coverage analysis;
3. :func:`demonstrate_theorem1` runs the refuter on a library of candidate
   algorithms (including the paper's own 2-robot phi = 1 FSYNC algorithm,
   whose guarantees Theorem 1 says cannot survive SSYNC) and reports the
   witnesses; it also confirms, as a control, that the paper's 3-robot
   phi = 1 ASYNC algorithm is *not* refuted — matching the ``>= 3`` lower
   bound being tight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..algorithms import get
from ..core.grid import Grid
from .candidates import candidate_two_robot_algorithms
from .refuter import AdversaryWitness, refute_terminating_exploration

__all__ = ["Theorem1Report", "demonstrate_theorem1"]


@dataclass
class Theorem1Report:
    """Result of the Theorem 1 demonstration."""

    grid: Tuple[int, int]
    witnesses: Dict[str, Optional[AdversaryWitness]] = field(default_factory=dict)
    control: Optional[AdversaryWitness] = None
    control_name: str = ""

    @property
    def all_candidates_refuted(self) -> bool:
        """Whether every 2-robot candidate was defeated by the adversary."""
        return all(witness is not None for witness in self.witnesses.values())

    @property
    def control_survives(self) -> bool:
        """Whether the 3-robot control algorithm resisted the adversary."""
        return self.control is None

    def lines(self) -> List[str]:
        out = [f"Theorem 1 demonstration on a {self.grid[0]}x{self.grid[1]} grid (SSYNC adversary):"]
        for name, witness in self.witnesses.items():
            if witness is None:
                out.append(f"  {name}: NOT refuted (unexpected)")
            else:
                out.append(f"  {witness}")
        if self.control_name:
            status = "survives the adversary (as Table 1 claims)" if self.control_survives else "refuted (unexpected)"
            out.append(f"  control {self.control_name} (k=3): {status}")
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


def demonstrate_theorem1(
    m: int = 4,
    n: int = 4,
    max_states: int = 200_000,
) -> Theorem1Report:
    """Run the Theorem 1 demonstration.

    The proof uses grids with at least nine inner nodes (``m, n >= 9``) to
    get a clean counting argument; the refuter, being exact, finds
    adversary wins on much smaller grids already.  ``m`` and ``n`` can be
    raised to match the proof's regime: each algorithm costs one quotient
    exploration, so 9x9 stays fast.
    """
    grid = Grid(m, n)
    report = Theorem1Report(grid=(m, n))
    for name, algorithm in candidate_two_robot_algorithms().items():
        report.witnesses[name] = refute_terminating_exploration(
            algorithm, grid, model="SSYNC", max_states=max_states
        )
    control = get("async_phi1_l3_chir_k3")
    report.control_name = control.name
    report.control = refute_terminating_exploration(
        control, grid, model="SSYNC", max_states=max_states
    )
    return report
