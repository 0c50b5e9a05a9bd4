"""Regeneration of Table 1 (the paper's headline result table).

Table 1 lists, for every combination of synchrony, visibility ``phi``,
number of colors ``ell`` and chirality, the lower bound and the upper
bound (achieved by an algorithm) on the number of robots for terminating
grid exploration.  :func:`build_table1` reproduces the table from this
repository's artifacts:

* the *upper bound* of a row is the robot count of the registered
  algorithm for that row, and its "measured" entry reports whether the
  verification campaign (simulation sweeps, plus exhaustive model checking
  for the SSYNC/ASYNC rows) confirms terminating exploration;
* the *lower bound* of the ``phi = 1`` SSYNC/ASYNC rows is the paper's own
  Theorem 1, whose executable demonstration lives in
  :mod:`repro.impossibility`; the other lower bounds are quoted from
  Bramas et al. [5] exactly as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..algorithms import table1_rows
from ..checking import check_terminating_exploration
from ..core.algorithm import Algorithm
from ..core.grid import Grid
from ..verification import verify_algorithm

__all__ = ["Table1Row", "build_table1", "render_table1", "PAPER_TABLE1"]

#: Why a row without a registered algorithm is not reproduced (row 14).
NOT_TRANSCRIBED = "not reproduced: rule table not transcribed (the paper text is unavailable here)"
#: Algorithms claimed for n >= 4 because on 3 columns a robot's view during
#: a turn is mirror-symmetric, so without chirality no guard can orient it
#: (see the reproduction notes in their modules; the l1 row derives from
#: Algorithm 2).
MIRRORED_ON_3_COLUMNS = frozenset(
    {"fsync_phi2_l2_nochir_k3", "fsync_phi2_l1_nochir_k4", "async_phi2_l3_nochir_k3"}
)
MIRRORED_NOTE = "a 3-column view is mirror-symmetric without chirality"


#: The paper's Table 1, keyed by (synchrony, phi, ell, chirality):
#: (lower bound, lower-bound source, upper bound, optimal?).
PAPER_TABLE1 = {
    ("FSYNC", 2, 2, True): (2, "[5]", 2, True),
    ("FSYNC", 2, 2, False): (2, "[5]", 3, False),
    ("FSYNC", 2, 1, True): (3, "[5]", 3, True),
    ("FSYNC", 2, 1, False): (3, "[5]", 4, False),
    ("FSYNC", 1, 3, True): (2, "[5]", 2, True),
    ("FSYNC", 1, 3, False): (2, "[5]", 4, False),
    ("FSYNC", 1, 2, True): (3, "[5]", 3, True),
    ("FSYNC", 1, 2, False): (3, "[5]", 5, False),
    ("ASYNC", 2, 3, True): (2, "[5]", 2, True),
    ("ASYNC", 2, 3, False): (2, "[5]", 3, False),
    ("ASYNC", 2, 2, True): (2, "[5]", 3, False),
    ("ASYNC", 2, 2, False): (2, "[5]", 4, False),
    ("ASYNC", 1, 3, True): (3, "Thm 1", 3, True),
    ("ASYNC", 1, 3, False): (3, "Thm 1", 6, False),
}


@dataclass
class Table1Row:
    """One regenerated row of Table 1."""

    synchrony: str
    phi: int
    ell: int
    chirality: bool
    lower_bound: int
    lower_source: str
    paper_upper: int
    paper_optimal: bool
    algorithm: Optional[str]
    measured_k: Optional[int]
    verified: Optional[bool]
    model_checked: Optional[bool]
    note: str = ""

    @property
    def matches_paper(self) -> bool:
        """Whether the measured upper bound and its validity match the paper."""
        return (
            self.algorithm is not None
            and self.measured_k == self.paper_upper
            and bool(self.verified)
        )


def _check_row(algorithm: Algorithm, quick: bool) -> Tuple[bool, Optional[bool]]:
    """Verification outcome (simulation sweep, plus an SSYNC check on 3x4 for ASYNC rows)."""
    seeds = (0, 1) if quick else tuple(range(5))
    report = verify_algorithm(algorithm, seeds=seeds)
    verified = report.ok
    model_checked: Optional[bool] = None
    if algorithm.synchrony == "ASYNC":
        grid = Grid(max(algorithm.min_m, 3), max(algorithm.min_n, 4))
        result = check_terminating_exploration(algorithm, grid, model="SSYNC")
        model_checked = result.ok
    return verified, model_checked


def build_table1(quick: bool = True) -> List[Table1Row]:
    """Regenerate Table 1 from the registered algorithms.

    ``quick=True`` uses a reduced seed set for the randomized campaigns
    (suitable for benchmarks); ``quick=False`` runs the full campaign.
    """
    registered = {
        (a.synchrony, a.phi, a.ell, a.chirality): a for a in table1_rows()
    }
    rows: List[Table1Row] = []
    for key, (lower, source, upper, optimal) in PAPER_TABLE1.items():
        synchrony, phi, ell, chirality = key
        algorithm = registered.get(key)
        if algorithm is None:
            rows.append(
                Table1Row(
                    synchrony=synchrony,
                    phi=phi,
                    ell=ell,
                    chirality=chirality,
                    lower_bound=lower,
                    lower_source=source,
                    paper_upper=upper,
                    paper_optimal=optimal,
                    algorithm=None,
                    measured_k=None,
                    verified=None,
                    model_checked=None,
                    note=NOT_TRANSCRIBED,
                )
            )
            continue
        verified, model_checked = _check_row(algorithm, quick)
        note = ""
        if algorithm.name in MIRRORED_ON_3_COLUMNS:
            note = f"verified for n >= {algorithm.min_n}: {MIRRORED_NOTE}"
        elif algorithm.min_n > 3:
            note = f"verified for n >= {algorithm.min_n}, the bound its encoding claims (paper: n >= 3)"
        rows.append(
            Table1Row(
                synchrony=synchrony,
                phi=phi,
                ell=ell,
                chirality=chirality,
                lower_bound=lower,
                lower_source=source,
                paper_upper=upper,
                paper_optimal=optimal,
                algorithm=algorithm.name,
                measured_k=algorithm.k,
                verified=verified,
                model_checked=model_checked,
                note=note,
            )
        )
    return rows


def render_table1(rows: Sequence[Table1Row]) -> str:
    """Render the regenerated Table 1 as aligned text."""
    header = (
        f"{'Synchrony':<11}{'phi':<5}{'ell':<5}{'chir':<6}{'LB':<4}{'LB src':<8}"
        f"{'paper UB':<10}{'repo k':<8}{'verified':<10}{'checked':<9}note"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        chirality = "yes" if row.chirality else "no"
        star = "*" if row.paper_optimal else ""
        verified = "-" if row.verified is None else ("yes" if row.verified else "NO")
        checked = "-" if row.model_checked is None else ("yes" if row.model_checked else "NO")
        measured = "-" if row.measured_k is None else str(row.measured_k)
        lines.append(
            f"{row.synchrony:<11}{row.phi:<5}{row.ell:<5}{chirality:<6}{row.lower_bound:<4}"
            f"{row.lower_source:<8}{str(row.paper_upper) + star:<10}{measured:<8}"
            f"{verified:<10}{checked:<9}{row.note}"
        )
    return "\n".join(lines)
