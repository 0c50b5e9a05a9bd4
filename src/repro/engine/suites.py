"""Shared grid-size suites — the single source of truth for campaigns.

Both the verification campaigns (:mod:`repro.verification.campaigns`) and
the scaling analysis (:mod:`repro.analysis.scaling`) used to carry their
own copies of these families; they now both import from here so a change
to the suite definition lands everywhere at once.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.algorithm import Algorithm

__all__ = [
    "default_grid_suite",
    "scaling_suite",
    "reduction_parity_suite",
    "REDUCTION_BENCH_CASE",
]

#: An ASYNC case of the parity suite where several robots overlap their
#: Look/Compute/Move phases; ``"grid"`` must reach the unreduced verdict on
#: it.
REDUCTION_BENCH_CASE: Tuple[str, int, int, str] = ("async_phi2_l2_nochir_k4", 4, 4, "ASYNC")


def default_grid_suite(algorithm: Algorithm, max_side: int = 9) -> List[Tuple[int, int]]:
    """A representative family of grid sizes for ``algorithm``.

    Covers both parities of each dimension, the minimum supported sizes,
    thin grids (2 rows / few columns) and a couple of larger squares.
    """
    m0, n0 = algorithm.min_m, algorithm.min_n
    candidates = {
        (m0, n0),
        (m0, n0 + 1),
        (m0 + 1, n0),
        (m0 + 1, n0 + 1),
        (2, max(n0, 7)),
        (max(m0, 7), n0),
        (5, max(n0, 6)),
        (6, max(n0, 5)),
        (max_side, max(n0, max_side - 1)),
        (max(m0, max_side - 1), max_side),
    }
    return sorted((m, n) for m, n in candidates if m >= m0 and n >= n0)


def reduction_parity_suite() -> List[Tuple[str, int, int, str]]:
    """Exhaustive-check cases for the grid-quotient verdict-parity tests.

    Every registered algorithm at its minimum supported grid under each of
    FSYNC, SSYNC and ASYNC (all small enough to explore unreduced in
    milliseconds), plus a slightly larger ASYNC case per ASYNC-designed
    algorithm — the regime where several robots hold overlapping
    Look/Compute/Move phases — and :data:`REDUCTION_BENCH_CASE`.  The
    parity tests and the exploration-shape table both draw from this
    list, so "the suite" means the same thing everywhere.
    """
    from ..algorithms import all_algorithms  # local import: avoids a layering cycle

    cases: List[Tuple[str, int, int, str]] = []
    for name, algorithm in sorted(all_algorithms().items()):
        m, n = algorithm.min_m, algorithm.min_n
        for model in ("FSYNC", "SSYNC", "ASYNC"):
            cases.append((name, m, n, model))
        if algorithm.synchrony == "ASYNC":
            cases.append((name, m + 1, n + 1, "ASYNC"))
    if REDUCTION_BENCH_CASE not in cases:
        cases.append(REDUCTION_BENCH_CASE)
    return cases


def scaling_suite(algorithm: Algorithm, max_side: int = 11) -> List[Tuple[int, int]]:
    """The near-square ramp plus thin extremes used by the scaling sweeps."""
    base = max(algorithm.min_n, 4)
    return [(side, side + 1) for side in range(max(algorithm.min_m, 3), max_side + 1)] + [
        (3, base * 4),
        (base * 4, 3 if algorithm.min_n <= 3 else algorithm.min_n),
    ]
