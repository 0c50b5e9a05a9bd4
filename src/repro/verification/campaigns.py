"""Simulation-based verification of the terminating exploration property.

The paper proves each algorithm correct with pencil and paper; this module
replaces the proofs with campaigns of executable checks:

1. :func:`grid_sweep` — one bounded execution per grid size of a family
   (both parities of ``m`` and ``n``, small and rectangular extremes)
   must terminate with full node coverage (Definition 1);
2. :func:`stress_test` — for the SSYNC/ASYNC algorithms, many randomized
   scheduler seeds per grid, exercising adversarial-ish interleavings;
3. :func:`exhaustive_sweep` — exhaustive model checks on small grids.

Every campaign builds a flat list of independent
:class:`~repro.engine.campaign.CampaignTask` work items and runs it through
:class:`~repro.engine.campaign.ParallelCampaignEngine` (re-exported here),
the one writer of task reports to a store.  Each campaign takes the
engine's two routing arguments: ``backend`` (serial by default, or a
:class:`~repro.engine.backend.PoolBackend` fanning the tasks across local
worker processes — with byte-identical reports) and ``store`` (a
:class:`~repro.engine.store.VerdictStore` that serves finished reports
and records each fresh one as it completes, so running a killed campaign
again against the same store resumes it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Tuple

from ..core.algorithm import Algorithm
from ..core.simulator import TieBreak
from ..engine.campaign import (
    STRESS_MODELS,
    STRESS_SEEDS,
    VERIFY_SEEDS,
    GridSweepReport,
    ParallelCampaignEngine,
    VerificationReport,
    exhaustive_check_tasks,
    grid_sweep_tasks,
    stress_test_tasks,
)
from ..engine.suites import default_grid_suite

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.backend import ExecutionBackend
    from ..engine.store import VerdictStore

__all__ = [
    "VerificationReport",
    "GridSweepReport",
    "ParallelCampaignEngine",
    "verify_algorithm",
    "grid_sweep",
    "stress_test",
    "exhaustive_sweep",
    "default_grid_suite",
]


def grid_sweep(
    algorithm: Algorithm,
    sizes: Optional[Iterable[Tuple[int, int]]] = None,
    model: str = "FSYNC",
    seed: Optional[int] = None,
    tie_break: str = TieBreak.ERROR,
    backend: Optional["ExecutionBackend"] = None,
    store: Optional["VerdictStore"] = None,
) -> GridSweepReport:
    """Verify terminating exploration over a family of grid sizes."""
    tasks = grid_sweep_tasks(algorithm, sizes=sizes, model=model, seed=seed, tie_break=tie_break)
    reports = ParallelCampaignEngine(backend=backend, store=store).run_tasks(tasks)
    return GridSweepReport(algorithm=algorithm.name, reports=reports)


def stress_test(
    algorithm: Algorithm,
    sizes: Optional[Iterable[Tuple[int, int]]] = None,
    models: Sequence[str] = STRESS_MODELS,
    seeds: Sequence[int] = STRESS_SEEDS,
    tie_break: str = TieBreak.FIRST,
    backend: Optional["ExecutionBackend"] = None,
    store: Optional["VerdictStore"] = None,
) -> GridSweepReport:
    """Randomized-scheduler campaign for the SSYNC/ASYNC algorithms."""
    tasks = stress_test_tasks(algorithm, sizes=sizes, models=models, seeds=seeds, tie_break=tie_break)
    reports = ParallelCampaignEngine(backend=backend, store=store).run_tasks(tasks)
    return GridSweepReport(algorithm=algorithm.name, reports=reports)


def exhaustive_sweep(
    algorithm: Algorithm,
    sizes: Optional[Iterable[Tuple[int, int]]] = None,
    model: str = "FSYNC",
    reduction: Optional[str] = "grid",
    max_states: int = 200_000,
    backend: Optional["ExecutionBackend"] = None,
    store: Optional["VerdictStore"] = None,
) -> GridSweepReport:
    """Exhaustive model checks over a family of (small) grid sizes.

    Each task decides Definition 1 over *every* scheduler behaviour by
    exploring the full state space, under the grid quotient by default
    (``reduction="grid"``; ``"none"`` explores unreduced — see
    :mod:`repro.engine.symmetry`); the verdicts are reduction-independent,
    only the explored state counts and wall time shrink.  Reports carry the
    quotient statistics alongside the cache counters.
    Every check explores on the one successor kernel,
    :class:`~repro.engine.transition.AlgorithmTransitionSystem`.
    """
    tasks = exhaustive_check_tasks(
        algorithm, sizes=sizes, model=model, reduction=reduction, max_states=max_states,
    )
    reports = ParallelCampaignEngine(backend=backend, store=store).run_tasks(tasks)
    return GridSweepReport(algorithm=algorithm.name, reports=reports)


def verify_algorithm(
    algorithm: Algorithm,
    sizes: Optional[Iterable[Tuple[int, int]]] = None,
    seeds: Sequence[int] = VERIFY_SEEDS,
    backend: Optional["ExecutionBackend"] = None,
    store: Optional["VerdictStore"] = None,
) -> GridSweepReport:
    """The full campaign appropriate for an algorithm's claimed model.

    FSYNC algorithms get a deterministic FSYNC sweep; ASYNC algorithms
    additionally get randomized SSYNC and ASYNC stress runs.
    """
    report = grid_sweep(algorithm, sizes=sizes, model="FSYNC", backend=backend, store=store)
    if algorithm.synchrony == "ASYNC":
        stress = stress_test(algorithm, sizes=sizes, seeds=seeds, backend=backend, store=store)
        report.reports.extend(stress.reports)
    return report
