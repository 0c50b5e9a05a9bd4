"""Simulation-based verification of the terminating exploration property.

The paper proves each algorithm correct with pencil and paper; this module
replaces the proofs with three executable checks of increasing strength:

1. :func:`verify_terminating_exploration` — one bounded execution under a
   given scheduler must terminate with full node coverage (Definition 1);
2. :func:`grid_sweep` — the same check over a family of grid sizes
   (both parities of ``m`` and ``n``, small and rectangular extremes);
3. :func:`stress_test` — for the SSYNC/ASYNC algorithms, many randomized
   scheduler seeds per grid, exercising adversarial-ish interleavings.

Exhaustive exploration of *all* scheduler behaviours on small grids is the
job of :mod:`repro.checking`; the campaigns here scale to larger grids.

The execution machinery lives in the engine kernel
(:mod:`repro.engine.campaign`): every campaign is a flat list of
independent :class:`~repro.engine.campaign.CampaignTask` work items, run
here serially by default.  The same task lists can be fanned across a
process pool on the same machine — with byte-identical reports — through
:class:`~repro.engine.campaign.ParallelCampaignEngine`, re-exported here;
passing ``pool=`` (a persistent
:class:`~repro.engine.pool.ExplorationPool`) to any campaign below runs
its tasks on those long-lived, cache-warm workers instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from ..core.algorithm import Algorithm
from ..core.simulator import TieBreak
from ..engine.campaign import (
    CampaignTask,
    GridSweepReport,
    ParallelCampaignEngine,
    VerificationReport,
    execute_tasks,
    exhaustive_check_tasks,
    grid_sweep_tasks,
    stress_test_tasks,
    verify_one,
)
from ..engine.pool import ExplorationPool
from ..engine.suites import default_grid_suite

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.backend import ExecutionBackend
    from ..engine.store import VerdictStore

__all__ = [
    "VerificationReport",
    "GridSweepReport",
    "ParallelCampaignEngine",
    "verify_terminating_exploration",
    "verify_algorithm",
    "grid_sweep",
    "stress_test",
    "exhaustive_sweep",
    "default_grid_suite",
]


def verify_terminating_exploration(
    algorithm: Algorithm,
    m: int,
    n: int,
    model: str = "FSYNC",
    seed: Optional[int] = None,
    tie_break: str = TieBreak.ERROR,
    max_steps: Optional[int] = None,
) -> VerificationReport:
    """Check Definition 1 on one bounded execution."""
    return verify_one(algorithm, m, n, model=model, seed=seed, tie_break=tie_break, max_steps=max_steps)


def _run_campaign(
    algorithm: Algorithm,
    tasks: List[CampaignTask],
    pool: Optional[ExplorationPool],
    backend: Optional["ExecutionBackend"] = None,
    journal=None,
    resume: bool = True,
    store: Optional["VerdictStore"] = None,
) -> GridSweepReport:
    """Run a task list serially, on a persistent pool, or on a backend.

    All paths produce byte-identical reports (every run is a pure function
    of its task), so ``pool=`` / ``backend=`` are purely throughput and
    cache-reuse decisions: pooled campaigns share the pool's long-lived
    workers — and their warm matcher caches — with every other workload on
    the pool, and a ``backend`` (``SerialBackend`` / ``PoolBackend``)
    routes the same task list to its workers.  ``backend`` supersedes
    ``pool``, and the campaign's fan-out width is the backend's
    ``parallelism``.

    ``journal`` (a :class:`~repro.engine.journal.CampaignJournal` or a
    path) makes the campaign durable and — with ``resume=True`` —
    resumable: completed verdicts are fsynced as they land and replayed
    instead of re-executed on the next run, with reports identical to an
    uninterrupted campaign's.

    ``store`` (a :class:`~repro.engine.store.VerdictStore`) memoizes every
    report by task content — across campaigns, processes and runs of the
    program.  Stored verdicts short-circuit dispatch entirely (they never
    reach the pool/backend), fresh ones are recorded before the campaign
    returns, and reports served from the store compare equal to freshly
    computed ones on every route.
    """
    if backend is not None or pool is not None or journal is not None or store is not None:
        engine = ParallelCampaignEngine(
            workers=None if (backend is not None or pool is not None) else 1,
            pool=pool,
            backend=backend,
            store=store,
        )
        return GridSweepReport(
            algorithm=algorithm.name,
            reports=engine.run_tasks(algorithm, tasks, journal=journal, resume=resume),
        )
    return GridSweepReport(algorithm=algorithm.name, reports=execute_tasks(algorithm, tasks))


def grid_sweep(
    algorithm: Algorithm,
    sizes: Optional[Iterable[Tuple[int, int]]] = None,
    model: str = "FSYNC",
    seed: Optional[int] = None,
    tie_break: str = TieBreak.ERROR,
    pool: Optional[ExplorationPool] = None,
    backend: Optional["ExecutionBackend"] = None,
    journal=None,
    resume: bool = True,
    store: Optional["VerdictStore"] = None,
) -> GridSweepReport:
    """Verify terminating exploration over a family of grid sizes."""
    tasks = grid_sweep_tasks(algorithm, sizes=sizes, model=model, seed=seed, tie_break=tie_break)
    return _run_campaign(algorithm, tasks, pool, backend, journal=journal, resume=resume, store=store)


def stress_test(
    algorithm: Algorithm,
    sizes: Optional[Iterable[Tuple[int, int]]] = None,
    models: Sequence[str] = ("SSYNC", "ASYNC"),
    seeds: Sequence[int] = tuple(range(10)),
    tie_break: str = TieBreak.FIRST,
    pool: Optional[ExplorationPool] = None,
    backend: Optional["ExecutionBackend"] = None,
    journal=None,
    resume: bool = True,
    store: Optional["VerdictStore"] = None,
) -> GridSweepReport:
    """Randomized-scheduler campaign for the SSYNC/ASYNC algorithms."""
    tasks = stress_test_tasks(algorithm, sizes=sizes, models=models, seeds=seeds, tie_break=tie_break)
    return _run_campaign(algorithm, tasks, pool, backend, journal=journal, resume=resume, store=store)


def exhaustive_sweep(
    algorithm: Algorithm,
    sizes: Optional[Iterable[Tuple[int, int]]] = None,
    model: str = "FSYNC",
    reduction: Optional[str] = "grid",
    max_states: int = 200_000,
    pool: Optional[ExplorationPool] = None,
    backend: Optional["ExecutionBackend"] = None,
    journal=None,
    resume: bool = True,
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
    return _run_campaign(algorithm, tasks, pool, backend, journal=journal, resume=resume, store=store)


def verify_algorithm(
    algorithm: Algorithm,
    sizes: Optional[Iterable[Tuple[int, int]]] = None,
    seeds: Sequence[int] = tuple(range(5)),
    pool: Optional[ExplorationPool] = None,
    backend: Optional["ExecutionBackend"] = None,
    journal=None,
    resume: bool = True,
    store: Optional["VerdictStore"] = None,
) -> GridSweepReport:
    """The full campaign appropriate for an algorithm's claimed model.

    FSYNC algorithms get a deterministic FSYNC sweep; ASYNC algorithms
    additionally get randomized SSYNC and ASYNC stress runs.  A single
    ``journal`` covers both phases (task content hashes never collide
    across them).
    """
    from ..engine.journal import CampaignJournal

    # Open a path-journal once up front: both phases share it, and opening
    # it per phase with ``resume=False`` would truncate phase one's records.
    owned = journal is not None and not isinstance(journal, CampaignJournal)
    jnl = CampaignJournal(journal, fresh=not resume) if owned else journal
    try:
        report = grid_sweep(
            algorithm, sizes=sizes, model="FSYNC", pool=pool, backend=backend,
            journal=jnl, resume=resume, store=store,
        )
        if algorithm.synchrony == "ASYNC":
            stress = stress_test(
                algorithm, sizes=sizes, seeds=seeds, pool=pool, backend=backend,
                journal=jnl, resume=resume, store=store,
            )
            report.reports.extend(stress.reports)
    finally:
        if owned:
            jnl.close()
    return report
