"""Campaign execution: verification work items and the campaign engine.

A verification campaign is a flat list of independent work items
(:class:`CampaignTask`).  A ``"walk"`` task runs one bounded execution
through the walk engine (:mod:`repro.engine.walk`) and scores it against
Definition 1; a ``"check"`` task runs the exhaustive model checker
(:mod:`repro.checking.model_checker`), by default under the grid quotient
(``reduction="grid"``, see :mod:`repro.engine.symmetry`).  Each task
carries its :class:`~repro.core.algorithm.Algorithm` by value (algorithms
are plain, picklable data) next to picklable primitives, so the same list
runs on any :mod:`repro.engine.backend` — in the calling process or
fanned across a local process pool — through one route,
:meth:`ParallelCampaignEngine.run_tasks`, with results returned in task
order.  The routes therefore produce **identical** reports for identical
task lists, registered and ad-hoc algorithms alike.

Durability: an engine handed a :class:`~repro.engine.store.VerdictStore`
serves the reports the store already holds and writes each fresh report to
the store as soon as it completes, under
:func:`~repro.engine.spec.task_store_key`, so a campaign killed mid-run and
run again against the same store computes only the remainder.  The engine
is the only route by which a task report reaches the store: a single
:func:`verify_one` or :func:`check_one` call computes and returns.

Determinism: every randomized run is driven by the explicit seed carried in
its task (never by shared RNG state), so a campaign's outcome is a pure
function of its task list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.algorithm import Algorithm
from ..core.errors import VerificationError
from ..core.execution import ExecutionResult
from ..core.grid import Grid
from .matcher import LocalMatcher
from .spec import task_store_key
from .store import HIT, MISS, VerdictStore
from .suites import default_grid_suite
from .symmetry import normalize_reduction
from .walk import TieBreak, run_async, run_fsync, run_ssync

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a module cycle)
    from .backend import ExecutionBackend

__all__ = [
    "VerificationReport",
    "GridSweepReport",
    "CampaignTask",
    "verify_one",
    "check_one",
    "run_task",
    "grid_sweep_tasks",
    "stress_test_tasks",
    "exhaustive_check_tasks",
    "shape_sizes",
    "ParallelCampaignEngine",
]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------
@dataclass
class VerificationReport:
    """Outcome of a single verification run.

    For ``kind="walk"`` reports ``steps``/``moves`` are the scheduler
    rounds and robot moves of the bounded execution; for ``kind="check"``
    reports (exhaustive model-checking tasks) they carry the explored and
    terminal state counts of the (possibly reduced) state space, and
    ``seed`` is ``None`` (exhaustive checks quantify over every schedule).
    """

    algorithm: str
    model: str
    m: int
    n: int
    #: The seed that actually drove the run (:func:`verify_one` normalizes
    #: ``None`` to ``0`` before executing), so replaying with
    #: ``seed=report.seed`` reproduces the run exactly.  ``None`` only on
    #: reports built by hand and on exhaustive-check reports.
    seed: Optional[int]
    ok: bool
    steps: int
    moves: int
    reason: str
    #: Matcher-cache counters observed *during this run*.  Excluded from
    #: equality (``compare=False``): the numbers depend on how warm the
    #: run's matcher happened to be — a serial campaign shares one cache
    #: across the whole task list while each pool worker warms its own —
    #: and must not break the serial-vs-parallel report parity guarantee.
    cache_hits: Optional[int] = field(default=None, compare=False)
    cache_misses: Optional[int] = field(default=None, compare=False)
    #: ``"walk"`` (bounded execution) or ``"check"`` (exhaustive check).
    kind: str = "walk"
    #: For ``kind="check"``: the reduction the check ran under
    #: (``"none"`` or ``"grid"``).
    reduction: Optional[str] = None
    #: For ``kind="check"``: quotient statistics (group order, orbit
    #: collapses).  Deterministic, but excluded from equality like the
    #: cache counters — observability, not verdict.
    reduction_stats: Optional[Dict[str, Dict[str, float]]] = field(default=None, compare=False)
    #: Verdict-store counters observed when this report was served through
    #: a :class:`~repro.engine.store.VerdictStore` (``None`` when no store
    #: was involved).  Excluded from equality like the cache counters: a
    #: cached report must compare equal to a freshly computed one.
    store_stats: Optional[Dict[str, object]] = field(default=None, compare=False)

    def __str__(self) -> str:
        status = "ok" if self.ok else f"FAILED ({self.reason})"
        if self.kind == "check":
            reduced = f", reduction={self.reduction}" if self.reduction else ""
            return f"{self.algorithm} {self.m}x{self.n} [{self.model} exhaustive{reduced}]: {status}"
        seed = "" if self.seed is None else f", seed={self.seed}"
        return f"{self.algorithm} {self.m}x{self.n} [{self.model}{seed}]: {status}"

    @property
    def cache_hit_rate(self) -> Optional[float]:
        """Fraction of this run's matcher lookups served from the cache."""
        if self.cache_hits is None or self.cache_misses is None:
            return None
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


@dataclass
class GridSweepReport:
    """Aggregated outcome of a verification campaign."""

    algorithm: str
    reports: List[VerificationReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every individual run succeeded."""
        return all(report.ok for report in self.reports)

    @property
    def failures(self) -> List[VerificationReport]:
        return [report for report in self.reports if not report.ok]

    def raise_on_failure(self) -> "GridSweepReport":
        """Raise :class:`VerificationError` if any run failed; return self."""
        if not self.ok:
            raise VerificationError(
                f"{self.algorithm}: {len(self.failures)} verification failures, e.g. {self.failures[0]}"
            )
        return self

    def summary(self) -> str:
        cache = ""
        hits = sum(report.cache_hits or 0 for report in self.reports)
        misses = sum(report.cache_misses or 0 for report in self.reports)
        if hits + misses:
            cache = f" (match cache: {hits / (hits + misses):.0%} hits over {hits + misses} lookups)"
        return (
            f"{self.algorithm}: {len(self.reports) - len(self.failures)}/{len(self.reports)}"
            f" verification runs succeeded{cache}"
        )


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------
def _execute(
    algorithm: Algorithm,
    grid: Grid,
    model: str,
    seed: int,
    tie_break: str,
    max_steps: Optional[int],
    matcher: Optional[LocalMatcher] = None,
) -> ExecutionResult:
    """Run one bounded execution; ``seed`` must already be normalized.

    The seed passes through ``run_*`` (which builds the default
    RandomSubset / RandomAsync scheduler from it) instead of a scheduler
    constructed here, so the seed recorded on the ExecutionResult is the
    one that actually drove the run and replays it exactly.
    """
    if model == "FSYNC":
        return run_fsync(
            algorithm, grid, seed=seed, tie_break=tie_break, max_steps=max_steps, matcher=matcher
        )
    if model == "SSYNC":
        return run_ssync(
            algorithm, grid, seed=seed, tie_break=tie_break, max_steps=max_steps, matcher=matcher
        )
    if model == "ASYNC":
        return run_async(
            algorithm, grid, seed=seed, tie_break=tie_break, max_steps=max_steps, matcher=matcher
        )
    raise VerificationError(f"unknown model {model!r}")


def verify_one(
    algorithm: Algorithm,
    m: int,
    n: int,
    model: str = "FSYNC",
    seed: Optional[int] = None,
    tie_break: str = TieBreak.ERROR,
    max_steps: Optional[int] = None,
    backend: Optional["ExecutionBackend"] = None,
) -> VerificationReport:
    """Check Definition 1 on one bounded execution.

    ``backend`` lends its :attr:`~repro.engine.backend.ExecutionBackend.cache`,
    so repeated calls share snapshot/match memo tables — across seeds,
    models *and* grid sizes; the run's own hit/miss delta is recorded on
    the report.  The run itself always happens in this process.

    ``seed=None`` is normalized to ``0`` *before* the run, and the report
    records the normalized value: the seed on a
    :class:`VerificationReport` is always the seed that actually drove the
    run, so re-running with ``seed=report.seed`` replays it exactly.
    """
    seed = 0 if seed is None else seed
    grid = Grid(m, n)
    matcher = backend.cache.matcher_for(algorithm, grid) if backend is not None else None
    stats_before = matcher.stats.snapshot() if matcher is not None else None
    try:
        result = _execute(algorithm, grid, model, seed, tie_break, max_steps, matcher=matcher)
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        return VerificationReport(
            algorithm=algorithm.name,
            model=model,
            m=m,
            n=n,
            seed=seed,
            ok=False,
            steps=0,
            moves=0,
            reason=f"{type(exc).__name__}: {exc}",
        )
    ok = result.is_terminating_exploration
    reason = "ok"
    if not result.terminated:
        reason = f"did not terminate within {result.steps} steps"
    elif not result.explored:
        reason = f"terminated with {len(result.unvisited)} unvisited nodes"
    delta = matcher.stats.delta_since(stats_before) if matcher is not None else None
    return VerificationReport(
        algorithm=algorithm.name,
        model=model,
        m=m,
        n=n,
        seed=seed,
        ok=ok,
        steps=result.steps,
        moves=result.total_moves,
        reason=reason,
        cache_hits=delta.hits if delta is not None else None,
        cache_misses=delta.misses if delta is not None else None,
    )


def check_one(
    algorithm: Algorithm,
    m: int,
    n: int,
    model: str = "FSYNC",
    reduction: Optional[str] = "grid",
    max_states: int = 200_000,
    backend: Optional["ExecutionBackend"] = None,
) -> VerificationReport:
    """Exhaustively model-check one ``(algorithm, grid, model)`` triple.

    The campaign-shaped wrapper around
    :func:`repro.checking.check_terminating_exploration`: the verdict (and
    its reason), the explored/terminal state counts, the matcher-cache
    delta and the quotient statistics all land on a
    :class:`VerificationReport` with ``kind="check"``, so exhaustive checks
    ride the same serial/parallel campaign machinery as bounded walks.  A
    tripped state budget (or any other failure of the check) is reported,
    not raised; argument errors, such as an unknown ``reduction``, raise
    :class:`ValueError`.  The exploration runs on the one successor
    kernel, :class:`~repro.engine.transition.AlgorithmTransitionSystem`.
    """
    from ..checking.model_checker import (  # local import: avoids a layering cycle
        check_terminating_exploration,
    )

    reduction = normalize_reduction(reduction)
    grid = Grid(m, n)
    try:
        result = check_terminating_exploration(
            algorithm,
            grid,
            model=model,
            max_states=max_states,
            reduction=reduction,
            backend=backend,
        )
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        return VerificationReport(
            algorithm=algorithm.name,
            model=model,
            m=m,
            n=n,
            seed=None,
            ok=False,
            steps=0,
            moves=0,
            reason=f"{type(exc).__name__}: {exc}",
            kind="check",
            reduction=reduction,
        )
    stats = result.matcher_stats
    return VerificationReport(
        algorithm=algorithm.name,
        model=model,
        m=m,
        n=n,
        seed=None,
        ok=result.ok,
        steps=result.states_explored,
        moves=result.terminal_states,
        reason="ok" if result.ok else (result.counterexample or "check failed"),
        cache_hits=int(stats["hits"]) if stats is not None else None,
        cache_misses=int(stats["misses"]) if stats is not None else None,
        kind="check",
        reduction=result.reduction,
        reduction_stats=result.reduction_stats,
    )


# ---------------------------------------------------------------------------
# Work items
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignTask:
    """One independent, picklable verification work item.

    ``algorithm`` is the :class:`~repro.core.algorithm.Algorithm` itself,
    shipped by value to whichever process runs the task; anything else
    raises ``TypeError``.  ``kind`` selects the execution engine:
    ``"walk"`` runs one bounded execution (driven by
    ``seed``/``tie_break``/``max_steps``), ``"check"`` runs the exhaustive
    model checker (driven by ``reduction``/``max_states``).  Any other
    ``kind``, and a check's unknown ``reduction``, raise
    :class:`ValueError` at construction.

    The dataclass ``repr`` — the algorithm appears as its name and content
    digest — is part of every campaign id
    (:func:`~repro.engine.spec.campaign_id`), so adding or removing a field
    changes them: a campaign interrupted before such a change recomputes
    when run again instead of being served from the store.
    """

    algorithm: Algorithm
    m: int
    n: int
    model: str = "FSYNC"
    seed: Optional[int] = None
    tie_break: str = TieBreak.ERROR
    max_steps: Optional[int] = None
    kind: str = "walk"
    #: ``kind="check"`` only: the reduction for the exhaustive exploration,
    #: ``"grid"`` or ``"none"`` (``None`` means ``"none"``).
    reduction: Optional[str] = "grid"
    #: ``kind="check"`` only: the exploration state budget.
    max_states: int = 200_000

    def __post_init__(self) -> None:
        if not isinstance(self.algorithm, Algorithm):
            raise TypeError(
                f"CampaignTask.algorithm must be an Algorithm, got {type(self.algorithm).__name__}"
            )
        if self.kind not in ("walk", "check"):
            raise ValueError(f"CampaignTask.kind must be 'walk' or 'check', got {self.kind!r}")
        if self.kind == "check":
            # Validated only: the field keeps its spelling, because the
            # task repr is part of campaign ids.
            normalize_reduction(self.reduction)


def run_task(task: CampaignTask, backend: Optional["ExecutionBackend"] = None) -> VerificationReport:
    """Execute one task in this process, on ``backend``'s cache.

    With no backend the run matches on a fresh cache: that is the
    reference value every backend must reproduce for ``task``.
    """
    if task.kind == "check":
        return check_one(
            task.algorithm,
            task.m,
            task.n,
            model=task.model,
            reduction=task.reduction,
            max_states=task.max_states,
            backend=backend,
        )
    return verify_one(
        task.algorithm,
        task.m,
        task.n,
        model=task.model,
        seed=task.seed,
        tie_break=task.tie_break,
        max_steps=task.max_steps,
        backend=backend,
    )


#: ``max_side`` of each campaign shape's default size family.
_DEFAULT_MAX_SIDE = {"grid_sweep": 9, "stress_test": 7, "exhaustive_sweep": 4}


def shape_sizes(
    kind: str, algorithm: Algorithm, sizes: Optional[Iterable[Tuple[int, int]]] = None
) -> List[Tuple[int, int]]:
    """The grid sizes campaign shape ``kind`` runs ``algorithm`` on.

    The entries of ``sizes`` the algorithm supports, in order and with
    duplicates kept; ``None`` means the shape's default family,
    ``default_grid_suite(algorithm, max_side)``.
    """
    if sizes is None:
        sizes = default_grid_suite(algorithm, _DEFAULT_MAX_SIDE[kind])
    return [(m, n) for m, n in sizes if algorithm.supports_grid(m, n)]


def grid_sweep_tasks(
    algorithm: Algorithm,
    sizes: Optional[Iterable[Tuple[int, int]]] = None,
    model: str = "FSYNC",
    seed: Optional[int] = None,
    tie_break: str = TieBreak.ERROR,
) -> List[CampaignTask]:
    """The task list of a grid sweep (one run per supported size)."""
    return [
        CampaignTask(algorithm=algorithm, m=m, n=n, model=model, seed=seed, tie_break=tie_break)
        for m, n in shape_sizes("grid_sweep", algorithm, sizes)
    ]


def stress_test_tasks(
    algorithm: Algorithm,
    sizes: Optional[Iterable[Tuple[int, int]]] = None,
    models: Sequence[str] = ("SSYNC", "ASYNC"),
    seeds: Sequence[int] = tuple(range(10)),
    tie_break: str = TieBreak.FIRST,
) -> List[CampaignTask]:
    """The task list of a randomized-scheduler stress campaign."""
    return [
        CampaignTask(algorithm=algorithm, m=m, n=n, model=model, seed=seed, tie_break=tie_break)
        for m, n in shape_sizes("stress_test", algorithm, sizes)
        for model in models
        for seed in seeds
    ]


def exhaustive_check_tasks(
    algorithm: Algorithm,
    sizes: Optional[Iterable[Tuple[int, int]]] = None,
    model: str = "FSYNC",
    reduction: Optional[str] = "grid",
    max_states: int = 200_000,
) -> List[CampaignTask]:
    """The task list of an exhaustive model-checking sweep.

    One ``kind="check"`` task per supported grid size, each running the
    full state-space exploration under ``reduction``.  The default size
    family stays small (``max_side=4``): exhaustive checks grow
    exponentially with the grid, so sweeping them across the walk-campaign
    suite would be a budget trip, not a campaign.
    """
    return [
        CampaignTask(
            algorithm=algorithm,
            m=m,
            n=n,
            model=model,
            kind="check",
            reduction=reduction,
            max_states=max_states,
        )
        for m, n in shape_sizes("exhaustive_sweep", algorithm, sizes)
    ]


# ---------------------------------------------------------------------------
# The campaign engine
# ---------------------------------------------------------------------------
class ParallelCampaignEngine:
    """Runs campaign task lists on a backend, through the verdict store.

    ``backend`` — any :class:`~repro.engine.backend.ExecutionBackend` —
    evaluates the tasks; ``None`` means a
    :class:`~repro.engine.backend.SerialBackend` that lives for one
    :meth:`run_tasks` call.  Reports are identical whichever backend runs
    them: every report is a pure function of its task, and results come
    back in task order.

    ``store`` — a :class:`~repro.engine.store.VerdictStore`, consulted on
    the coordinator (it holds locks and file handles, so it never crosses a
    process boundary) — makes campaigns durable: stored reports are served
    without reaching the backend, and each fresh report is written to the
    store under :func:`~repro.engine.spec.task_store_key` as soon as it
    completes, before it is handed on.  A campaign killed mid-run and run
    again against the same store recomputes only what it had not finished.
    No other code writes task reports to a store.

    Every task runs the algorithm it carries, registered or ad hoc, and
    its report is stored under that algorithm's name and content digest.
    """

    def __init__(
        self,
        backend: Optional["ExecutionBackend"] = None,
        store: Optional[VerdictStore] = None,
    ) -> None:
        self.backend = backend
        self.store = store

    # -- execution -----------------------------------------------------
    def iter_tasks(self, tasks: Sequence[CampaignTask]) -> Iterator[Tuple[int, VerificationReport]]:
        """Yield ``(task index, report)`` as each report becomes available.

        Reports the store already holds come first (their ``store_stats``
        outcome is ``"hit"``); the remaining tasks then stream
        through the backend in task order, each fresh report written to
        the store before it is yielded.
        """
        tasks = list(tasks)
        store = self.store
        keys = [task_store_key(task) for task in tasks] if store is not None else []
        pending = []
        for index in range(len(tasks)):
            cached = store.get(keys[index]) if store is not None else None
            if cached is None:
                pending.append(index)
            else:
                yield index, store.annotate(cached, HIT)
        if not pending:
            return
        backend = self.backend
        if backend is None:
            from .backend import SerialBackend  # local import: backend imports this module

            backend = SerialBackend()
        reports = backend.imap([tasks[index] for index in pending])
        for index, report in zip(pending, reports):
            if store is not None:
                store.put(keys[index], report)
                report = store.annotate(report, MISS)
            yield index, report

    def run_tasks(self, tasks: Sequence[CampaignTask]) -> List[VerificationReport]:
        """The reports of :meth:`iter_tasks`, in task order."""
        tasks = list(tasks)
        reports: List[Optional[VerificationReport]] = [None] * len(tasks)
        for index, report in self.iter_tasks(tasks):
            reports[index] = report
        return reports  # type: ignore[return-value]
