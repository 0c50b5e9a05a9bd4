"""Round-complexity scaling sweeps (extension beyond the paper).

The paper does not plot running times, but every algorithm visibly takes
Theta(m * n) robot moves.  This module measures steps and moves over a
family of grid sizes and fits the leading coefficient
(:func:`fit_linear_in_nodes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from ..core.algorithm import Algorithm
from ..core.errors import VerificationError
from ..core.grid import Grid
from ..engine.backend import SerialBackend
from ..engine.campaign import CampaignTask, ParallelCampaignEngine
from ..engine.explorer import explore_sharded
from ..engine.suites import scaling_suite
from ..engine.symmetry import normalize_reduction
from ..engine.walk import TieBreak

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.backend import ExecutionBackend
    from ..engine.store import VerdictStore

__all__ = [
    "ScalingPoint",
    "StateSpacePoint",
    "round_complexity_sweep",
    "state_space_sweep",
    "fit_linear_in_nodes",
]


@dataclass(frozen=True)
class ScalingPoint:
    """One measurement of a scaling sweep."""

    m: int
    n: int
    nodes: int
    steps: int
    moves: int


def round_complexity_sweep(
    algorithm: Algorithm,
    sizes: Optional[Iterable[Tuple[int, int]]] = None,
    backend: Optional["ExecutionBackend"] = None,
    store: Optional["VerdictStore"] = None,
) -> List[ScalingPoint]:
    """Measure FSYNC rounds and moves over a family of grid sizes.

    The default size family is the shared :func:`repro.engine.suites.scaling_suite`.
    Each point is one FSYNC walk task run through
    ``ParallelCampaignEngine(backend, store)``: a pure function of
    ``(algorithm, grid)`` under the deterministic FSYNC schedule, so the
    measured steps/moves are identical wherever the runs execute.  One
    matcher cache — the backend's, or that of the
    :class:`~repro.engine.backend.SerialBackend` the sweep gets when
    ``backend`` is ``None`` — spans the whole sweep: the matcher's keys are
    grid-size independent, so every size after the first replays the
    interior patterns from the cache instead of re-evaluating the guards.

    ``store`` (a :class:`~repro.engine.store.VerdictStore`) memoizes each
    point's run as an ordinary walk verdict — sweeps re-run across
    sessions are served from disk; the fitted slope is unchanged because
    stored reports equal computed ones.
    """
    if sizes is None:
        sizes = scaling_suite(algorithm)
    tasks = [
        CampaignTask(algorithm=algorithm, m=m, n=n, model="FSYNC", tie_break=TieBreak.FIRST)
        for m, n in sizes
        if algorithm.supports_grid(m, n)
    ]
    reports = ParallelCampaignEngine(backend=backend, store=store).run_tasks(tasks)
    for report in reports:
        # A report whose run never executed (verify_one converts exceptions
        # into ok=False reports whose reason is the formatted exception)
        # must not become a silent (0, 0) data point skewing the fit.
        # Definition-1 outcomes — the run executed but did not
        # terminate/explore — are real measurements and recorded as such.
        if not report.ok and not report.reason.startswith(("did not terminate", "terminated with")):
            raise VerificationError(
                f"scaling sweep run failed on {report.m}x{report.n}: {report.reason}"
            )
    return [
        ScalingPoint(m=task.m, n=task.n, nodes=task.m * task.n, steps=report.steps, moves=report.moves)
        for task, report in zip(tasks, reports)
    ]


@dataclass(frozen=True)
class StateSpacePoint:
    """One measurement of a state-space scaling sweep."""

    m: int
    n: int
    nodes: int
    #: Reachable canonical states (of the reduction quotient if reduced).
    states: int
    #: Matcher-cache hit rate observed during this size's exploration.
    cache_hit_rate: float
    #: The reduction the size was explored under (``"none"`` or ``"grid"``).
    reduction: str = "none"
    #: Quotient statistics of this size's exploration (``None`` when
    #: unreduced).
    reduction_stats: Optional[dict] = None


def state_space_sweep(
    algorithm: Algorithm,
    sizes: Optional[Iterable[Tuple[int, int]]] = None,
    model: str = "FSYNC",
    max_states: int = 200_000,
    reduction: Optional[str] = None,
    backend: Optional["ExecutionBackend"] = None,
) -> List[StateSpacePoint]:
    """Measure reachable-state-space growth over a family of grid sizes.

    ``reduction`` (``"none"`` or ``"grid"``) selects whether each size is
    explored under the grid quotient; the per-size quotient statistics land
    on the points.

    Each size is explored exhaustively in this process, on one matcher
    cache for the whole sweep: ``backend``'s (so the sweep shares warmth
    with every other workload handed the same backend), else that of a
    :class:`~repro.engine.backend.SerialBackend` living for the sweep.
    Every size after the first benefits from the patterns already
    memoized; the counts are identical either way (caching never changes
    exploration results).
    """
    if sizes is None:
        sizes = scaling_suite(algorithm)
    spec = normalize_reduction(reduction)
    if backend is None:
        backend = SerialBackend()
    points = []
    for m, n in sizes:
        if not algorithm.supports_grid(m, n):
            continue
        exploration = explore_sharded(
            algorithm,
            Grid(m, n),
            model,
            reduction=spec,
            max_states=max_states,
            backend=backend,
        )
        stats = exploration.matcher_stats or {}
        points.append(
            StateSpacePoint(
                m=m,
                n=n,
                nodes=m * n,
                states=exploration.num_states,
                cache_hit_rate=float(stats.get("hit_rate", 0.0)),
                reduction=exploration.reduction,
                reduction_stats=exploration.reduction_stats,
            )
        )
    return points


def fit_linear_in_nodes(points: List[ScalingPoint], field: str = "moves") -> float:
    """Least-squares slope of ``field`` against the node count (through the origin)."""
    num = sum(point.nodes * getattr(point, field) for point in points)
    den = sum(point.nodes * point.nodes for point in points)
    return num / den if den else float("nan")
