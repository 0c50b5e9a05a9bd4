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
from ..core.grid import Grid
from ..engine.backend import SerialBackend
from ..engine.explorer import explore_sharded
from ..engine.matcher import MatcherCache
from ..engine.suites import scaling_suite
from ..engine.symmetry import normalize_reduction
from ..engine.walk import TieBreak, run_fsync

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.backend import ExecutionBackend

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
) -> List[ScalingPoint]:
    """Measure FSYNC rounds and moves over a family of grid sizes.

    The default size family is the shared :func:`repro.engine.suites.scaling_suite`.
    Each point is one FSYNC walk (:func:`~repro.engine.walk.run_fsync`,
    ties broken by the first match): a pure function of ``(algorithm,
    grid)`` under the deterministic FSYNC schedule.  The sweep measures
    and does not verify, so it runs the walk directly, with no store; a
    walk that raises (say, a robot leaving the grid) raises here.  One
    :class:`~repro.engine.matcher.MatcherCache` spans the whole sweep: the
    matcher's keys are grid-size independent, so every size after the
    first replays the interior patterns from the cache instead of
    re-evaluating the guards.
    """
    if sizes is None:
        sizes = scaling_suite(algorithm)
    cache = MatcherCache()
    points = []
    for m, n in sizes:
        if not algorithm.supports_grid(m, n):
            continue
        grid = Grid(m, n)
        result = run_fsync(
            algorithm, grid, tie_break=TieBreak.FIRST, matcher=cache.matcher_for(algorithm, grid)
        )
        points.append(ScalingPoint(m=m, n=n, nodes=m * n, steps=result.steps, moves=result.total_moves))
    return points


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
