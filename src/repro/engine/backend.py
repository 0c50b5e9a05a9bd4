"""Pluggable execution backends for campaign task lists.

Every parallel consumer in the engine funnels its work through one
picklable shape: :class:`~repro.engine.campaign.CampaignTask` work items
executed by :func:`~repro.engine.campaign.run_task`, each a pure function
of the task (algorithms travel by registry name, runs are driven by
explicit seeds).

An :class:`ExecutionBackend` is anything that can evaluate a task list and
hand the reports back *in submission order*.  Two ship, both on one
machine:

* :class:`SerialBackend` — in the calling process, on one persistent
  :class:`~repro.engine.matcher.MatcherCache`;
* :class:`PoolBackend` — on a (possibly shared) long-lived
  :class:`~repro.engine.pool.ExplorationPool`.

Because tasks are pure functions of their payloads and every backend
returns results in submission order, swapping the backend never changes a
report: the campaign engine merges reports by task index, so the output is
the one the serial engine produces.  (The only fields that may differ are
the cache hit/miss counters, which are excluded from report equality for
exactly this reason.)

Explorations do not fan out.  A single exploration or check handed a
backend runs the serial explorer in the calling process, on the backend's
in-process cache when it has one (:func:`backend_cache`).

``backend=`` is accepted — and takes precedence over ``pool=`` /
``workers=`` — on :class:`~repro.engine.campaign.ParallelCampaignEngine`,
:func:`~repro.engine.explorer.explore_sharded`, the three
:mod:`repro.checking` entry points, the :mod:`repro.verification`
campaigns and the :mod:`repro.analysis.scaling` sweeps.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, runtime_checkable

from .campaign import CampaignTask, VerificationReport, run_task
from .matcher import MatcherCache
from .pool import ExplorationPool, process_cache

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "PoolBackend",
    "backend_cache",
]


@runtime_checkable
class ExecutionBackend(Protocol):
    """Where campaign tasks actually run.

    Implementations promise that :meth:`run_tasks` returns one report per
    submitted task, *in submission order*, each the value
    :func:`~repro.engine.campaign.run_task` produces for that task —
    regardless of which worker evaluated it, in which order, or how many
    times a failed attempt was retried.  That ordering contract is what
    lets every consumer stay byte-identical to the serial engine.
    """

    #: How many tasks the backend can usefully evaluate concurrently.
    parallelism: int

    def run_tasks(self, tasks: Sequence[CampaignTask]) -> List[VerificationReport]:
        """Evaluate campaign tasks; reports come back in task order."""
        ...

    def close(self) -> None:
        """Release workers/sockets; the backend cannot be used afterwards."""
        ...

    def __enter__(self) -> "ExecutionBackend": ...

    def __exit__(self, exc_type, exc, tb) -> None: ...


class SerialBackend:
    """Evaluate everything in the calling process, on one persistent cache.

    The reference implementation of the backend contract: tasks run
    through the very worker function the parallel backends ship out
    (:func:`~repro.engine.campaign.run_task`), so its results *are* the
    parity baseline the other backends are tested against.  Matching runs
    against this process's persistent
    :func:`~repro.engine.pool.process_cache`, exactly as it would inside a
    pool worker — the backend equivalent of a one-worker pool that stays
    warm across workloads.
    """

    def __init__(self) -> None:
        self.parallelism = 1
        self._closed = False

    def run_tasks(self, tasks: Sequence[CampaignTask]) -> List[VerificationReport]:
        self._check_open()
        return [run_task(task) for task in tasks]

    # -- lifecycle -----------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "SerialBackend":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class PoolBackend:
    """Evaluate on a persistent :class:`~repro.engine.pool.ExplorationPool`.

    Wraps an existing pool (not closed with the backend — it may be shared
    with other consumers) or owns a fresh one built from ``workers=``
    (closed with the backend).  Tasks run on the pool's long-lived workers,
    whose per-process matcher caches stay warm across workloads;
    ``pool.map`` preserves submission order, which discharges the ordering
    contract.
    """

    def __init__(
        self,
        pool: Optional[ExplorationPool] = None,
        *,
        workers: Optional[int] = None,
    ) -> None:
        if pool is not None and workers is not None and workers != pool.workers:
            raise ValueError("pass either an existing pool or a workers count, not both")
        self._owns_pool = pool is None
        self.pool = pool if pool is not None else ExplorationPool(workers=workers)
        self._closed = False

    @property
    def parallelism(self) -> int:
        return self.pool.workers

    def run_tasks(self, tasks: Sequence[CampaignTask]) -> List[VerificationReport]:
        self._check_open()
        return self.pool.map(run_task, tasks, chunksize=4)

    # -- lifecycle -----------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns_pool:
            self.pool.close()

    def __enter__(self) -> "PoolBackend":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def backend_cache(backend) -> Optional[MatcherCache]:
    """The in-process cache of ``backend``, when it has one.

    Explorations handed a backend run in the calling process; routing them
    onto the backend's own cache — the pool's coordinator cache for
    :class:`PoolBackend`, this process's
    :func:`~repro.engine.pool.process_cache` for :class:`SerialBackend`
    (whose "worker" *is* this process) — keeps them as warm as the
    backend's task lists.  Any other backend returns ``None`` and the
    caller falls back to a fresh/explicit cache.
    """
    if isinstance(backend, SerialBackend):
        return process_cache()
    pool = getattr(backend, "pool", None)
    if isinstance(pool, ExplorationPool):
        return pool.cache
    return None
