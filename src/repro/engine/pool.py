"""Persistent worker pool with process-level matcher caches.

:class:`ExplorationPool` is one long-lived ``multiprocessing`` pool that
campaign task lists fan out over.  It

* **amortises startup** — workers spawn lazily on the first parallel use
  and then serve every subsequent task list until the pool is closed (it
  is a context manager);
* **keeps worker caches warm** — each worker process owns a single
  :func:`process_cache` (a :class:`~repro.engine.matcher.MatcherCache`)
  that the campaign task runner matches against, so guard evaluations
  memoized by one task are served from cache in the next one, at any grid
  size of the same algorithm;
* **owns a coordinator cache** — :attr:`ExplorationPool.cache`, equally
  persistent, which explorations and checks handed the pool run on in the
  calling process.

Explorations never cross the process boundary: each one runs the serial
explorer in the calling process, and only task lists fan out.

The worker-side helper :func:`process_cache` is module-level so
``multiprocessing`` can pickle references to the functions that use it;
its mutable state is per-process by construction.
"""

from __future__ import annotations

import os
import threading
from typing import Optional

from ..core.algorithm import Algorithm
from .matcher import MatcherCache

__all__ = [
    "ExplorationPool",
    "default_workers",
    "process_cache",
]

#: Serializes process-pool construction across threads so the
#: failed-spawn cleanup in :meth:`ExplorationPool._ensure_pool` can
#: attribute every newly appeared pool-worker child to *its* spawn —
#: ``multiprocessing.active_children()`` is process-global and two pools
#: spawning concurrently would otherwise reap each other's workers.
_SPAWN_LOCK = threading.Lock()


def default_workers() -> int:
    """The default worker count: one per *usable* core.

    ``os.cpu_count()`` reports the machine's cores even when the process is
    confined to fewer by a cgroup quota or CPU affinity mask (the normal
    situation in containers), which oversubscribes the pool.  Prefer the
    scheduling affinity of this process where the platform exposes it.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - platform quirk
            pass
    return os.cpu_count() or 1


def registered(algorithm: Algorithm) -> bool:
    """Whether ``algorithm`` is the registry's object for its name.

    Only registered algorithms can cross a process boundary (rule sets
    close over lambdas and cannot be pickled; workers re-resolve the name).
    """
    from ..algorithms import registry  # local import: avoids a layering cycle

    return registry.all_algorithms().get(algorithm.name) is algorithm


# ---------------------------------------------------------------------------
# Worker side (module-level state is per-process by construction)
# ---------------------------------------------------------------------------
_PROCESS_CACHE: Optional[MatcherCache] = None


def process_cache() -> MatcherCache:
    """This process's persistent :class:`MatcherCache` (created on first use).

    In a pool worker it outlives individual campaign tasks —
    :func:`repro.engine.campaign.run_task` matches against it — which is
    what makes a long-lived :class:`ExplorationPool` start every task list
    after the first warm.  (The memo keys are grid-size independent and
    keyed on algorithm identity, so sharing across workloads never changes
    results; see :class:`~repro.engine.matcher.MatcherCache`.)
    """
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        _PROCESS_CACHE = MatcherCache()
    return _PROCESS_CACHE


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------
class ExplorationPool:
    """One long-lived worker pool for campaign tasks, plus a warm cache.

    Use as a context manager (or call :meth:`close` explicitly)::

        with ExplorationPool(workers=4) as pool:
            first = check_terminating_exploration(alg, grid, model="FSYNC", pool=pool)
            second = check_terminating_exploration(alg, grid, model="SSYNC", pool=pool)
            reports = ParallelCampaignEngine(pool=pool).grid_sweep(alg)

    The underlying process pool spawns lazily on the first task list that
    fans out and is reused by every later one, so startup is paid at most
    once and each worker's :func:`process_cache` stays warm across
    workloads.  Explorations and checks handed the pool run in the calling
    process on :attr:`cache`, the pool's equally persistent
    coordinator-side :class:`MatcherCache`.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = workers if workers is not None else default_workers()
        #: Coordinator-side cache backing the explorations run in the
        #: calling process; persists for the life of the pool, like the
        #: workers' :func:`process_cache`.
        self.cache = MatcherCache()
        self._pool = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether worker processes have actually been spawned yet."""
        return self._pool is not None

    def _ensure_pool(self):
        if self._closed:
            raise RuntimeError("ExplorationPool is closed")
        if self._pool is None and self.workers > 1:
            import multiprocessing

            # Platform-default start method, as elsewhere in the engine:
            # everything shipped is picklable and workers re-import lazily,
            # and forcing fork on macOS can deadlock threaded parents.
            context = multiprocessing.get_context()
            # A constructor that fails partway (say the (k+1)-th worker of
            # k+n cannot spawn) raises without handing back the pool object,
            # stranding the workers it did start.  Snapshot the live
            # children first and reap any newcomers on failure, so a failed
            # spawn leaks neither processes nor their pipes — and the pool
            # object stays cleanly closeable/reusable.  Only processes with
            # a pool-worker name are candidates: active_children() is
            # process-global, and a thread concurrently starting unrelated
            # processes must not see them reaped.
            with _SPAWN_LOCK:
                before = set(multiprocessing.active_children())
                try:
                    self._pool = context.Pool(processes=self.workers)
                except BaseException:
                    self._pool = None
                    for process in multiprocessing.active_children():
                        if process not in before and "PoolWorker" in (process.name or ""):
                            process.terminate()
                            process.join(timeout=5.0)
                    raise
        return self._pool

    def close(self) -> None:
        """Shut the workers down; the pool cannot be used afterwards.

        Idempotent, and safe whatever state spawning reached: a pool whose
        worker spawn failed partway (see :meth:`_ensure_pool`) or that
        never spawned closes without error, and ``__exit__`` never masks
        an in-flight exception with a teardown failure.
        """
        if self._closed:
            return
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.terminate()
            finally:
                pool.join()

    def __enter__(self) -> "ExplorationPool":
        if self._closed:
            raise RuntimeError("ExplorationPool is closed")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- execution -----------------------------------------------------
    def map(self, fn, iterable, chunksize: int = 1) -> list:
        """``pool.map`` on the persistent workers.

        Workers spawn lazily, and only when there is work to ship.  On a
        one-worker pool the items run in the calling process instead; note
        that a worker function like ``run_task`` then warms this process's
        :func:`process_cache`, not :attr:`cache` — the campaign engine
        avoids that by clamping to the pool's worker count and running
        in-process on :attr:`cache` whenever the pool cannot actually
        parallelize.
        """
        items = list(iterable)
        if not items:
            return []
        pool = self._ensure_pool()
        if pool is None:
            return [fn(item) for item in items]
        return pool.map(fn, items, chunksize=chunksize)

    def imap(self, fn, iterable, chunksize: int = 1):
        """``pool.imap`` on the persistent workers: results as they finish.

        Same routing and caveats as :meth:`map`, but results stream back in
        submission order as an iterator — the journalled campaign route
        uses this so each completed report can be made durable without
        waiting for the whole batch.
        """
        items = list(iterable)
        if not items:
            return iter(())
        pool = self._ensure_pool()
        if pool is None:
            return (fn(item) for item in items)
        return pool.imap(fn, items, chunksize=chunksize)
