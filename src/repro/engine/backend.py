"""Execution backends: where campaign tasks run, and whose cache they warm.

Every parallel consumer in the engine funnels its work through one
picklable shape: :class:`~repro.engine.campaign.CampaignTask` work items,
each a pure function of the task (the algorithm travels by value, runs
are driven by explicit seeds).

An :class:`ExecutionBackend` evaluates a task list and hands the reports
back *in submission order*, streamed as they complete.  The base class
holds the lifecycle and runs tasks in the calling process; two backends
build on it, both on one machine:

* :class:`SerialBackend` — in the calling process, on one
  :class:`~repro.engine.matcher.MatcherCache` it owns for its lifetime;
* :class:`PoolBackend` — on a local process pool it owns, plus a
  coordinator cache for the work it runs in the calling process.

Because tasks are pure functions of their payloads and every backend
returns results in submission order, swapping the backend never changes a
report.  (The only fields that may differ are the cache hit/miss
counters, which are excluded from report equality for exactly this
reason.)

Explorations do not fan out.  A single exploration or check handed a
backend runs the serial explorer in the calling process, on the backend's
:attr:`~ExecutionBackend.cache`.

``backend=`` and ``store=`` are the only routing arguments of the engine:
:class:`~repro.engine.campaign.ParallelCampaignEngine`,
:func:`~repro.checking.check_terminating_exploration` and the
:mod:`repro.verification` campaigns take both.  The single-task functions
(:func:`~repro.engine.campaign.verify_one`,
:func:`~repro.engine.campaign.check_one`) and the exploration functions
(:func:`~repro.engine.explorer.explore_sharded` and
:func:`~repro.analysis.scaling.state_space_sweep`) take ``backend=``
only.  ``backend=None`` means a :class:`SerialBackend` that lives for
that one call.  To share warm caches (or a pool) across calls, share the
backend object.
"""

from __future__ import annotations

import os
import threading
from typing import Iterable, Iterator, List, Optional

from .campaign import CampaignTask, VerificationReport, run_task
from .matcher import MatcherCache

__all__ = ["ExecutionBackend", "SerialBackend", "PoolBackend", "default_workers"]

#: Serializes process-pool construction across threads so the
#: failed-spawn cleanup in :meth:`PoolBackend._ensure_pool` can attribute
#: every newly appeared pool-worker child to *its* spawn —
#: ``multiprocessing.active_children()`` is process-global and two pools
#: spawning concurrently would otherwise reap each other's workers.
_SPAWN_LOCK = threading.Lock()


def default_workers() -> int:
    """The default :class:`PoolBackend` width: one worker per *usable* core.

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


class ExecutionBackend:
    """Where campaign tasks run: the lifecycle, and tasks run in this process.

    :meth:`imap` yields one report per submitted task, *in submission
    order*, each the value :func:`~repro.engine.campaign.run_task`
    produces for that task — regardless of which worker evaluated it.
    That ordering contract is what lets every consumer stay
    byte-identical to the serial engine.  Here every task runs in the
    calling process, on :attr:`cache`, streamed from a generator so each
    report is handed on before the next task starts; a subclass sets
    :attr:`cache` and may run tasks elsewhere.
    """

    #: How many tasks the backend can usefully evaluate concurrently.
    parallelism = 1
    #: The matcher cache work run in the calling process matches on.
    cache: MatcherCache
    _closed = False

    def imap(self, tasks: Iterable[CampaignTask]) -> Iterator[VerificationReport]:
        """Evaluate campaign tasks; reports stream back in task order."""
        self._check_open()
        return (run_task(task, self) for task in tasks)

    def run_tasks(self, tasks: Iterable[CampaignTask]) -> List[VerificationReport]:
        """:meth:`imap` collected into a list."""
        return list(self.imap(tasks))

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")

    def close(self) -> None:
        """Release workers; the backend cannot be used afterwards."""
        self._closed = True

    def __enter__(self) -> "ExecutionBackend":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Evaluate everything in the calling process, on one cache it owns.

    The reference implementation of the backend contract: its results
    *are* the parity baseline the pool is tested against.  :attr:`cache`
    lives as long as the backend, so every task and exploration it runs
    starts as warm as the earlier ones left it.
    """

    def __init__(self) -> None:
        self.cache = MatcherCache()


#: The backend a pool worker process runs its tasks on (created on the
#: worker's first task; per-process by construction).
_WORKER: Optional[SerialBackend] = None


def _work(task: CampaignTask) -> VerificationReport:
    """The pool-worker entry point (module-level so it pickles by reference)."""
    global _WORKER
    if _WORKER is None:
        _WORKER = SerialBackend()
    return run_task(task, _WORKER)


class PoolBackend(ExecutionBackend):
    """Evaluate on a local process pool this backend owns.

    ``workers`` (at least 1; default: one per usable core, see
    :func:`default_workers`) processes spawn lazily on the first task list
    that fans out and serve every later one until :meth:`close`; each
    worker's cache stays warm across task lists, and matches each
    algorithm on the first copy of it the worker received.  Results stream
    back through ``imap`` in submission order.

    :attr:`cache` is the coordinator cache: explorations and checks handed
    this backend run in the calling process on it, and so do the tasks it
    runs inline — every task of a one-worker backend, which never spawns.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        workers = default_workers() if workers is None else workers
        if workers < 1:
            raise ValueError(f"PoolBackend needs at least 1 worker, got {workers}")
        self.parallelism = workers
        self.cache = MatcherCache()
        self._pool = None

    @property
    def started(self) -> bool:
        """Whether worker processes have actually been spawned yet."""
        return self._pool is not None

    def imap(self, tasks: Iterable[CampaignTask]) -> Iterator[VerificationReport]:
        self._check_open()
        tasks = list(tasks)
        if self.parallelism == 1 or not tasks:
            return super().imap(tasks)
        return self._ensure_pool().imap(_work, tasks)

    def _ensure_pool(self):
        import multiprocessing

        # Platform-default start method, as elsewhere in the engine:
        # everything shipped is picklable (algorithms included),
        # and forcing fork on macOS can deadlock threaded parents.
        context = multiprocessing.get_context()
        # Checked under the lock: concurrent campaigns (service threads)
        # must not each spawn a pool.  A constructor that fails partway
        # (say the (k+1)-th worker of k+n cannot spawn) raises without
        # handing back the pool object, stranding the workers it did
        # start.  Snapshot the live children first and reap any newcomers
        # on failure, so a failed spawn leaks neither processes nor their
        # pipes — and the backend stays cleanly closeable.  Only processes
        # with a pool-worker name are candidates: active_children() is
        # process-global, and a thread concurrently starting unrelated
        # processes must not see them reaped.
        with _SPAWN_LOCK:
            if self._pool is None:
                before = set(multiprocessing.active_children())
                try:
                    self._pool = context.Pool(processes=self.parallelism)
                except BaseException:
                    self._pool = None
                    for process in multiprocessing.active_children():
                        if process not in before and "PoolWorker" in (process.name or ""):
                            process.terminate()
                            process.join(timeout=5.0)
                    raise
            return self._pool

    def close(self) -> None:
        """Shut the workers down; the backend cannot be used afterwards.

        Idempotent, and safe whatever state spawning reached: a backend
        whose worker spawn failed partway (see :meth:`_ensure_pool`) or
        that never spawned closes without error, and ``__exit__`` never
        masks an in-flight exception with a teardown failure.
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
