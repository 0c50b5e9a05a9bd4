"""What can cross a process boundary, and how many workers to use.

Two helpers the execution layer (:mod:`repro.engine.backend`) and its
callers share:

* :func:`registered` — only registry algorithms travel to pool workers
  (by name) or enter the verdict store; any other algorithm runs in the
  calling process;
* :func:`default_workers` — the default width of a
  :class:`~repro.engine.backend.PoolBackend`: one worker per usable core.
"""

from __future__ import annotations

import os

from ..core.algorithm import Algorithm

__all__ = ["default_workers", "registered"]


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
