"""The Look-Compute-Move execution entry points.

The actual engines live in :mod:`repro.engine.walk`, the lazy single-path
walk that the campaign runner's walk tasks run too.  The walk implements
the FSYNC/SSYNC/ASYNC semantics on its own; the exhaustive model checker
explores a second implementation, the kernel in
:mod:`repro.engine.transition`, and a differential test keeps the two
equal.  This module remains the stable public import path:

* :func:`run_fsync` — every robot executes a full cycle at every instant;
* :func:`run_ssync` — a scheduler-selected non-empty subset of the robots
  executes a full synchronous cycle at every instant;
* :func:`run_async` — Look, Compute and Move phases of different robots
  interleave arbitrarily;
* :func:`run` — dispatch by model name;
* :class:`TieBreak` / :func:`default_step_budget` — shared policies.
"""

from __future__ import annotations

from ..engine.walk import (
    TieBreak,
    default_step_budget,
    run,
    run_async,
    run_fsync,
    run_ssync,
)

__all__ = [
    "TieBreak",
    "default_step_budget",
    "run_fsync",
    "run_ssync",
    "run_async",
    "run",
]
