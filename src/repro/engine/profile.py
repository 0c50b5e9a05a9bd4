"""Opt-in per-phase time profiling for explorations.

Set ``REPRO_PROFILE=1`` in the environment and every exploration
attaches a wall-clock phase split to ``Exploration.profile``::

    {"match_s": ..., "canonicalise_s": ..., "dedup_s": ..., "total_s": ...}

The phases are:

* **match** — successor generation: guard evaluation and memoized
  rule matching (:mod:`repro.engine.matcher`);
* **canonicalise** — orbit-representative selection under the active
  grid quotient (zero when the exploration is unreduced);
* **dedup** — interning successors into the dense index.

Profiling is strictly opt-in because the per-successor clock reads cost
real time on the hot path; when the variable is unset the explorers skip
every timing branch.  The numbers are observability, not results:
``profile`` is excluded from ``Exploration`` equality.
"""

from __future__ import annotations

import os
from typing import Dict

__all__ = ["PROFILE_ENV", "KernelProfile", "profiling_enabled"]

#: The environment variable that switches phase profiling on.
PROFILE_ENV = "REPRO_PROFILE"


def profiling_enabled() -> bool:
    """Whether ``REPRO_PROFILE`` asks for a per-phase time split."""
    return os.environ.get(PROFILE_ENV, "") not in ("", "0", "false", "False")


class KernelProfile:
    """Accumulates the per-phase wall-clock split of one exploration."""

    __slots__ = ("match_s", "canonicalise_s", "dedup_s")

    def __init__(self) -> None:
        self.match_s = 0.0
        self.canonicalise_s = 0.0
        self.dedup_s = 0.0

    def as_dict(self) -> Dict[str, float]:
        """The picklable report attached to ``Exploration.profile``."""
        return {
            "match_s": self.match_s,
            "canonicalise_s": self.canonicalise_s,
            "dedup_s": self.dedup_s,
            "total_s": self.match_s + self.canonicalise_s + self.dedup_s,
        }
