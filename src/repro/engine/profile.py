"""Opt-in per-phase time profiling for explorations.

Set ``REPRO_PROFILE=1`` in the environment and every exploration
attaches a wall-clock phase split to ``Exploration.profile``::

    {"kernel": "object", "match_s": ..., "canonicalise_s": ...,
     "dedup_s": ..., "store_s": ..., "total_s": ...}

``kernel`` is ``"object"`` (the one successor kernel), or ``"store"`` on
a verdict-store hit whose record carried no profile.  The phases are:

* **match** — successor generation: guard evaluation and memoized
  rule matching (:mod:`repro.engine.matcher`);
* **canonicalise** — orbit-representative selection under the active
  grid quotient (zero when the exploration is unreduced);
* **dedup** — interning successors into the dense index;
* **store** — verdict-store lookup and deserialization time
  (:mod:`repro.engine.store`): zero when no ``store=`` is threaded
  through, the full cost of the hit when one answers.

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

    __slots__ = ("kernel", "match_s", "canonicalise_s", "dedup_s", "store_s")

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        self.match_s = 0.0
        self.canonicalise_s = 0.0
        self.dedup_s = 0.0
        self.store_s = 0.0

    def as_dict(self) -> Dict[str, object]:
        """The picklable report attached to ``Exploration.profile``."""
        return {
            "kernel": self.kernel,
            "match_s": self.match_s,
            "canonicalise_s": self.canonicalise_s,
            "dedup_s": self.dedup_s,
            "store_s": self.store_s,
            "total_s": self.match_s + self.canonicalise_s + self.dedup_s + self.store_s,
        }
