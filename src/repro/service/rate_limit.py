"""Per-client token-bucket rate limiting for the verification service.

A verification service in front of the verdict store serves warm hits at
memcache speed — which means a single misbehaving client can saturate the
listener long before it saturates the engine.  The limiter is the classic
token bucket, one bucket per client key:

* a bucket holds at most ``burst`` tokens and refills continuously at
  ``rate`` tokens/second;
* every request costs one token; a request finding an empty bucket is
  rejected, and :meth:`TokenBucketLimiter.check` reports how long until
  the next token accrues — the service surfaces that as a 429 with a
  ``Retry-After`` header, so well-behaved clients back off precisely
  instead of hammering.

Client keys are chosen by the caller (the service uses the ``X-Client-Id``
header when present, else the peer address).  Buckets are created lazily
and idle buckets are pruned once they are full again (a full bucket is
indistinguishable from a fresh one, so pruning never changes decisions —
it only bounds memory under high client cardinality).

The clock is injectable (``clock=``, monotonic seconds) so tests can drive
refill deterministically.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Dict, Optional, Tuple

__all__ = ["TokenBucketLimiter", "RateDecision"]


class RateDecision:
    """The outcome of one admission check."""

    __slots__ = ("allowed", "retry_after")

    def __init__(self, allowed: bool, retry_after: float = 0.0) -> None:
        self.allowed = allowed
        #: Seconds until a retry can succeed (0 when ``allowed``).  Already
        #: rounded up to whole seconds for the ``Retry-After`` header.
        self.retry_after = retry_after

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.allowed


class TokenBucketLimiter:
    """``check(key)`` admission control with per-key token buckets.

    ``rate`` is the sustained requests/second each client may issue;
    ``burst`` is the bucket capacity (how far a client may run ahead of
    the sustained rate).  ``rate=None`` disables limiting — every check
    is allowed — so the service can expose one code path either way.  A
    rate that is not a positive finite number (``nan``, ``inf``, ``0``) is
    refused: ``nan`` would silently turn limiting off.
    """

    def __init__(
        self,
        rate: Optional[float],
        burst: int = 10,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate is not None and not (math.isfinite(rate) and rate > 0):
            raise ValueError(f"rate must be positive and finite (or None to disable), got {rate}")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._lock = threading.Lock()
        #: key -> (tokens, last_refill_timestamp)
        self._buckets: Dict[str, Tuple[float, float]] = {}
        self.allowed = 0
        self.rejected = 0

    def check(self, key: str) -> RateDecision:
        """Spend one token for ``key``; report admission and retry delay."""
        if self.rate is None:
            with self._lock:
                self.allowed += 1
            return RateDecision(True)
        now = self._clock()
        with self._lock:
            tokens, stamp = self._buckets.get(key, (float(self.burst), now))
            tokens = min(float(self.burst), tokens + (now - stamp) * self.rate)
            if tokens >= 1.0:
                self._buckets[key] = (tokens - 1.0, now)
                self.allowed += 1
                self._prune(now)
                return RateDecision(True)
            self._buckets[key] = (tokens, now)
            self.rejected += 1
            # Whole seconds, rounded up: Retry-After is an integer header,
            # and advising a fractionally early retry would invite a second
            # rejection.
            retry_after = max(1.0, math.ceil((1.0 - tokens) / self.rate))
            return RateDecision(False, retry_after)

    def _prune(self, now: float, keep: int = 1024) -> None:
        """Drop refilled-to-full buckets once the table grows large.

        A full bucket decides exactly like a missing one, so this is pure
        memory hygiene (locked by the caller).
        """
        if len(self._buckets) <= keep:
            return
        assert self.rate is not None
        full = [
            key
            for key, (tokens, stamp) in self._buckets.items()
            if tokens + (now - stamp) * self.rate >= self.burst
        ]
        for key in full:
            del self._buckets[key]

    @property
    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "rate": self.rate,
                "burst": self.burst,
                "allowed": self.allowed,
                "rejected": self.rejected,
                "clients": len(self._buckets),
            }
