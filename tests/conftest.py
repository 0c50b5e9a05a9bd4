"""Shared fixtures for the test suite."""

from __future__ import annotations

import signal

import pytest

from repro.algorithms import get

#: Wall-clock bound for any single test in the suite.
HANG_GUARD_SECONDS = 120


@pytest.fixture(autouse=True)
def hang_guard():
    """Fail (don't hang) if a test wedges on a socket or condition wait."""
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - non-POSIX
        yield
        return

    def _trip(signum, frame):
        raise TimeoutError(f"test exceeded the {HANG_GUARD_SECONDS}s hang guard")

    previous = signal.signal(signal.SIGALRM, _trip)
    signal.alarm(HANG_GUARD_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def algorithm1():
    """Algorithm 1 of the paper (the quickstart algorithm)."""
    return get("fsync_phi2_l2_chir_k2")
