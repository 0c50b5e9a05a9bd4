"""Shared fixtures for the test suite."""

from __future__ import annotations

import signal

import pytest

from repro import core
from repro.algorithms import all_algorithms, get

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


@pytest.fixture(scope="session")
def algorithms():
    """All registered algorithms keyed by name."""
    return all_algorithms()


@pytest.fixture(scope="session")
def fsync_algorithms(algorithms):
    """The eight FSYNC rows of Table 1."""
    return [a for a in algorithms.values() if a.synchrony == "FSYNC"]


@pytest.fixture(scope="session")
def async_algorithms(algorithms):
    """The SSYNC/ASYNC rows of Table 1."""
    return [a for a in algorithms.values() if a.synchrony == "ASYNC"]


@pytest.fixture
def small_grid():
    return core.Grid(3, 4)


@pytest.fixture
def algorithm1():
    """Algorithm 1 of the paper (the quickstart algorithm)."""
    return get("fsync_phi2_l2_chir_k2")


def pytest_addoption(parser):
    parser.addoption(
        "--thorough",
        action="store_true",
        default=False,
        help="run the larger verification sweeps (slower)",
    )


@pytest.fixture(scope="session")
def thorough(request):
    return request.config.getoption("--thorough")
