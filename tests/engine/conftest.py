"""Engine-test fixtures: process-global cache isolation.

Several engine tests execute the worker-side function
:func:`repro.engine.campaign.run_task` directly in the pytest process —
the serial backend runs it in-process by design.  That warms this
process's persistent :func:`repro.engine.pool.process_cache`, which
fork-started pool workers then inherit — harmless for results (memoization
never changes them) but fatal for tests asserting *cold-start* cache
counters.  Reset the process-global cache around every engine test so
cache-counter assertions stay order-independent.
"""

from __future__ import annotations

import pytest

import repro.engine.pool as pool_module


@pytest.fixture(autouse=True)
def reset_process_cache():
    """Keep each test's view of the process-persistent cache pristine."""
    saved_cache = pool_module._PROCESS_CACHE
    pool_module._PROCESS_CACHE = None
    try:
        yield
    finally:
        pool_module._PROCESS_CACHE = saved_cache
