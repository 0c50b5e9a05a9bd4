"""Canonical scheduler states for the exhaustive model checker.

The definitions moved into the engine kernel (:mod:`repro.engine.states`)
so the simulator, the checker and the campaign runner can share them; this
module remains the stable public import path.
"""

from __future__ import annotations

from ..engine.states import (
    AsyncRobotState,
    FrozenSnapshot,
    SchedulerState,
    freeze_snapshot,
    initial_state,
    world_from_state,
)

__all__ = [
    "AsyncRobotState",
    "SchedulerState",
    "FrozenSnapshot",
    "initial_state",
    "world_from_state",
    "freeze_snapshot",
]
