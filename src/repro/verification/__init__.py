"""Simulation-based verification campaigns for terminating exploration."""

from .campaigns import (
    GridSweepReport,
    ParallelCampaignEngine,
    VerificationReport,
    default_grid_suite,
    exhaustive_sweep,
    grid_sweep,
    stress_test,
    verify_algorithm,
)

__all__ = [
    "VerificationReport",
    "GridSweepReport",
    "ParallelCampaignEngine",
    "verify_algorithm",
    "grid_sweep",
    "stress_test",
    "exhaustive_sweep",
    "default_grid_suite",
]
