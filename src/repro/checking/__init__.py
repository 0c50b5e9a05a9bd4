"""Exhaustive model checking of terminating exploration on small grids."""

from .model_checker import CheckResult, check_terminating_exploration

__all__ = ["CheckResult", "check_terminating_exploration"]
