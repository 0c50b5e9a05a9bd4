"""Tests for the explorer's one reduction, the grid quotient.

``reduction=`` accepts exactly ``"none"`` and ``"grid"``; every other
spelling, including the retired color-symmetry and partial-order
components, fails closed.  The quotient must reproduce every unreduced
verdict of the parity suite and build the same graph on every route.
"""

from __future__ import annotations

import pytest

from repro.algorithms import all_algorithms, get
from repro.checking import check_terminating_exploration
from repro.core import Grid
from repro.core.errors import StateSpaceLimitExceeded
from repro.engine import (
    AlgorithmTransitionSystem,
    CampaignTask,
    ParallelCampaignEngine,
    PoolBackend,
    SerialBackend,
    check_one,
    explore,
    explore_sharded,
    normalize_reduction,
    reduction_parity_suite,
    REDUCTION_BENCH_CASE,
)
from repro.verification import exhaustive_sweep

#: Spellings the retired reduction components used; all fail closed now.
RETIRED = ["color", "por", "grid+color", "grid+por", "grid+color+por", "grid+grid", "por+grid"]


def _serial(algorithm, grid, model, **kwargs):
    return explore(AlgorithmTransitionSystem(algorithm, grid, model), **kwargs)


# ---------------------------------------------------------------------------
# Spec handling
# ---------------------------------------------------------------------------
class TestSpecNormalization:
    def test_aliases_and_ordering(self):
        assert normalize_reduction(None) == "none"
        assert normalize_reduction("") == "none"
        assert normalize_reduction("none") == "none"
        assert normalize_reduction(" None ") == "none"
        assert normalize_reduction("grid") == "grid"
        assert normalize_reduction(" GRID ") == "grid"

    @pytest.mark.parametrize("spec", ["grid+magic", "+", "grid+", *RETIRED])
    def test_unknown_component_raises(self, spec):
        with pytest.raises(ValueError, match="'none' or 'grid'"):
            normalize_reduction(spec)
        with pytest.raises(ValueError):
            check_terminating_exploration(
                get("fsync_phi2_l2_chir_k2"), Grid(3, 3), model="FSYNC", reduction=spec
            )

    def test_non_string_raises(self):
        with pytest.raises(TypeError):
            normalize_reduction(42)
        with pytest.raises(TypeError):
            normalize_reduction(True)


# ---------------------------------------------------------------------------
# Verdict parity (the satellite suite)
# ---------------------------------------------------------------------------
_UNREDUCED = {}


def _unreduced(name, m, n, model):
    key = (name, m, n, model)
    if key not in _UNREDUCED:
        _UNREDUCED[key] = check_terminating_exploration(
            get(name), Grid(m, n), model=model, max_states=200_000, reduction="none"
        )
    return _UNREDUCED[key]


class TestVerdictParity:
    """Every suite case: the quotient's verdict equals the unreduced one."""

    @pytest.mark.parametrize("name,m,n,model", reduction_parity_suite())
    def test_reduced_verdicts_match_unreduced(self, name, m, n, model):
        plain = _unreduced(name, m, n, model)
        reduced = check_terminating_exploration(
            get(name), Grid(m, n), model=model, max_states=200_000, reduction="grid"
        )
        assert (reduced.terminates, reduced.explores, reduced.ok) == (
            plain.terminates,
            plain.explores,
            plain.ok,
        )
        assert reduced.counterexample == plain.counterexample
        assert reduced.states_explored <= plain.states_explored
        assert reduced.reduction == "grid"
        assert plain.reduction == "none" and plain.reduction_stats is None


#: Every registered algorithm under each of FSYNC, SSYNC and ASYNC on the
#: grid one row and one column above its minimum (39 checks).  FSYNC rows
#: fail under SSYNC and ASYNC there, which is where the quotient collapses
#: orbits: the parity suite's own-model cases explore as many states
#: reduced as unreduced.
CROSS_MODEL_CASES = [
    (name, algorithm.min_m + 1, algorithm.min_n + 1, model)
    for name, algorithm in sorted(all_algorithms().items())
    for model in ("FSYNC", "SSYNC", "ASYNC")
]


class TestCrossModelParity:
    """Every cross-model case: the quotient reaches the unreduced verdict."""

    @pytest.mark.parametrize("name,m,n,model", CROSS_MODEL_CASES)
    def test_reduced_verdicts_match_unreduced(self, name, m, n, model):
        algorithm = get(name)
        grid = Grid(m, n)
        plain = check_terminating_exploration(algorithm, grid, model=model, reduction="none")
        reduced = check_terminating_exploration(algorithm, grid, model=model, reduction="grid")
        assert (reduced.terminates, reduced.explores, reduced.ok) == (
            plain.terminates,
            plain.explores,
            plain.ok,
        )
        assert reduced.counterexample == plain.counterexample
        assert reduced.states_explored <= plain.states_explored

    def test_case_list_covers_every_algorithm_in_every_model(self):
        assert len(set(CROSS_MODEL_CASES)) == 3 * len(all_algorithms()) == 39


class TestOneGraphShape:
    """Both reductions build one graph shape: one edge witness per edge."""

    @pytest.mark.parametrize("model", ["FSYNC", "SSYNC", "ASYNC"])
    def test_unreduced_edges_carry_identity_witnesses(self, model):
        exploration = explore_sharded(get("async_phi2_l3_chir_k2"), Grid(3, 4), model)
        assert exploration.reduction == "none"
        assert sum(len(row) for row in exploration.succ) > 0
        assert len(exploration.edge_syms) == len(exploration.succ)
        for row, syms in zip(exploration.succ, exploration.edge_syms):
            assert syms == [None] * len(row)


class TestRoutesAgreeOnTheQuotient:
    """Cold and warm explorations of one quotient are identical."""

    def test_exploration_identical_across_routes(self):
        name, m, n, model = REDUCTION_BENCH_CASE
        algorithm = get(name)
        grid = Grid(m, n)
        serial = _serial(algorithm, grid, model, reduction="grid")
        backend = SerialBackend()
        cold = explore_sharded(algorithm, grid, model, reduction="grid", backend=backend)
        warm = explore_sharded(algorithm, grid, model, reduction="grid", backend=backend)
        for other in (cold, warm):
            assert other.states == serial.states
            assert other.succ == serial.succ
            assert other.edge_syms == serial.edge_syms
            assert other.root_sym == serial.root_sym
            assert other.reduction == serial.reduction
            # Reduction statistics are deterministic — unlike the matcher
            # counters they must not depend on how warm the cache was.
            assert other.reduction_stats == serial.reduction_stats

    def test_budget_trip_context_identical_under_reduction(self):
        algorithm = get("async_phi2_l2_nochir_k4")
        grid = Grid(4, 6)
        with pytest.raises(StateSpaceLimitExceeded) as serial_info:
            _serial(algorithm, grid, "ASYNC", reduction="grid", max_states=10)
        with pytest.raises(StateSpaceLimitExceeded) as sharded_info:
            explore_sharded(algorithm, grid, "ASYNC", reduction="grid", max_states=10)
        serial, sharded = serial_info.value, sharded_info.value
        assert str(sharded) == str(serial)
        assert str(serial).endswith(", symmetry reduction on)")
        assert sharded.algorithm == serial.algorithm == algorithm.name
        assert sharded.max_states == serial.max_states == 10
        assert sharded.states_explored == serial.states_explored
        assert sharded.frontier_size == serial.frontier_size

    def test_grid_spec_budget_message_is_byte_compatible(self):
        algorithm = get("fsync_phi2_l2_nochir_k3")
        grid = Grid(8, 8)
        with pytest.raises(StateSpaceLimitExceeded) as info:
            _serial(algorithm, grid, "SSYNC", reduction="grid", max_states=80)
        # Tooling greps these messages: the wording is part of the contract.
        assert str(info.value) == (
            "fsync_phi2_l2_nochir_k3 on 8x8 [SSYNC]: state budget of 80 exceeded after"
            " expanding 74 states (80 discovered, frontier size 5, symmetry reduction on)"
        )


# ---------------------------------------------------------------------------
# Campaign payloads and reports
# ---------------------------------------------------------------------------
class TestExhaustiveCheckCampaigns:
    def test_exhaustive_sweep_reports_match_direct_checks(self):
        algorithm = get("async_phi2_l3_chir_k2")
        sizes = [(2, 3), (3, 3)]
        sweep = exhaustive_sweep(algorithm, sizes=sizes, model="ASYNC", reduction="grid")
        assert sweep.ok
        for (m, n), report in zip(sizes, sweep.reports):
            direct = check_terminating_exploration(
                algorithm, Grid(m, n), model="ASYNC", reduction="grid"
            )
            assert report.kind == "check"
            assert report.steps == direct.states_explored
            assert report.moves == direct.terminal_states
            assert report.reduction == direct.reduction
            assert report.reduction_stats == direct.reduction_stats
            assert report.seed is None
            assert "exhaustive" in str(report)

    def test_parallel_and_serial_check_campaigns_agree(self):
        algorithm = get("async_phi2_l2_chir_k3")
        tasks = [
            CampaignTask(
                algorithm=algorithm,
                m=m,
                n=n,
                model="ASYNC",
                kind="check",
                reduction="grid",
            )
            for m, n in [(2, 3), (3, 3), (3, 4)]
        ]
        serial = ParallelCampaignEngine().run_tasks(tasks)
        with PoolBackend(workers=2) as backend:
            parallel = ParallelCampaignEngine(backend=backend).run_tasks(tasks)
            assert backend.started  # the tasks crossed the process boundary
        assert parallel == serial
        assert all(report.reduction_stats is not None for report in serial)
        # Deterministic reduction stats survive the process boundary.
        assert [r.reduction_stats for r in parallel] == [r.reduction_stats for r in serial]

    def test_budget_trip_is_reported_not_raised(self):
        algorithm = get("async_phi2_l2_nochir_k4")
        report = check_one(algorithm, 4, 6, model="ASYNC", reduction="grid", max_states=10)
        assert not report.ok
        assert "StateSpaceLimitExceeded" in report.reason
        assert report.kind == "check"

    def test_mixed_walk_and_check_task_lists(self):
        algorithm = get("async_phi2_l3_chir_k2")
        tasks = [
            CampaignTask(algorithm=algorithm, m=3, n=3, model="FSYNC", tie_break="first"),
            CampaignTask(
                algorithm=algorithm, m=3, n=3, model="ASYNC", kind="check", reduction="grid"
            ),
        ]
        reports = ParallelCampaignEngine().run_tasks(tasks)
        assert [r.kind for r in reports] == ["walk", "check"]
        assert reports[0].seed is not None and reports[1].seed is None
