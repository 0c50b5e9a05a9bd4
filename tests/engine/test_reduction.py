"""Tests for the composable reduction subsystem (grid x color x POR)."""

from __future__ import annotations

import pytest

from repro.algorithms import get
from repro.checking import check_terminating_exploration, enumerate_reachable
from repro.core import Algorithm, B, G, Grid, Synchrony, W, occ
from repro.core.errors import StateSpaceLimitExceeded
from repro.core.rules import EMPTY, Guard, Rule
from repro.engine import (
    AlgorithmTransitionSystem,
    CampaignTask,
    ExplorationPool,
    MatcherCache,
    ParallelCampaignEngine,
    ReductionPipeline,
    check_one,
    detect_color_permutations,
    execute_tasks,
    explore,
    explore_sharded,
    normalize_reduction,
    reduction_parity_suite,
    transform_state_colors,
    REDUCTION_BENCH_CASE,
)
from repro.engine.reduction import ColorPermutation, ProductWitness
from repro.verification import exhaustive_sweep

REDUCTIONS = ["grid", "grid+color", "grid+color+por", "por"]


def _serial(algorithm, grid, model, **kwargs):
    return explore(AlgorithmTransitionSystem(algorithm, grid, model), **kwargs)


def _color_twin(name="color_twin"):
    """Two anonymous-in-all-but-name colors marching in lockstep.

    The rule set is invariant under swapping G and W, and the initial
    placement is invariant under (rot180, swap) as a *product*, so the
    color quotient collapses orbits the grid quotient alone cannot.
    """
    rules = (
        Rule("R1", G, Guard.build(1, E=EMPTY), G, "E"),
        Rule("R2", W, Guard.build(1, E=EMPTY), W, "E"),
    )
    return Algorithm(
        name=name,
        synchrony=Synchrony.SSYNC,
        phi=1,
        colors=(G, W),
        chirality=True,
        k=2,
        rules=rules,
        initial_placement=lambda m, n: [((0, 0), G), ((m - 1, n - 1), W)],
        min_m=2,
        min_n=3,
    )


# ---------------------------------------------------------------------------
# Color-permutation detection and action
# ---------------------------------------------------------------------------
class TestColorDetection:
    def test_paper_algorithms_have_trivial_color_groups(self):
        # The paper's palettes carry roles (leader/follower/turner); no
        # nontrivial permutation leaves any of the rule sets invariant.
        for name in ("async_phi2_l3_chir_k2", "fsync_phi2_l2_chir_k2", "fsync_phi1_l3_chir_k2"):
            perms = detect_color_permutations(get(name))
            assert len(perms) == 1 and perms[0].is_identity

    def test_symmetric_palette_is_detected(self):
        perms = detect_color_permutations(_color_twin())
        assert [p.name for p in perms] == ["id", "G->W,W->G"]

    def test_detection_is_semantic_not_syntactic(self):
        """Rule names and declaration order must not affect detection."""
        rules = (
            Rule("zz_second", W, Guard.build(1, E=EMPTY), W, "E"),
            Rule("aa_first", G, Guard.build(1, E=EMPTY), G, "E"),
        )
        shuffled = Algorithm(
            name="color_twin_shuffled",
            synchrony=Synchrony.SSYNC,
            phi=1,
            colors=(G, W),
            chirality=True,
            k=2,
            rules=rules,
            initial_placement=lambda m, n: [((0, 0), G), ((m - 1, n - 1), W)],
            min_m=2,
            min_n=3,
        )
        assert len(detect_color_permutations(shuffled)) == 2

    def test_partial_symmetry_in_larger_palette(self):
        """Only the invariant subgroup is detected, not the full S3."""
        rules = (
            Rule("R1", G, Guard.build(1, E=occ(B)), G, "E"),
            Rule("R2", W, Guard.build(1, E=occ(B)), W, "E"),
            Rule("R3", B, Guard.build(1, W=EMPTY), B, "W"),
        )
        partial = Algorithm(
            name="color_partial",
            synchrony=Synchrony.SSYNC,
            phi=1,
            colors=(G, W, B),
            chirality=True,
            k=3,
            rules=rules,
            initial_placement=lambda m, n: [((0, 0), G), ((0, 1), W), ((0, 2), B)],
            min_m=2,
            min_n=3,
        )
        perms = detect_color_permutations(partial)
        # G<->W is invariant; anything moving B is not.
        assert sorted(p.name for p in perms) == ["G->W,W->G", "id"]

    def test_color_transform_round_trips_async_state(self):
        algorithm = get("async_phi2_l3_chir_k2")
        grid = Grid(3, 3)
        ts = AlgorithmTransitionSystem(algorithm, grid, "ASYNC")
        looked = ts.successors(ts.initial())[0]  # carries a stored snapshot
        swap = ColorPermutation(algorithm.colors, (W, G, B))
        # async palette is (G, W, B): swap G<->W.
        assert transform_state_colors(transform_state_colors(looked, swap), swap) == looked

    def test_dynamics_commute_with_detected_permutations(self):
        """succ(pi(s)) == pi(succ(s)) — the soundness property, directly."""
        twin = _color_twin("color_twin_commute")
        grid = Grid(2, 3)
        ts = AlgorithmTransitionSystem(twin, grid, "SSYNC")
        swap = detect_color_permutations(twin)[1]
        seen = [ts.initial()]
        for state in seen[:20]:
            image_succ = {
                transform_state_colors(s, swap) for s in ts.successors(state)
            }
            succ_image = set(ts.successors(transform_state_colors(state, swap)))
            assert image_succ == succ_image
            for successor in ts.successors(state):
                if successor not in seen:
                    seen.append(successor)


# ---------------------------------------------------------------------------
# Spec handling
# ---------------------------------------------------------------------------
class TestSpecNormalization:
    def test_aliases_and_ordering(self):
        assert normalize_reduction(None, False) == "none"
        assert normalize_reduction(None, True) == "grid"
        assert normalize_reduction("none") == "none"
        assert normalize_reduction("") == "none"
        assert normalize_reduction("por+grid") == "grid+por"
        assert normalize_reduction("COLOR + GRID") == "grid+color"
        assert normalize_reduction("grid+grid") == "grid"

    def test_unknown_component_raises(self):
        with pytest.raises(ValueError):
            normalize_reduction("grid+magic")
        with pytest.raises(TypeError):
            normalize_reduction(42)

    def test_pipeline_instance_is_reused(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        grid = Grid(3, 3)
        pipeline = ReductionPipeline(algorithm, grid, "FSYNC", spec="grid")
        assert normalize_reduction(pipeline) == "grid"
        first = _serial(algorithm, grid, "FSYNC", reduction=pipeline)
        second = _serial(algorithm, grid, "FSYNC", reduction=pipeline)
        # The shared pipeline accumulates, but per-run stats are deltas.
        assert first.reduction_stats == second.reduction_stats
        assert first.states == second.states

    def test_inert_components_drop_out_of_active_spec(self):
        algorithm = get("fsync_phi2_l2_chir_k2")  # trivial color group
        grid = Grid(3, 3)
        exploration = _serial(algorithm, grid, "FSYNC", reduction="grid+color+por")
        # POR is inert outside ASYNC and the color group is trivial.
        assert exploration.reduction == "grid"
        assert set(exploration.reduction_stats) == {"grid"}


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
    """Every suite case, every reduction: identical verdicts, fewer states."""

    @pytest.mark.parametrize("reduction", REDUCTIONS)
    @pytest.mark.parametrize("name,m,n,model", reduction_parity_suite())
    def test_reduced_verdicts_match_unreduced(self, name, m, n, model, reduction):
        plain = _unreduced(name, m, n, model)
        reduced = check_terminating_exploration(
            get(name), Grid(m, n), model=model, max_states=200_000, reduction=reduction
        )
        assert (reduced.terminates, reduced.explores, reduced.ok) == (
            plain.terminates,
            plain.explores,
            plain.ok,
        )
        assert reduced.counterexample == plain.counterexample
        assert reduced.states_explored <= plain.states_explored
        assert reduced.reduction == ReductionPipeline(
            get(name), Grid(m, n), model, spec=reduction
        ).active_spec


class TestRoutesAgreeOnTheQuotient:
    """Cold and warm explorations of one quotient are identical."""

    @pytest.mark.parametrize("reduction", REDUCTIONS)
    def test_exploration_identical_across_routes(self, reduction):
        name, m, n, model = REDUCTION_BENCH_CASE
        algorithm = get(name)
        grid = Grid(m, n)
        serial = _serial(algorithm, grid, model, reduction=reduction)
        cache = MatcherCache()
        cold = explore_sharded(algorithm, grid, model, reduction=reduction, cache=cache)
        warm = explore_sharded(algorithm, grid, model, reduction=reduction, cache=cache)
        for other in (cold, warm):
            assert other.states == serial.states
            assert other.succ == serial.succ
            assert other.index == serial.index
            assert other.reduced == serial.reduced
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
            _serial(algorithm, grid, "ASYNC", reduction="grid+color+por", max_states=10)
        with pytest.raises(StateSpaceLimitExceeded) as sharded_info:
            explore_sharded(algorithm, grid, "ASYNC", reduction="grid+color+por", max_states=10)
        serial, sharded = serial_info.value, sharded_info.value
        assert str(sharded) == str(serial)
        assert "reduction grid+por on" in str(serial)  # color group is trivial
        assert sharded.algorithm == serial.algorithm == algorithm.name
        assert sharded.max_states == serial.max_states == 10
        assert sharded.states_explored == serial.states_explored
        assert sharded.frontier_size == serial.frontier_size

    def test_grid_spec_budget_message_is_byte_compatible(self):
        algorithm = get("fsync_phi2_l2_nochir_k3")
        grid = Grid(8, 8)
        with pytest.raises(StateSpaceLimitExceeded) as new_info:
            _serial(algorithm, grid, "SSYNC", reduction="grid", max_states=80)
        with pytest.raises(StateSpaceLimitExceeded) as old_info:
            _serial(algorithm, grid, "SSYNC", symmetry_reduction=True, max_states=80)
        assert str(new_info.value) == str(old_info.value)
        assert "symmetry reduction on" in str(new_info.value)


# ---------------------------------------------------------------------------
# Strict reductions
# ---------------------------------------------------------------------------
class TestStrictReduction:
    def test_acceptance_por_prunes_the_bench_case(self):
        """Acceptance: grid+color+por < grid on a suite ASYNC case, same verdict."""
        name, m, n, model = REDUCTION_BENCH_CASE
        assert model == "ASYNC" and (name, m, n, model) in reduction_parity_suite()
        algorithm = get(name)
        grid = Grid(m, n)
        baseline = check_terminating_exploration(algorithm, grid, model=model, reduction="grid")
        results = [
            check_terminating_exploration(
                algorithm, grid, model=model, reduction="grid+color+por"
            ),
        ]
        with ExplorationPool(workers=2) as pool:
            results.append(
                check_terminating_exploration(
                    algorithm, grid, model=model, reduction="grid+color+por", pool=pool
                )
            )
        serial, pooled = results
        assert pooled == serial  # byte-identical CheckResults
        assert serial.states_explored < baseline.states_explored
        assert (serial.terminates, serial.explores, serial.ok, serial.counterexample) == (
            baseline.terminates,
            baseline.explores,
            baseline.ok,
            baseline.counterexample,
        )
        assert serial.reduction_stats["por"]["interleavings_pruned"] > 0

    @pytest.mark.parametrize(
        "name,m,n",
        [("async_phi2_l2_chir_k3", 3, 3), ("async_phi2_l2_nochir_k4", 3, 4)],
    )
    def test_por_prunes_other_async_cases(self, name, m, n):
        algorithm = get(name)
        grid = Grid(m, n)
        quotient = enumerate_reachable(algorithm, grid, model="ASYNC", reduction="grid")
        pruned = enumerate_reachable(algorithm, grid, model="ASYNC", reduction="grid+por")
        assert pruned < quotient

    def test_color_quotient_collapses_beyond_the_grid_quotient(self):
        twin = _color_twin("color_twin_strict")
        grid = Grid(2, 3)
        counts = {
            spec: enumerate_reachable(twin, grid, model="SSYNC", reduction=spec)
            for spec in ("none", "grid", "color", "grid+color")
        }
        assert counts["grid+color"] < counts["grid"] < counts["none"]
        assert counts["color"] < counts["none"]
        # The twin ping-pongs forever; nontermination must survive every quotient.
        for spec in ("none", "grid", "color", "grid+color"):
            result = check_terminating_exploration(twin, grid, model="SSYNC", reduction=spec)
            assert not result.terminates and not result.ok

    def test_product_witnesses_map_coverage_exactly(self):
        """A terminating color-symmetric run: coverage through ProductWitness."""
        rules = (
            Rule("R1", G, Guard.build(1, E=EMPTY), G, "E"),
            Rule("R2", W, Guard.build(1, E=EMPTY), W, "E"),
            Rule("R3", G, Guard.build(1, S=EMPTY), G, "S"),
            Rule("R4", W, Guard.build(1, S=EMPTY), W, "S"),
        )
        crawler = Algorithm(
            name="color_crawler",
            synchrony=Synchrony.SSYNC,
            phi=1,
            colors=(G, W),
            chirality=True,
            k=2,
            rules=rules,
            initial_placement=lambda m, n: [((0, 0), G), ((m - 1, n - 1), W)],
            min_m=2,
            min_n=3,
        )
        grid = Grid(2, 3)
        plain = check_terminating_exploration(crawler, grid, model="SSYNC", reduction="none")
        reduced = check_terminating_exploration(
            crawler, grid, model="SSYNC", reduction="grid+color"
        )
        assert reduced.states_explored < plain.states_explored
        assert (reduced.terminates, reduced.explores, reduced.counterexample) == (
            plain.terminates,
            plain.explores,
            plain.counterexample,
        )


    def test_product_witnesses_undo_canonicalization(self):
        twin = _color_twin("color_twin_witnesses")
        grid = Grid(2, 3)
        pipeline = ReductionPipeline(twin, grid, "SSYNC", spec="grid+color")
        ts = AlgorithmTransitionSystem(twin, grid, "SSYNC")
        seen = [ts.initial()]
        witnesses = []
        for state in seen[:30]:
            for raw in ts.successors(state):
                rep, h = pipeline.canonicalize(raw)
                witnesses.append((raw, rep, h))
                if rep not in seen:
                    seen.append(rep)
        assert any(isinstance(h, ProductWitness) for _, _, h in witnesses)
        for raw, rep, h in witnesses:
            if isinstance(h, ProductWitness):
                assert h.apply(rep) == raw


# ---------------------------------------------------------------------------
# Campaign payloads and reports
# ---------------------------------------------------------------------------
class TestExhaustiveCheckCampaigns:
    def test_exhaustive_sweep_reports_match_direct_checks(self):
        algorithm = get("async_phi2_l3_chir_k2")
        sizes = [(2, 3), (3, 3)]
        sweep = exhaustive_sweep(algorithm, sizes=sizes, model="ASYNC", reduction="grid+por")
        assert sweep.ok
        for (m, n), report in zip(sizes, sweep.reports):
            direct = check_terminating_exploration(
                algorithm, Grid(m, n), model="ASYNC", reduction="grid+por"
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
                algorithm=algorithm.name,
                m=m,
                n=n,
                model="ASYNC",
                kind="check",
                reduction="grid+color+por",
            )
            for m, n in [(2, 3), (3, 3), (3, 4)]
        ]
        serial = execute_tasks(algorithm, tasks)
        parallel = ParallelCampaignEngine(workers=2).run_tasks(algorithm, tasks)
        assert parallel == serial
        with ExplorationPool(workers=2) as pool:
            pooled = ParallelCampaignEngine(pool=pool).run_tasks(algorithm, tasks)
        assert pooled == serial
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
            CampaignTask(algorithm=algorithm.name, m=3, n=3, model="FSYNC", tie_break="first"),
            CampaignTask(
                algorithm=algorithm.name, m=3, n=3, model="ASYNC", kind="check", reduction="grid"
            ),
        ]
        reports = execute_tasks(algorithm, tasks)
        assert [r.kind for r in reports] == ["walk", "check"]
        assert reports[0].seed is not None and reports[1].seed is None


# ---------------------------------------------------------------------------
# Deprecated alias and surface compatibility
# ---------------------------------------------------------------------------
class TestDeprecatedAlias:
    def test_symmetry_reduction_equals_reduction_grid(self):
        algorithm = get("fsync_phi2_l2_nochir_k3")
        grid = Grid(4, 4)
        via_alias = check_terminating_exploration(
            algorithm, grid, model="SSYNC", symmetry_reduction=True
        )
        via_spec = check_terminating_exploration(algorithm, grid, model="SSYNC", reduction="grid")
        assert via_alias == via_spec
        assert via_alias.symmetry_reduction and via_spec.symmetry_reduction
        assert via_alias.reduction == via_spec.reduction == "grid"

    def test_explicit_reduction_supersedes_the_alias(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        grid = Grid(3, 3)
        exploration = _serial(
            algorithm, grid, "FSYNC", reduction="none", symmetry_reduction=True
        )
        assert not exploration.reduced and exploration.reduction == "none"

    def test_check_result_summary_names_richer_reductions(self):
        name, m, n, model = REDUCTION_BENCH_CASE
        result = check_terminating_exploration(
            get(name), Grid(m, n), model=model, reduction="grid+color+por"
        )
        assert "reduced [grid+por]" in result.summary()
