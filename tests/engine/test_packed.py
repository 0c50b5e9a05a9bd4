"""Parity tests for the packed successor kernel (:mod:`repro.engine.packed`).

The packed kernel is a performance path, never a semantics path: every test
here pins some route through it — serial wave BFS, quotiented object loop,
sharded workers, pooled routing, backend shards, campaign tasks — against
the authoritative object kernel and requires the results to be identical
field by field (``matcher_stats`` and ``profile`` excepted, which are
observability and legitimately route/kernel-dependent).
"""

from __future__ import annotations

import pickle

import pytest

from repro.algorithms import get
from repro.checking import check_terminating_exploration
from repro.core.errors import StateSpaceLimitExceeded
from repro.core.grid import Grid
from repro.engine import (
    AlgorithmTransitionSystem,
    AsyncRobotState,
    CampaignTask,
    SerialBackend,
    execute_tasks,
    exhaustive_check_tasks,
    explore,
    explore_sharded,
    initial_state,
    reduction_parity_suite,
)
from repro.engine import packed as packed_module
from repro.engine.packed import (
    HAS_NUMPY,
    PackedTransitionSystem,
    build_transition_system,
    normalize_kernel,
)
from repro.engine.profile import PROFILE_ENV
from repro.engine.reduction import ReductionPipeline

#: Exploration fields that must be identical across kernels.  Excludes
#: ``matcher_stats`` (the packed kernel compiles tables through the matcher
#: once and then never consults it, so its counters legitimately differ)
#: and ``profile`` (opt-in timing).
PARITY_FIELDS = (
    "model",
    "reduced",
    "states",
    "index",
    "succ",
    "edge_syms",
    "root",
    "root_sym",
    "reduction",
    "reduction_stats",
)

SPECS = ("none", "por", "grid", "grid+color+por")


def assert_explorations_equal(reference, candidate):
    for field in PARITY_FIELDS:
        assert getattr(candidate, field) == getattr(reference, field), field


def _object_exploration(algorithm, grid, model, **kwargs):
    return explore(AlgorithmTransitionSystem(algorithm, grid, model), **kwargs)


# ---------------------------------------------------------------------------
# Kernel spec handling
# ---------------------------------------------------------------------------
class TestKernelSpec:
    def test_normalize(self):
        assert normalize_kernel(None) == "object"
        assert normalize_kernel("object") == "object"
        assert normalize_kernel("packed") == "packed"
        assert normalize_kernel("auto") == "packed"
        assert normalize_kernel(" Packed ") == "packed"

    @pytest.mark.parametrize("bad", ["fast", "", 3, "objects"])
    def test_rejects_unknown(self, bad):
        with pytest.raises(ValueError, match="kernel"):
            normalize_kernel(bad)

    def test_build_transition_system(self):
        algorithm = get("fsync_phi1_l2_nochir_k5")
        grid = Grid(4, 4)
        assert isinstance(
            build_transition_system(algorithm, grid, "FSYNC", "object"),
            AlgorithmTransitionSystem,
        )
        assert isinstance(
            build_transition_system(algorithm, grid, "FSYNC", "packed"),
            PackedTransitionSystem,
        )

    def test_explore_converts_both_directions(self):
        algorithm = get("fsync_phi1_l2_nochir_k5")
        grid = Grid(4, 4)
        reference = _object_exploration(algorithm, grid, "FSYNC")
        packed_ts = PackedTransitionSystem(algorithm, grid, "FSYNC")
        # packed ts + kernel="object" runs the object loop on an object ts.
        assert_explorations_equal(reference, explore(packed_ts, kernel="object"))
        # object ts + kernel="packed" runs the wave BFS.
        object_ts = AlgorithmTransitionSystem(algorithm, grid, "FSYNC")
        assert_explorations_equal(reference, explore(object_ts, kernel="packed"))


# ---------------------------------------------------------------------------
# The headline guarantee: byte-identical explorations on the whole suite
# ---------------------------------------------------------------------------
class TestSerialParity:
    @pytest.mark.parametrize("name,m,n,model", reduction_parity_suite())
    def test_suite_parity_all_specs(self, name, m, n, model):
        """Every suite case, every reduction spec, both kernels — identical."""
        algorithm = get(name)
        grid = Grid(m, n)
        ts = PackedTransitionSystem(algorithm, grid, model)
        for spec in SPECS:
            reference = _object_exploration(algorithm, grid, model, reduction=spec)
            candidate = explore(ts, reduction=spec)
            assert_explorations_equal(reference, candidate)

    def test_warm_rerun_identical(self):
        """Memoized re-exploration (the pool/daemon regime) changes nothing."""
        algorithm = get("async_phi2_l2_nochir_k4")
        grid = Grid(4, 4)
        ts = PackedTransitionSystem(algorithm, grid, "ASYNC")
        for spec in ("none", "por"):
            reference = _object_exploration(algorithm, grid, "ASYNC", reduction=spec)
            cold = explore(ts, reduction=spec)
            warm = explore(ts, reduction=spec)
            assert_explorations_equal(reference, cold)
            assert_explorations_equal(reference, warm)

    def test_object_successors_through_packed_tables(self):
        """The TransitionSystem protocol itself is kernel-independent."""
        algorithm = get("async_phi2_l3_chir_k2")
        grid = Grid(3, 4)
        object_ts = AlgorithmTransitionSystem(algorithm, grid, "ASYNC")
        packed_ts = PackedTransitionSystem(algorithm, grid, "ASYNC")
        state = initial_state(algorithm, grid)
        seen = [state]
        for _ in range(4):  # a few BFS levels of spot checks
            next_level = []
            for current in seen[:8]:
                expected = object_ts.successors(current)
                assert packed_ts.successors(current) == expected
                next_level.extend(expected)
            if not next_level:
                break
            seen = next_level

    def test_explore_packed_rejects_quotients(self):
        algorithm = get("fsync_phi1_l2_nochir_k5")
        grid = Grid(4, 4)
        ts = PackedTransitionSystem(algorithm, grid, "FSYNC")
        pipeline = ReductionPipeline(algorithm, grid, "FSYNC", spec="grid")
        with pytest.raises(ValueError, match="quotient"):
            ts.explore_packed(pipeline)


class TestBudgetTripParity:
    @pytest.mark.parametrize("spec", ["none", "por"])
    def test_limit_message_and_context_identical(self, spec):
        algorithm = get("async_phi2_l2_nochir_k4")
        grid = Grid(4, 4)
        with pytest.raises(StateSpaceLimitExceeded) as object_trip:
            _object_exploration(algorithm, grid, "ASYNC", reduction=spec, max_states=40)
        with pytest.raises(StateSpaceLimitExceeded) as packed_trip:
            explore(
                PackedTransitionSystem(algorithm, grid, "ASYNC"),
                reduction=spec,
                max_states=40,
            )
        assert str(packed_trip.value) == str(object_trip.value)
        for attr in ("algorithm", "model", "max_states", "states_explored", "frontier_size"):
            assert getattr(packed_trip.value, attr) == getattr(object_trip.value, attr)


# ---------------------------------------------------------------------------
# Kernel selection through the registry-level entry point
# ---------------------------------------------------------------------------
class TestRouteParity:
    CASE = ("async_phi2_l2_nochir_k4", 4, 4, "ASYNC")

    def _reference(self, reduction="none"):
        name, m, n, model = self.CASE
        return _object_exploration(get(name), Grid(m, n), model, reduction=reduction)

    @pytest.mark.parametrize("reduction", ["none", "grid+color+por"])
    def test_explore_sharded_builds_the_packed_system(self, reduction):
        name, m, n, model = self.CASE
        candidate = explore_sharded(get(name), Grid(m, n), model, reduction=reduction, kernel="packed")
        assert_explorations_equal(self._reference(reduction), candidate)

    def test_backend_route_carries_kernel(self):
        name, m, n, model = self.CASE
        with SerialBackend() as backend:
            candidate = explore_sharded(
                get(name), Grid(m, n), model, backend=backend, kernel="packed"
            )
        assert_explorations_equal(self._reference(), candidate)


# ---------------------------------------------------------------------------
# Checking and campaign entry points
# ---------------------------------------------------------------------------
class TestCheckingParity:
    def test_check_verdict_kernel_independent(self):
        algorithm = get("async_phi2_l2_nochir_k4")
        grid = Grid(4, 4)
        reference = check_terminating_exploration(algorithm, grid, "ASYNC", reduction="none")
        candidate = check_terminating_exploration(
            algorithm, grid, "ASYNC", reduction="none", kernel="packed"
        )
        assert candidate == reference  # CheckResult equality skips the counters
        assert candidate.ok

    def test_campaign_tasks_carry_kernel(self):
        algorithm = get("async_phi2_l2_nochir_k4")
        tasks = exhaustive_check_tasks(
            algorithm, sizes=[(4, 4)], model="ASYNC", reduction="none", kernel="packed"
        )
        assert tasks and all(task.kernel == "packed" for task in tasks)
        reference = execute_tasks(
            algorithm,
            exhaustive_check_tasks(algorithm, sizes=[(4, 4)], model="ASYNC", reduction="none"),
        )
        candidate = execute_tasks(algorithm, tasks)
        assert candidate == reference
        assert all(report.ok for report in candidate)

    def test_campaign_task_pickles_with_kernel(self):
        task = CampaignTask(
            algorithm="async_phi2_l2_nochir_k4", m=4, n=4, model="ASYNC",
            kind="check", reduction="none", kernel="packed",
        )
        assert pickle.loads(pickle.dumps(task)) == task
        assert CampaignTask(algorithm="x", m=3, n=3).kernel == "object"


# ---------------------------------------------------------------------------
# NumPy frontier-at-a-time signatures
# ---------------------------------------------------------------------------
@pytest.mark.skipif(not HAS_NUMPY, reason="numpy not available")
class TestNumpyWavePath:
    def test_wave_signatures_match_scalar(self, monkeypatch):
        monkeypatch.setattr(packed_module, "_WAVE_NUMPY_MIN", 1)
        algorithm = get("fsync_phi2_l1_nochir_k4")
        grid = Grid(5, 5)
        reference = explore(
            PackedTransitionSystem(algorithm, grid, "SSYNC", use_numpy=False)
        )
        candidate = explore(
            PackedTransitionSystem(algorithm, grid, "SSYNC", use_numpy=True)
        )
        assert_explorations_equal(reference, candidate)

    def test_numpy_disabled_flag_is_honoured(self):
        algorithm = get("fsync_phi1_l2_nochir_k5")
        ts = PackedTransitionSystem(algorithm, Grid(4, 4), "FSYNC", use_numpy=False)
        assert ts.space._use_numpy is False


# ---------------------------------------------------------------------------
# Profiling hook
# ---------------------------------------------------------------------------
class TestProfileHook:
    PROFILE_KEYS = {"kernel", "match_s", "canonicalise_s", "dedup_s", "inflate_s", "store_s", "total_s"}

    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        algorithm = get("fsync_phi1_l2_nochir_k5")
        grid = Grid(4, 4)
        assert _object_exploration(algorithm, grid, "FSYNC").profile is None
        assert explore(PackedTransitionSystem(algorithm, grid, "FSYNC")).profile is None

    def test_reports_phase_split_for_both_kernels(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "1")
        algorithm = get("fsync_phi1_l2_nochir_k5")
        grid = Grid(4, 4)
        object_profile = _object_exploration(algorithm, grid, "FSYNC").profile
        packed_profile = explore(PackedTransitionSystem(algorithm, grid, "FSYNC")).profile
        for profile, kernel in ((object_profile, "object"), (packed_profile, "packed")):
            assert profile is not None and set(profile) == self.PROFILE_KEYS
            assert profile["kernel"] == kernel
            assert profile["total_s"] >= 0.0
        # The packed kernel inflates at the boundary; the object kernel never does.
        assert object_profile["inflate_s"] == 0.0

    def test_profile_excluded_from_equality(self, monkeypatch):
        algorithm = get("fsync_phi1_l2_nochir_k5")
        grid = Grid(4, 4)
        monkeypatch.setenv(PROFILE_ENV, "1")
        profiled = _object_exploration(algorithm, grid, "FSYNC")
        monkeypatch.delenv(PROFILE_ENV)
        plain = _object_exploration(algorithm, grid, "FSYNC")
        assert profiled == plain


# ---------------------------------------------------------------------------
# AsyncRobotState sort-key/hash caching (satellite)
# ---------------------------------------------------------------------------
class TestAsyncRobotStateCaching:
    def test_key_and_hash_are_cached(self):
        record = AsyncRobotState(pos=(1, 2), color="B")
        assert record.key() is record.key()
        assert hash(record) == hash(record)
        assert record._hash == hash(record)

    def test_still_frozen(self):
        from dataclasses import FrozenInstanceError

        record = AsyncRobotState(pos=(1, 2), color="B")
        with pytest.raises(FrozenInstanceError):
            record.pos = (0, 0)
        with pytest.raises(FrozenInstanceError):
            del record.color

    def test_pickle_drops_caches(self):
        record = AsyncRobotState(
            pos=(1, 2), color="B", phase="computed", pending_color="W", pending_move=(0, 1)
        )
        record.key(), hash(record)  # populate both caches
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record
        assert not hasattr(clone, "_key") and not hasattr(clone, "_hash")
        assert clone.key() == record.key()
        assert hash(clone) == hash(record)

    def test_equality_semantics_preserved(self):
        a = AsyncRobotState(pos=(1, 2), color="B")
        b = AsyncRobotState(pos=(1, 2), color="B")
        c = AsyncRobotState(pos=(1, 2), color="W")
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a.__eq__(object()) is NotImplemented
