"""The execution engine: the transition-system kernel, the walk and campaigns.

``repro.engine`` implements the Look-Compute-Move semantics of the paper
twice.  The kernel (:mod:`repro.engine.transition`) generates every
successor for exhaustive checks; the walk (:mod:`repro.engine.walk`)
re-implements the semantics to follow one scheduled path.  A differential
test on random rule tables keeps the two equal.  Every other layer
consumes the modules below:

* :mod:`repro.engine.states` — canonical, hashable scheduler states;
* :mod:`repro.engine.matcher` — memoized snapshot/rule-match computation;
* :mod:`repro.engine.transition` — :class:`AlgorithmTransitionSystem`,
  the FSYNC/SSYNC/ASYNC successor generator and the only successor kernel
  every exploration runs on;
* :mod:`repro.engine.profile` — opt-in (``REPRO_PROFILE=1``) per-phase
  wall-clock split attached to ``Exploration.profile``;
* :mod:`repro.engine.symmetry` — the grid-automorphism group (rotations
  and, for chirality-free algorithms, reflections) and its quotient, the
  only state-space reduction (``reduction="grid"``; ``"none"`` explores
  unreduced);
* :mod:`repro.engine.explorer` — frontier search, interning, and one
  Tarjan pass whose components serve the cycle and coverage analyses (the
  model checker's and the Theorem 1 refuter's substrate), and
  :func:`explore_sharded`, the algorithm-level entry point that explores
  an ``(algorithm, grid, model)`` triple in the calling process;
* :mod:`repro.engine.backend` — :class:`ExecutionBackend`, the one base
  class, and its subclasses :class:`SerialBackend` and
  :class:`PoolBackend` (serial or pooled execution of campaign task
  lists on one machine, result-identical; each owns the matcher cache
  explorations handed it run on), and the default worker count;
* :mod:`repro.engine.store` — the persistent content-addressed
  :class:`VerdictStore`, the one durable log: verdicts only (check
  results and campaign reports, one record per request) cached on disk
  by content hash, with in-flight request coalescing; its two writers
  are the checker's ``store=`` and :meth:`ParallelCampaignEngine.iter_tasks`;
* :mod:`repro.engine.spec` — work-item spec parsing/validation, one key
  builder per store key family (:func:`check_store_key`,
  :func:`task_store_key`; each key names its algorithm by name and
  content digest), and the canonical JSON wire forms the HTTP service
  (:mod:`repro.service`) exchanges; the only engine module that resolves
  registry names;
* :mod:`repro.engine.walk` — the lazy single-path simulator, the second
  implementation of the semantics (over a ``World``, independent of the
  kernel);
* :mod:`repro.engine.suites` — shared grid-size suites;
* :mod:`repro.engine.campaign` — batched serial/parallel campaign runner.

One rule governs execution: explorations run in the calling process on
the backend's cache, and task lists fan out, each task carrying its
algorithm by value.  Every entry point routes through at most two
arguments, ``backend=`` and ``store=``; explorations and single tasks
(:func:`verify_one`, :func:`check_one`) take ``backend=`` only.  See
``docs/architecture.md`` for the full layering diagram.
"""

from .campaign import (
    CampaignTask,
    GridSweepReport,
    ParallelCampaignEngine,
    VerificationReport,
    check_one,
    exhaustive_check_tasks,
    grid_sweep_tasks,
    run_task,
    stress_test_tasks,
    verify_one,
)
from .backend import ExecutionBackend, PoolBackend, SerialBackend, default_workers
from .explorer import (
    Exploration,
    explore,
    explore_sharded,
    guaranteed_nodes,
    has_cycle,
)
from .matcher import LocalMatcher, MatcherCache, MatcherStats
from .profile import PROFILE_ENV, KernelProfile, profiling_enabled
from .spec import (
    CheckSpec,
    SpecError,
    campaign_id,
    canonical_json,
    check_store_key,
    parse_campaign,
    parse_check_spec,
    parse_task,
    result_payload,
    task_store_key,
)
from .store import VerdictStore
from .states import (
    AsyncRobotState,
    FrozenSnapshot,
    SchedulerState,
    freeze_snapshot,
    initial_state,
    world_from_state,
)
from .suites import (
    REDUCTION_BENCH_CASE,
    default_grid_suite,
    reduction_parity_suite,
    scaling_suite,
)
from .symmetry import (
    GridSymmetry,
    canonicalize,
    grid_symmetries,
    normalize_reduction,
    transform_state,
)
from .transition import MODELS, AlgorithmTransitionSystem
from .walk import TieBreak, default_step_budget, run, run_async, run_fsync, run_ssync

__all__ = [
    # states
    "AsyncRobotState",
    "SchedulerState",
    "FrozenSnapshot",
    "initial_state",
    "world_from_state",
    "freeze_snapshot",
    # matcher / transition
    "LocalMatcher",
    "MatcherCache",
    "MatcherStats",
    "MODELS",
    "AlgorithmTransitionSystem",
    # symmetry
    "GridSymmetry",
    "grid_symmetries",
    "transform_state",
    "canonicalize",
    "normalize_reduction",
    # profiling
    "PROFILE_ENV",
    "KernelProfile",
    "profiling_enabled",
    # explorer
    "Exploration",
    "explore",
    "explore_sharded",
    # backends
    "ExecutionBackend",
    "SerialBackend",
    "PoolBackend",
    "default_workers",
    # durability
    "VerdictStore",
    "has_cycle",
    "guaranteed_nodes",
    # walk
    "TieBreak",
    "default_step_budget",
    "run",
    "run_fsync",
    "run_ssync",
    "run_async",
    # suites
    "default_grid_suite",
    "scaling_suite",
    "reduction_parity_suite",
    "REDUCTION_BENCH_CASE",
    # campaign
    "VerificationReport",
    "GridSweepReport",
    "CampaignTask",
    "verify_one",
    "check_one",
    "run_task",
    "grid_sweep_tasks",
    "stress_test_tasks",
    "exhaustive_check_tasks",
    "ParallelCampaignEngine",
    # specs / wire forms
    "SpecError",
    "CheckSpec",
    "parse_check_spec",
    "parse_task",
    "parse_campaign",
    "campaign_id",
    "canonical_json",
    "check_store_key",
    "result_payload",
    "task_store_key",
]
