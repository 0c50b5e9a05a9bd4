"""Tests for the campaign engine: task lists, routing and serial parity."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.algorithms import get
from repro.core import Algorithm, G, Synchrony, W, occ
from repro.core.rules import Guard, Rule
from repro.engine import (
    CampaignTask,
    ParallelCampaignEngine,
    PoolBackend,
    VerdictStore,
    check_one,
    grid_sweep_tasks,
    run_task,
    stress_test_tasks,
    verify_one,
)
from repro.engine.store import HIT
from repro.verification import grid_sweep, stress_test


class TestTaskLists:
    def test_grid_sweep_tasks_cover_the_default_suite(self):
        algorithm = get("fsync_phi1_l2_chir_k3")
        tasks = grid_sweep_tasks(algorithm)
        assert tasks, "default suite must not be empty"
        assert all(task.algorithm is algorithm for task in tasks)
        assert all(algorithm.supports_grid(task.m, task.n) for task in tasks)

    def test_stress_tasks_enumerate_models_and_seeds(self):
        algorithm = get("async_phi2_l3_chir_k2")
        tasks = stress_test_tasks(algorithm, sizes=[(3, 4)], seeds=(0, 1))
        assert len(tasks) == 4  # 2 models x 2 seeds
        assert {task.model for task in tasks} == {"SSYNC", "ASYNC"}

    def test_run_task_runs_the_algorithm_the_task_carries(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        report = run_task(CampaignTask(algorithm=algorithm, m=3, n=4))
        assert report.ok and report.algorithm == algorithm.name

    @pytest.mark.parametrize("algorithm", ["fsync_phi2_l2_chir_k2", None, 7])
    def test_a_task_refuses_anything_but_an_algorithm(self, algorithm):
        with pytest.raises(TypeError, match="CampaignTask.algorithm must be an Algorithm"):
            CampaignTask(algorithm=algorithm, m=3, n=4)

    def test_a_task_refuses_an_unknown_kind(self, algorithm1):
        with pytest.raises(ValueError, match="kind"):
            CampaignTask(algorithm1, 3, 3, kind="bogus")

    def test_a_bad_check_reduction_raises_before_any_check_runs(self, algorithm1):
        with pytest.raises(ValueError, match="reduction"):
            CampaignTask(algorithm1, 3, 3, kind="check", reduction="bogus")
        with pytest.raises(ValueError, match="reduction") as raised:
            check_one(algorithm1, 3, 3, reduction="bogus")
        # Raised up front, not from inside the handler that reports failed checks.
        assert raised.value.__context__ is None


class TestParallelSerialParity:
    def test_grid_sweep_reports_identical_with_four_workers(self):
        """Acceptance: a four-worker pool produces byte-identical reports to serial."""
        algorithm = get("fsync_phi1_l2_chir_k3")
        serial = grid_sweep(algorithm)
        with PoolBackend(workers=4) as backend:
            parallel = grid_sweep(algorithm, backend=backend)
        assert parallel.reports == serial.reports
        assert [str(r) for r in parallel.reports] == [str(r) for r in serial.reports]
        assert parallel.ok == serial.ok

    def test_stress_test_reports_identical_with_workers(self):
        algorithm = get("async_phi2_l3_chir_k2")
        sizes = [(3, 4), (3, 5)]
        serial = stress_test(algorithm, sizes=sizes, seeds=(0, 1))
        with PoolBackend(workers=4) as backend:
            parallel = stress_test(algorithm, sizes=sizes, seeds=(0, 1), backend=backend)
        assert parallel.reports == serial.reports

    def test_no_backend_runs_in_process(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        report = grid_sweep(algorithm, sizes=[(3, 4)])
        assert report.ok and len(report.reports) == 1

    def test_an_adhoc_algorithm_runs_on_the_pool_workers(self):
        rules = (
            Rule("R1", G, Guard.build(1, E=occ(W)), G, "E"),
            Rule("R2", W, Guard.build(1, W=occ(G)), W, None),
        )
        adhoc = Algorithm(
            name="adhoc_engine_test",
            synchrony=Synchrony.FSYNC,
            phi=1,
            colors=(G, W),
            chirality=True,
            k=2,
            rules=rules,
            initial_placement=(((0, 0), G), ((0, 1), W)),
            min_m=1,
            min_n=3,
        )
        sizes = [(1, 3), (1, 4), (2, 3)]
        with PoolBackend(workers=4) as backend:
            report = grid_sweep(adhoc, sizes=sizes, backend=backend)
            assert backend.started  # the ad-hoc rule table crossed the process boundary
            assert backend.cache.stats_for(adhoc).lookups == 0
        # The ad-hoc rule set is not a terminating explorer; what matters is
        # that the workers ran it with the serial path's reports exactly.
        assert len(report.reports) == len(sizes)
        assert report.reports == ParallelCampaignEngine().run_tasks(grid_sweep_tasks(adhoc, sizes=sizes))


class TestTasksRunTheAlgorithmTheyName:
    """Each task runs the algorithm it carries, and is stored under it."""

    A, B = "fsync_phi2_l2_chir_k2", "fsync_phi1_l3_nochir_k4"

    def test_engine_files_the_named_algorithms_report_under_its_key(self, tmp_path):
        a, b = get(self.A), get(self.B)
        with VerdictStore(tmp_path / "store") as store:
            (report,) = ParallelCampaignEngine(store=store).run_tasks(grid_sweep_tasks(b, sizes=[(4, 5)]))
            assert (report.algorithm, report.steps) == (self.B, 14)
            (served,) = ParallelCampaignEngine(store=store).run_tasks([CampaignTask(b, 4, 5)])
        assert served.store_stats["outcome"] == HIT
        assert (served.algorithm, served.steps) == (self.B, 14)
        assert verify_one(a, 4, 5).steps == 17  # what A's run would have filed

    def test_engine_runs_each_tasks_own_algorithm(self):
        a, b = get(self.A), get(self.B)
        tasks = grid_sweep_tasks(a, sizes=[(4, 5)]) + grid_sweep_tasks(b, sizes=[(4, 5)])
        reports = ParallelCampaignEngine().run_tasks(tasks)
        assert [(r.algorithm, r.steps) for r in reports] == [(self.A, 17), (self.B, 14)]
        assert reports == [run_task(task) for task in tasks]


#: An ad-hoc campaign on a two-worker pool through a store, in a fresh
#: interpreter; prints whether the registry was ever imported.
WITHOUT_REGISTRY = """
import sys, tempfile
from repro.core import Algorithm, G, Grid, W, occ
from repro.core.rules import Guard, Rule
from repro.checking import check_terminating_exploration
from repro.engine import ParallelCampaignEngine, PoolBackend, VerdictStore, exhaustive_check_tasks

adhoc = Algorithm(
    name="adhoc", synchrony="FSYNC", phi=1, colors=(G, W), chirality=True, k=2,
    rules=(Rule("R1", G, Guard.build(1, E=occ(W)), G, "E"), Rule("R2", W, Guard.build(1, W=occ(G)), W, None)),
    initial_placement=(((0, 0), G), ((0, 1), W)), min_m=1, min_n=3,
)
with tempfile.TemporaryDirectory() as path, PoolBackend(workers=2) as backend, VerdictStore(path) as store:
    reports = ParallelCampaignEngine(backend=backend, store=store).run_tasks(
        exhaustive_check_tasks(adhoc, sizes=[(1, 3), (2, 3)])
    )
    check_terminating_exploration(adhoc, Grid(2, 4), model="SSYNC", store=store)
print(len(reports), "repro.algorithms" in sys.modules)
"""


class TestLayering:
    def test_the_engine_runs_without_the_registry(self):
        src = Path(__file__).resolve().parents[2] / "src"
        result = subprocess.run(
            [sys.executable, "-c", WITHOUT_REGISTRY],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["2", "False"]
