"""Tests of the benchmark itself: ``python -m pytest perfbench -q`` from the repo root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

import run
import workloads
from spans import Span, Tracer, reentries, totals
from summary import median, quantile, tail

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------
def test_quantile_interpolates_linearly():
    assert quantile([4, 1, 3, 2], 0.5) == 2.5
    assert quantile([1, 2, 3, 4, 5], 0.9) == pytest.approx(4.6)
    assert median([7]) == 7


def test_tail_picks_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))
    summary = tail(values)
    assert summary["n"] == 100
    assert summary["p50"] == 50.5
    assert summary["q"] == 0.9  # 10 samples beyond p90, only 5 beyond p95
    assert summary["tail"] == pytest.approx(90.1)
    assert tail(list(range(1000)))["q"] == 0.99
    assert tail(list(range(10_000)))["q"] == 0.999


def test_tail_without_enough_samples_has_no_percentile():
    summary = tail([1.0] * 15)
    assert summary == {"n": 15, "p50": 1.0, "q": None, "tail": None}


# ---------------------------------------------------------------------------
# wall_s from per-segment minima
# ---------------------------------------------------------------------------
def test_fastest_segments_sums_each_positions_fastest_pass():
    assert run.fastest_segments([[1.0, 5.0, 2.0], [2.0, 3.0, 2.5]]) == 6.0
    assert run.fastest_segments([[4.0, 1.0]]) == 5.0
    with pytest.raises(ValueError):
        run.fastest_segments([[1.0, 2.0], [1.0]])


# ---------------------------------------------------------------------------
# Spans and self time
# ---------------------------------------------------------------------------
def _span(name, start, end, children=()):
    return Span(name, start, end, children=list(children))


def test_self_time_subtracts_the_children():
    parent = _span("p", 0.0, 10.0, [_span("a", 1.0, 3.0), _span("b", 3.0, 5.0), _span("c", 8.0, 9.5)])
    # children take 2 + 2 + 1.5 of the 10 seconds
    assert parent.self_time() == pytest.approx(4.5)


def test_totals_sum_per_name_and_counters():
    root = _span("pass", 0.0, 10.0, [
        _span("check", 0.0, 4.0, [_span("explore", 0.5, 3.0)]),
        _span("check", 5.0, 9.0, [_span("explore", 5.0, 6.0), _span("verdict", 6.0, 8.0)]),
    ])
    root.children[0].children[0].counters["states"] = 3
    root.children[1].children[0].counters["states"] = 4
    table = totals(root)
    assert table["check"] == {"count": 2, "total_s": 8.0, "self_s": pytest.approx(2.5)}
    assert table["explore"]["total_s"] == pytest.approx(3.5)
    assert table["explore"]["states"] == 7
    assert "pass" not in table
    assert reentries(root) == []


def test_reentries_name_layers_nested_in_themselves():
    root = _span("pass", 0.0, 10.0, [
        _span("check", 0.0, 4.0, [_span("explore", 0.0, 3.0, [_span("check", 1.0, 2.0)])]),
        _span("check", 5.0, 9.0),
    ])
    assert reentries(root) == ["check re-entered itself"]


def test_tracer_leaves_calls_from_other_threads_untimed():
    module = types.SimpleNamespace(work=lambda x: x + 1)
    tracer = Tracer()
    results = []
    with tracer.patched([(module, "work", "layer.work", None)]):
        thread = threading.Thread(target=lambda: results.append(module.work(1)))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert module.work(2) == 3
    tracer.finish()
    assert results == [2]
    assert [child.name for child in tracer.root.children] == ["layer.work"]
    assert tracer.problems() == ["1 traced calls ran off the tracing thread"]


def test_missing_layers_names_required_layers_that_read_zero():
    layers = {name: 1.0 for name in workloads.REQUIRED["suite"]}
    assert workloads.missing_layers("suite", layers) == []
    layers["verdict.has_cycle_s"] = 0.0
    assert workloads.missing_layers("suite", layers) == ["suite never entered verdict.has_cycle_s"]


def test_tracer_patches_and_restores_module_attributes():
    ticks = iter(range(100))
    module = types.SimpleNamespace(work=lambda x: x * 2)
    original = module.work
    tracer = Tracer(clock=lambda: float(next(ticks)))
    seen = []
    with tracer.patched([(module, "work", "layer.work", lambda span, result: seen.append(result))]):
        assert module.work(21) == 42
        assert module.work is not original
    root = tracer.finish()
    assert module.work is original
    assert seen == [42]
    assert [child.name for child in root.children] == ["layer.work"]
    assert root.children[0].duration == 1.0


# ---------------------------------------------------------------------------
# The contract file and tiny passes of every workload
# ---------------------------------------------------------------------------
def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.BATCH) + ["service"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_UNITS


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_pass_emits_every_named_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    detail, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], detail
    assert result["attempted"] >= 1 and result["failed"] == 0
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert detail["env"]["cpus"] >= 1 and detail["seed"] == 3
    if trace:
        assert detail["problems"] == [] and detail["trace_overhead_s"]
        required = workloads.REQUIRED["replay" if workload == "service" else workload]
        assert all(result["metrics"][name]["value"] > 0 for name in required)
    else:
        assert all(result["metrics"][name]["value"] > 0 for name in names)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("suite", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
