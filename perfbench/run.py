"""Cold end-to-end benchmark of the verification stack, split by layer.

    python3 perfbench/run.py --workload {table1,suite,service} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Every pass is cold: batch workloads run in a
fresh ``worker.py`` process, and ``service`` spawns a fresh
``python -m repro.service`` on an empty store.  Passes repeat for about
``--seconds`` (at least three).

Untraced (``--trace 0``) end-to-end metrics, on every workload:

* ``setup_s``: spawn until ready to work (imports plus the task list; for
  ``service``, spawn until ``/healthz`` answers), the fastest of every pass
  and ``SETUP_SPAWNS`` set-up-only spawns per pass;
* ``wall_s``: one full pass (for ``service``, the whole request stream)
  with each of its segments at its fastest (``fastest_segments``).  A batch
  pass splits at its operations (``workloads.op_targets``: a campaign walk,
  a check), so segment i is the same work in every pass.  On a shared host
  each CPU swings between full speed and up to half of it in phases of
  about a second, so a multi-second pass rarely runs at full speed
  throughout (the fastest whole pass varies by up to 30% between runs)
  while each short segment does on some pass.  A service pass is one
  segment, the fastest pass: its replies overlap on two CPUs, and cutting
  it after every 5 to 100 replies left its spread as it was;
* ``peak_rss_mb``: peak resident memory of the working process (the server
  on ``service``), median over passes.

Operation latencies (one campaign walk or Table-1 model check, one suite
check, one ``POST /v1/check``) go to
the detail line as a median plus the highest percentile with ten samples
beyond it, with the sample count; on ``service`` split by store outcome.

The service stream is seeded: each of ~130 own-model specs arrives once as a
store miss, followed by nine requests drawn Zipf-weighted from the specs seen
so far (``workloads.build_stream``), sent by two closed-loop clients.

The traced run (``--trace 1``) repeats untraced and traced passes in pairs
and reports the per-layer metrics of ``BENCHMARK.json`` (0 where a workload
never enters a layer) plus ``trace.overhead_s``, the traced pass minus the
untraced one.  On ``service`` the layers come from an in-process replay of
the same stream (``workloads.py``); the hit/miss latency split, requests
per second, ``service.http_self_ms`` and the ``store.*`` counters come from
a real, untraced server pass.

Correctness: every Table-1 row the repo registers matches the paper and
every model-checked row is ok; suite verdicts are ok with the state counts
in ``expected.json``; every service response for one spec has
the same verdict bytes, and a seeded sample equals the library's
``result_payload``.  A second JSON line before the result carries the
environment, the seed, per-pass figures and the service hit/miss split.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

import loadgen
import workloads
from summary import environment, median, quantile, tail

ROOT = Path(__file__).resolve().parent.parent
BATCH = ("table1", "suite")
MIN_PASSES = 3
#: Set-up takes a fraction of a second and single samples scatter widely,
#: so each pass is followed by this many spawns that stop once ready.
SETUP_SPAWNS = 1
#: Service specs re-checked through the library after the timed passes.
SAMPLE = 8
PASS_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "verification.fsync_sweep_s": "s",
    "verification.stress_s": "s",
    "verification.walks": "count",
    "verification.steps": "count",
    "walk.run_s": "s",
    "table1.model_check_s": "s",
    "campaign.self_s": "s",
    "explorer.explore_s": "s",
    "explorer.states": "count",
    "explorer.edges": "count",
    "matcher.hits": "count",
    "matcher.misses": "count",
    "matcher.hit_rate": "ratio",
    "reduction.orbit_collapses": "count",
    "verdict.has_cycle_s": "s",
    "verdict.guaranteed_nodes_s": "s",
    "service.hit_p50_ms": "ms",
    "service.hit_p99_ms": "ms",
    "service.miss_p50_ms": "ms",
    "service.miss_p90_ms": "ms",
    "service.requests_per_s": "1/s",
    "service.http_self_ms": "ms",
    "spec.parse_ms": "ms",
    "spec.serialize_ms": "ms",
    "checking.hit_ms": "ms",
    "checking.miss_ms": "ms",
    "store.hits": "count",
    "store.misses": "count",
    "store.coalesced": "count",
    "store.disk_records": "count",
    "trace.overhead_s": "s",
}


class Budget:
    """Keeps passes coming for ``seconds``, predicting the next pass from the mean."""

    def __init__(self, seconds: float, minimum: int) -> None:
        self.seconds = seconds
        self.minimum = minimum
        self.start = time.monotonic()
        self.done = 0

    def more(self) -> bool:
        elapsed = time.monotonic() - self.start
        if self.done < self.minimum:
            return True
        return elapsed + elapsed / self.done <= self.seconds

    def tick(self) -> None:
        self.done += 1


def fastest_segments(passes: List[List[float]]) -> float:
    """Sum over segment positions of the fastest time any pass took there."""
    if len({len(segments) for segments in passes}) != 1:
        raise ValueError(f"passes split into different numbers of segments: {[len(s) for s in passes]}")
    return sum(min(column) for column in zip(*passes))


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------
def worker_pass(
    workload: str, seed: int, size: str, trace: int, tmp: Path, setup_only: bool = False
) -> Dict[str, object]:
    """One fresh worker process; adds ``setup_s`` from its spawn time."""
    command = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--size", size, "--tmp", str(tmp),
    ] + (["--setup-only"] if setup_only else [])
    tmp.mkdir(parents=True, exist_ok=True)
    spawned = time.monotonic()
    done = subprocess.run(
        command, cwd=ROOT, env=loadgen.child_env(ROOT), capture_output=True, text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {done.returncode}: {done.stderr[-2000:]}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    out["setup_s"] = out.pop("ready") - spawned
    return out


def service_pass(stream: List[Dict[str, object]], tmp: Path, index: int) -> Dict[str, object]:
    """One server on an empty store serving the whole stream."""
    server = loadgen.Server(ROOT, tmp / f"store-{index}", tmp / f"service-{index}.log")
    try:
        records, wall = loadgen.closed_loop(server, stream)
        status, data = server.request("GET", "/v1/stats")
        if status != 200:
            raise RuntimeError(f"GET /v1/stats answered {status}")
        store_stats = json.loads(data)["store"]
        peak = server.peak_rss_mb()
    finally:
        server.stop()
    failures = [
        f"{workloads.canonical(stream[i])}: {record.get('error') or record.get('verdict')}"
        for i, record in enumerate(records)
        if record["status"] != 200 or not record["ok"]
    ]
    return {
        "setup_s": server.setup_s,
        "wall_s": wall,
        "segments_s": [wall],
        "peak_rss_mb": peak,
        "ops": len(records),
        "op_ms": [record["latency_ms"] for record in records],
        "records": records,
        "failures": failures,
        "store": store_stats,
    }


def setup_sample(workload: str, seed: int, size: str, tmp: Path, index: int) -> float:
    """Set-up time of one spawn that stops as soon as it is ready."""
    if workload == "service":
        server = loadgen.Server(ROOT, tmp / f"setup-store-{index}", tmp / f"setup-{index}.log")
        server.stop()
        return server.setup_s
    return worker_pass(workload, seed, size, 0, tmp, setup_only=True)["setup_s"]


# ---------------------------------------------------------------------------
# Service checks
# ---------------------------------------------------------------------------
def verdicts_by_spec(stream, records) -> Dict[str, set]:
    seen: Dict[str, set] = {}
    for payload, record in zip(stream, records):
        if record.get("verdict") is not None:
            seen.setdefault(workloads.canonical(payload), set()).add(record["verdict"])
    return seen


def conflicts(seen: Dict[str, set]) -> List[str]:
    return [f"{key}: {len(values)} distinct verdicts" for key, values in seen.items() if len(values) > 1]


def library_sample(stream, seed: int, seen: Dict[str, set]) -> List[str]:
    """Re-check a seeded sample of specs through the library; return mismatches."""
    from repro.algorithms import registry
    from repro.checking import check_terminating_exploration
    from repro.core.grid import Grid
    from repro.engine.spec import canonical_json, parse_check_spec, result_payload

    unique = sorted({workloads.canonical(payload) for payload in stream})
    sample = random.Random(f"sample-{seed}").sample(unique, min(SAMPLE, len(unique)))
    problems = []
    for key in sample:
        spec = parse_check_spec(json.loads(key))
        result = check_terminating_exploration(
            registry.get(spec.algorithm), Grid(spec.m, spec.n), model=spec.model,
            reduction=spec.reduction,
        )
        expected = canonical_json(result_payload(result)["verdict"])
        if seen.get(key) != {expected}:
            problems.append(f"{key}: service {sorted(seen.get(key, ()))} != library {expected}")
    return problems


def by_outcome(records) -> Dict[str, List[float]]:
    """Client latencies (ms) of answered requests, keyed by store outcome."""
    split: Dict[str, List[float]] = {}
    for record in records:
        if record.get("outcome") is not None:
            split.setdefault(record["outcome"], []).append(record["latency_ms"])
    return split


def service_layers(served: Dict[str, object]) -> Dict[str, float]:
    """The per-layer metrics one untraced server pass gives."""
    records = served["records"]
    split = by_outcome(records)
    hits, misses = split.get("hit", [0.0]), split.get("miss", [0.0])
    return {
        "service.hit_p50_ms": median(hits),
        "service.hit_p99_ms": quantile(hits, 0.99),
        "service.miss_p50_ms": median(misses),
        "service.miss_p90_ms": quantile(misses, 0.9),
        "service.requests_per_s": served["ops"] / served["wall_s"],
        "service.http_self_ms": median(
            [r["latency_ms"] - r["elapsed_ms"] for r in records if r["status"] == 200]
        ),
        **{f"store.{key}": served["store"][key] for key in ("hits", "misses", "coalesced", "disk_records")},
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------
def timed_run(workload: str, seed: int, seconds: float, size: str, tmp: Path):
    passes, setups = [], []
    budget = Budget(seconds, MIN_PASSES if size == "full" else 1)

    def more_setups() -> None:
        for _ in range(SETUP_SPAWNS):
            setups.append(setup_sample(workload, seed, size, tmp, len(setups)))

    if workload == "service":
        stream = workloads.build_stream(seed, size)
        while budget.more():
            passes.append(service_pass(stream, tmp, budget.done))
            more_setups()
            budget.tick()
        records = [record for one in passes for record in one["records"]]
        seen = verdicts_by_spec(stream * len(passes), records)
        problems = conflicts(seen) + library_sample(stream, seed, seen)
        outcomes = [record.get("outcome") for record in passes[-1]["records"]]
        extra = {
            "stream": {"seed": seed, "requests": len(stream), "specs": len({workloads.canonical(s) for s in stream})},
            "outcomes": {name: outcomes.count(name) for name in ("hit", "miss", "coalesced")},
            "latency_ms": {name: tail(values) for name, values in sorted(by_outcome(records).items())},
            "requests_per_s": [one["ops"] / one["wall_s"] for one in passes],
            "store": passes[-1]["store"],
        }
    else:
        while budget.more():
            passes.append(worker_pass(workload, seed, size, 0, tmp))
            more_setups()
            budget.tick()
        problems = [] if all(one["verdicts"] == passes[0]["verdicts"] for one in passes) else [
            "verdicts differ between passes"
        ]
        extra = {}
    metrics = {
        "setup_s": min([one["setup_s"] for one in passes] + setups),
        "wall_s": fastest_segments([one["segments_s"] for one in passes]),
        "peak_rss_mb": median([one["peak_rss_mb"] for one in passes]),
    }
    failures = [failure for one in passes for failure in one["failures"]]
    detail = {
        "passes": [{key: one[key] for key in ("setup_s", "wall_s", "peak_rss_mb", "ops")} for one in passes],
        "setup_only_s": setups,
        "op_latency_ms": tail([value for one in passes for value in one["op_ms"]]),
        "failures": failures[:20],
        "problems": problems,
        **extra,
    }
    attempted = sum(one["ops"] for one in passes)
    return metrics, END_TO_END_UNITS, attempted, len(failures), problems, detail


def traced_run(workload: str, seed: int, seconds: float, size: str, tmp: Path):
    """Untraced and traced passes in pairs; per-layer medians over the traced ones."""
    layers: List[Dict[str, float]] = []
    overheads: List[float] = []
    problems: List[str] = []
    attempted = failed = 0
    budget = Budget(seconds, 1)
    if workload == "service":
        stream = workloads.build_stream(seed, size)
        served = service_pass(stream, tmp, 0)
        attempted, failed = served["ops"], len(served["failures"])
        seen = verdicts_by_spec(stream, served["records"])
        problems += conflicts(seen)
        served_verdicts = {key: min(values) for key, values in seen.items()}
        server_layers = service_layers(served)
    while budget.more():
        name = "replay" if workload == "service" else workload
        # Alternate which pass of a pair runs first, so neither side keeps
        # the same position relative to whatever ran before it.
        order = (0, 1) if budget.done % 2 == 0 else (1, 0)
        pair = {trace: worker_pass(name, seed, size, trace, tmp / f"trace{trace}-{budget.done}") for trace in order}
        plain, traced = pair[0], pair[1]
        budget.tick()
        attempted += plain["ops"] + traced["ops"]
        failed += len(plain["failures"]) + len(traced["failures"])
        overheads.append(traced["wall_s"] - plain["wall_s"])
        problems += traced["violations"]
        if traced["verdicts"] != plain["verdicts"]:
            problems.append("traced verdicts differ from the untraced pass")
        if workload == "service":
            replayed = dict(map(tuple, traced["verdicts"]))
            if replayed != served_verdicts:
                problems.append("replayed verdicts differ from the server's")
            traced["layers"].update(server_layers)
        layers.append(traced["layers"])
    metrics = {name: median([one.get(name, 0) for one in layers]) for name in LAYER_UNITS if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = median(overheads)
    return metrics, LAYER_UNITS, attempted, failed, problems, {"trace_overhead_s": overheads, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Cold end-to-end benchmark of the verification stack.")
    parser.add_argument("--workload", choices=BATCH + ("service",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    env = environment(ROOT)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        run = traced_run if args.trace else timed_run
        metrics, units, attempted, failed, problems, detail = run(
            args.workload, args.seed, args.seconds, args.size, tmp
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "failed_frac": failed / attempted, **detail,
    }))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
