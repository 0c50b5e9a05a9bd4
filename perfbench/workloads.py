"""Workload bodies, their inputs and their correctness gates.

Each batch workload is prepared (imports plus its task list) and then run
once per fresh process by ``worker.py``.  Entry points are called through
their defining modules at call time, with default routing only (the replay
passes the ``SerialBackend`` the server itself uses), so a traced pass can
wrap them and later refactors that collapse routing options still measure
the same thing:

* ``table1``: ``build_table1(quick=False)``, the paper's Table 1.  The only
  workload dominated by the simulation campaigns (``verification``,
  ``engine.campaign``, ``engine.walk``).
* ``suite``: ``exhaustive_sweep`` in each algorithm's own model over
  ``default_grid_suite(max_side=12)``; many small checks under the default
  grid quotient, one matcher cache per algorithm shared across sizes.
* ``replay``: the ``service`` request stream replayed in-process through
  ``parse_check_spec``, the store-backed check and the response encoding,
  which splits a service request into its library layers.

The seed drives the service request stream.  Table 1 and the suite are
fixed inputs; their seed is recorded and nothing else.

The same wrapping times the workload's operations in an untraced pass
(``op_targets``), so the pass splits into segments that are the same work
in every pass.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

from spans import totals, walk
from summary import median

#: This module, whose ``serialize`` a traced replay wraps.
THIS = sys.modules[__name__]
EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())

#: Sizes per workload; ``tiny`` is the smoke size the benchmark's tests run.
SIZES = {
    "full": {"suite_max_side": 12, "service_max_side": 9, "service_stride": 1},
    "tiny": {"suite_max_side": 4, "service_max_side": 4, "service_stride": 9},
}

#: The service stream: each spec's first request (a store miss) is followed
#: by this many requests drawn Zipf-weighted from the specs seen so far.
HITS_PER_MISS = 9
ZIPF_EXPONENT = 1.1


def canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Service request stream
# ---------------------------------------------------------------------------
def service_specs(size: str) -> List[Dict[str, object]]:
    """``POST /v1/check`` bodies: every algorithm in its own model over its suite."""
    from repro.algorithms import registry
    from repro.engine.suites import default_grid_suite

    specs = [
        {"algorithm": name, "m": m, "n": n, "model": algorithm.synchrony}
        for name, algorithm in sorted(registry.all_algorithms().items())
        for m, n in default_grid_suite(algorithm, max_side=SIZES[size]["service_max_side"])
    ]
    return specs[:: SIZES[size]["service_stride"]]


def build_stream(seed: int, size: str) -> List[Dict[str, object]]:
    """The seeded request stream: every spec once as a miss, ~9 hits per miss."""
    rng = random.Random(seed)
    order = service_specs(size)
    rng.shuffle(order)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(order))]
    stream: List[Dict[str, object]] = []
    for introduced, spec in enumerate(order, start=1):
        stream.append(spec)
        stream.extend(rng.choices(order[:introduced], weights=weights[:introduced], k=HITS_PER_MISS))
    return stream


def serialize(result, spec) -> str:
    """The response body the service writes for one check (minus its timing)."""
    from repro.engine import spec as specs

    body = specs.result_payload(result)
    body["spec"] = dataclasses.asdict(spec)
    return specs.canonical_json(body)


# ---------------------------------------------------------------------------
# Workloads: prepare() does the imports and builds the task list, the
# returned callable runs one pass and reports ops, latencies and verdicts.
# ---------------------------------------------------------------------------
Pass = Dict[str, object]


def _table1(size: str, seed: int, tmp: Path) -> Callable[[], Pass]:
    from repro.analysis import table1

    expected = EXPECTED[size]["table1"]

    def run() -> Pass:
        rows = table1.build_table1(quick=size == "tiny")
        failures = [
            f"{row.algorithm}: verified={row.verified} model_checked={row.model_checked}"
            for row in rows
            if row.algorithm is not None and (not row.matches_paper or row.model_checked is False)
        ]
        registered = sum(row.algorithm is not None for row in rows)
        if (len(rows), registered) != (expected["rows"], expected["registered"]):
            failures.append(f"{len(rows)} rows with {registered} registered, expected {expected}")
        verdicts = [
            [row.synchrony, row.phi, row.ell, row.chirality, row.algorithm,
             row.measured_k, row.verified, row.model_checked]
            for row in rows
        ]
        return {"ops": len(rows), "failures": failures, "verdicts": verdicts}

    return run


def _suite(size: str, seed: int, tmp: Path) -> Callable[[], Pass]:
    from repro.algorithms import registry
    from repro.engine.suites import default_grid_suite
    from repro.verification import campaigns

    expected = EXPECTED[size]["suite"]
    max_side = SIZES[size]["suite_max_side"]
    plan = [
        (algorithm, default_grid_suite(algorithm, max_side=max_side))
        for _, algorithm in sorted(registry.all_algorithms().items())
    ]

    def run() -> Pass:
        failures, verdicts = [], []
        for algorithm, sizes in plan:
            report = campaigns.exhaustive_sweep(algorithm, sizes=sizes, model=algorithm.synchrony)
            for item in report.reports:
                verdicts.append([item.algorithm, item.m, item.n, item.ok, item.steps])
                if not item.ok:
                    failures.append(f"{item}")
        states = sum(verdict[4] for verdict in verdicts)
        if (len(verdicts), states) != (expected["checks"], expected["states"]):
            failures.append(f"{len(verdicts)} checks with {states} states, expected {expected}")
        return {"ops": len(verdicts), "failures": failures, "verdicts": verdicts}

    return run


def _replay(size: str, seed: int, tmp: Path) -> Callable[[], Pass]:
    from repro.algorithms import registry
    from repro.checking import model_checker
    from repro.core.grid import Grid
    from repro.engine import spec as specs
    from repro.engine.backend import SerialBackend
    from repro.engine.store import VerdictStore

    stream = build_stream(seed, size)

    def run() -> Pass:
        store = VerdictStore(tmp / "replay-store")
        backend = SerialBackend()
        failures, verdicts = [], []
        try:
            for payload in stream:
                spec = specs.parse_check_spec(payload)
                result = model_checker.check_terminating_exploration(
                    registry.get(spec.algorithm),
                    Grid(spec.m, spec.n),
                    model=spec.model,
                    reduction=spec.reduction,
                    store=store,
                    backend=backend,
                )
                body = json.loads(THIS.serialize(result, spec))
                verdicts.append([canonical(payload), canonical(body["verdict"])])
                if not body["verdict"]["ok"]:
                    failures.append(f"{canonical(payload)}: {body['verdict']}")
        finally:
            backend.close()
            store.close()
        return {"ops": len(stream), "failures": failures, "verdicts": verdicts}

    return run


WORKLOADS = {"table1": _table1, "suite": _suite, "replay": _replay}


def prepare(workload: str, size: str, seed: int, tmp: Path) -> Callable[[], Pass]:
    return WORKLOADS[workload](size, seed, tmp)


def op_targets(workload: str):
    """The calls an untraced pass times one by one, as ``trace_targets`` spells them.

    Each is one unit of the workload's work and lasts milliseconds to under
    a second: a Table-1 campaign walk (``verify_one``) or a row's model check,
    or one suite check (``check_one``).  ``run.py`` sums each call's fastest
    time over the passes (``run.fastest_segments``).
    """
    from repro.analysis import table1
    from repro.engine import campaign

    return {
        "table1": [
            (campaign, "verify_one", "op.walk", None),
            (table1, "check_terminating_exploration", "op.model_check", None),
        ],
        "suite": [(campaign, "check_one", "op.check", None)],
        "replay": [],
    }[workload]


# ---------------------------------------------------------------------------
# Tracing: which public functions a traced pass wraps, and the per-layer
# metrics derived from the resulting spans.
# ---------------------------------------------------------------------------
def _observe_exploration(span, exploration) -> None:
    stats = exploration.matcher_stats or {}
    span.counters.update(
        states=exploration.num_states,
        edges=sum(len(row) for row in exploration.succ),
        matcher_hits=stats.get("hits", 0),
        matcher_misses=stats.get("misses", 0),
        orbit_collapses=sum(
            component.get("orbit_collapses", 0)
            for component in (exploration.reduction_stats or {}).values()
        ),
    )


def _observe_walk(span, execution) -> None:
    span.counters["steps"] = execution.steps


def _observe_check(span, result) -> None:
    outcome = (result.store_stats or {}).get("outcome")
    if outcome is not None:
        span.counters[outcome] = 1


def trace_targets(workload: str):
    """``(module, attribute, span name, observer)`` for every wrapped entry point."""
    from repro.analysis import table1
    from repro.checking import model_checker
    from repro.engine import campaign
    from repro.engine import spec as specs
    from repro.verification import campaigns

    targets = [
        (model_checker, "explore_sharded", "explorer.explore", _observe_exploration),
        (model_checker, "has_cycle", "verdict.has_cycle", None),
        (model_checker, "guaranteed_nodes", "verdict.guaranteed_nodes", None),
    ]
    if workload == "table1":
        targets += [
            (campaigns, "grid_sweep", "verification.grid_sweep", None),
            (campaigns, "stress_test", "verification.stress_test", None),
            (campaign, "run_fsync", "walk", _observe_walk),
            (campaign, "run_ssync", "walk", _observe_walk),
            (campaign, "run_async", "walk", _observe_walk),
            (table1, "check_terminating_exploration", "table1.model_check", None),
        ]
    if workload == "suite":
        targets.append((campaigns, "exhaustive_sweep", "campaign.exhaustive_sweep", None))
    if workload in ("suite", "replay"):
        targets.append(
            (model_checker, "check_terminating_exploration", "checking.check", _observe_check)
        )
    if workload == "replay":
        targets += [
            (specs, "parse_check_spec", "spec.parse", None),
            (THIS, "serialize", "spec.serialize", None),
        ]
    return targets


CAMPAIGN_SPANS = ("verification.grid_sweep", "verification.stress_test", "campaign.exhaustive_sweep")

#: Layers each traced workload must enter.  A layer that reads 0 here means
#: its entry point is no longer called through the wrapped module attribute,
#: so its figure would vanish without the work having gone.
REQUIRED = {
    "table1": (
        "verification.fsync_sweep_s", "verification.stress_s", "verification.walks",
        "verification.steps", "walk.run_s", "table1.model_check_s", "campaign.self_s",
        "explorer.states", "verdict.has_cycle_s", "verdict.guaranteed_nodes_s",
    ),
    "suite": (
        "campaign.self_s", "explorer.explore_s", "explorer.states", "explorer.edges",
        "matcher.hits", "matcher.misses", "reduction.orbit_collapses",
        "verdict.has_cycle_s", "verdict.guaranteed_nodes_s",
    ),
    "replay": (
        "spec.parse_ms", "spec.serialize_ms", "checking.hit_ms", "checking.miss_ms",
        "explorer.states", "verdict.has_cycle_s",
    ),
}


def missing_layers(workload: str, layers: Dict[str, float]) -> List[str]:
    return [f"{workload} never entered {name}" for name in REQUIRED[workload] if not layers.get(name)]


def layer_metrics(root) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced pass (0 where a layer is idle)."""
    table = totals(root)

    def total(name: str, key: str = "total_s") -> float:
        return table.get(name, {}).get(key, 0)

    def median_ms(name: str, outcome: Optional[str] = None) -> float:
        durations = [
            span.duration * 1000
            for span in walk(root)
            if span.name == name and (outcome is None or span.counters.get(outcome))
        ]
        return median(durations) if durations else 0.0

    hits = total("explorer.explore", "matcher_hits")
    misses = total("explorer.explore", "matcher_misses")
    return {
        "verification.fsync_sweep_s": total("verification.grid_sweep"),
        "verification.stress_s": total("verification.stress_test"),
        "verification.walks": total("walk", "count"),
        "verification.steps": total("walk", "steps"),
        "walk.run_s": total("walk"),
        "table1.model_check_s": total("table1.model_check"),
        "campaign.self_s": sum(total(name, "self_s") for name in CAMPAIGN_SPANS),
        "explorer.explore_s": total("explorer.explore"),
        "explorer.states": total("explorer.explore", "states"),
        "explorer.edges": total("explorer.explore", "edges"),
        "matcher.hits": hits,
        "matcher.misses": misses,
        "matcher.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "reduction.orbit_collapses": total("explorer.explore", "orbit_collapses"),
        "verdict.has_cycle_s": total("verdict.has_cycle"),
        "verdict.guaranteed_nodes_s": total("verdict.guaranteed_nodes"),
        "spec.parse_ms": median_ms("spec.parse"),
        "spec.serialize_ms": median_ms("spec.serialize"),
        "checking.hit_ms": median_ms("checking.check", "hit"),
        "checking.miss_ms": median_ms("checking.check", "miss"),
    }
