"""One cold pass of a workload in a fresh process.

    python3 perfbench/worker.py --workload suite [--trace 1] [--size tiny] --tmp DIR

Prints one JSON line: ``ready`` (the monotonic clock once imports and the
task list are done, from which ``run.py`` derives set-up time), ``wall_s``,
``peak_rss_mb``, the pass's ops, failures and verdicts, and for a traced
pass the span-derived layer metrics and the reasons they cannot be trusted.
``--setup-only`` prints ``ready`` and exits without running the workload.
Run with ``src`` on ``PYTHONPATH``.

An untraced pass times each call to the workload's operations
(``workloads.op_targets``) and adds ``op_ms``, their latencies, and
``segments_s``: those durations in call order followed by the rest of the
pass, so the segments sum to ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from spans import Tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true", help="exit once ready, printing only ``ready``")
    args = parser.parse_args(argv)

    run = workloads.prepare(args.workload, args.size, args.seed, args.tmp)
    ready = time.monotonic()
    if args.setup_only:
        sys.stdout.write(json.dumps({"ready": ready}) + "\n")
        return 0
    targets = workloads.trace_targets(args.workload) if args.trace else workloads.op_targets(args.workload)
    tracer = Tracer()
    with tracer.patched(targets):
        out = run()
    root = tracer.finish()
    if args.trace:
        out["layers"] = workloads.layer_metrics(root)
        out["violations"] = tracer.problems() + workloads.missing_layers(args.workload, out["layers"])
    else:
        ops = [span.duration for span in root.children]
        out["op_ms"] = [duration * 1000 for duration in ops]
        out["segments_s"] = ops + [root.duration - sum(ops)]
    out.update(
        ready=ready,
        wall_s=root.duration,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
