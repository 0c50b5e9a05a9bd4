"""Paired parent-vs-change runs of one perfbench workload.

    python tools/bench_pairs.py --parent REV [--workload suite] [--pairs 10] [--seed N]

Run from the repository root.  The parent revision is exported with
``git archive`` into a temporary directory, so the repository's git state
is untouched; the change is the working tree.  Each pair runs
``perfbench/run.py --trace 0`` once on each side, on one seed (pair ``i``
uses seed ``N + i``), for BENCHMARK.json's ``run_seconds`` per run.  The
side that runs first alternates from pair to pair, so a drift in the
host's load does not favour one side.  Any run that reports
``"correct": false``, or fails outright, stops the tool with exit status 1.

For every end-to-end metric of BENCHMARK.json it prints one JSON line:
each side's median and quartiles, the pairs the change won, and whether
the medians differ in the change's favour by more than the parent's
interquartile range.  ``passes`` is true when there were at least ten
pairs, the change won at least nine in ten and that gap holds: the rule a
claimed gain must meet.  Fewer pairs still print their medians, but never
pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: A claimed gain must win at least this share of pairs (nine in ten), in a
#: set of at least this many pairs.
WIN_SHARE = (9, 10)
MIN_PAIRS = 10

Pair = Tuple[Dict[str, float], Dict[str, float]]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``, interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: Sequence[Pair], metrics: Sequence[dict]) -> List[dict]:
    """One verdict per metric over ``(parent, change)`` metric pairs.

    ``metrics`` are BENCHMARK.json ``end_to_end`` entries (``name`` and
    ``better``: ``"lower"`` or ``"higher"``).  A pair is won when the
    change is strictly better: a tie is not a win.  ``passes`` needs
    :data:`MIN_PAIRS` pairs, :data:`WIN_SHARE` of them won and a median
    gap wider than the parent's interquartile range.
    """
    rows = []
    for metric in metrics:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        p1, p_median, p3 = quartiles(parent)
        c1, c_median, c3 = quartiles(change)
        won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        gap = sign * (p_median - c_median)  # > 0: the change is better
        gap_wider = gap > p3 - p1
        rows.append({
            "metric": name,
            "parent": {"median": p_median, "q1": p1, "q3": p3},
            "change": {"median": c_median, "q1": c1, "q3": c3},
            "won": won,
            "pairs": len(pairs),
            "gap": gap,
            "gap_wider_than_parent_iqr": gap_wider,
            "passes": (
                len(pairs) >= MIN_PAIRS
                and won * WIN_SHARE[1] >= len(pairs) * WIN_SHARE[0]
                and gap_wider
            ),
        })
    return rows


def export(revision: str, target: Path) -> None:
    """Extract ``revision``'s committed files into ``target`` with ``git archive``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision], cwd=ROOT, capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)


def tree_digest(directory: Path) -> str:
    """A digest of the files under ``directory`` (to compare harness copies)."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(directory).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_side(root: Path, workload: str, seed: int, seconds: float) -> Dict[str, float]:
    """One untraced perfbench run in ``root``: its end-to-end metrics."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # each side imports its own src only
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if completed.returncode == 0 and lines else None
    if result is None or result.get("correct") is not True:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(f"{root}: seed {seed}: incorrect or failed run")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv: Optional[Sequence[str]] = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--workload", default="suite")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="the first pair's seed")
    args = parser.parse_args(argv)
    seconds = benchmark["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_root = Path(tmp)
        export(args.parent, parent_root)
        if tree_digest(parent_root / "perfbench") != tree_digest(ROOT / "perfbench"):
            print("warning: the two sides run different perfbench code", file=sys.stderr)
        pairs: List[Pair] = []
        for index in range(args.pairs):
            seed = args.seed + index
            sides = [("parent", parent_root), ("change", ROOT)]
            if index % 2:
                sides.reverse()
            measured = {name: run_side(root, args.workload, seed, seconds) for name, root in sides}
            pairs.append((measured["parent"], measured["change"]))
            print(json.dumps({"pair": index, "seed": seed, "first": sides[0][0], **measured}), flush=True)
    for row in summarize(pairs, benchmark["end_to_end"]):
        print(json.dumps({"workload": args.workload, **row}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
