"""``tools/bench_pairs.py``'s verdict on synthetic pairs of benchmark runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

WALL = [{"name": "wall_s", "better": "lower"}]
#: Ten parent runs: median 0.50, quartiles 0.49-0.5075 (IQR 0.0175).
PARENT = [0.47, 0.48, 0.49, 0.49, 0.50, 0.50, 0.50, 0.51, 0.52, 0.53]


def pairs(parent, change, name="wall_s"):
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


def verdict(parent, change, metrics=WALL):
    [row] = bench_pairs.summarize(pairs(parent, change, metrics[0]["name"]), metrics)
    return row


def test_nine_of_ten_pairs_won_with_a_gap_wider_than_the_iqr_passes():
    change = [0.38] * 9 + [0.60]  # the last pair is lost
    row = verdict(PARENT, change)
    assert (row["won"], row["pairs"]) == (9, 10)
    assert row["gap_wider_than_parent_iqr"] and row["passes"]
    assert row["parent"]["median"] == 0.50
    assert abs(row["parent"]["q1"] - 0.49) < 1e-9 and abs(row["parent"]["q3"] - 0.5075) < 1e-9


def test_eight_of_ten_pairs_won_fails_even_with_a_wide_gap():
    change = [0.38] * 8 + [0.60, 0.60]
    row = verdict(PARENT, change)
    assert row["won"] == 8
    assert row["gap_wider_than_parent_iqr"] and not row["passes"]


def test_every_pair_won_by_less_than_the_iqr_fails():
    change = [p - 0.015 for p in PARENT]
    row = verdict(PARENT, change)
    assert row["won"] == 10
    assert not row["gap_wider_than_parent_iqr"] and not row["passes"]


def test_fewer_than_ten_pairs_never_pass():
    for count in (1, 3, 9):
        row = verdict(PARENT[:count], [0.30] * count)
        assert (row["won"], row["pairs"]) == (count, count)
        assert row["gap_wider_than_parent_iqr"] and not row["passes"]


def test_ties_are_lost_and_higher_is_better_counts_the_other_way():
    metrics = [{"name": "requests_per_s", "better": "higher"}]
    row = verdict(PARENT, [p + 0.2 for p in PARENT[:9]] + [PARENT[9]], metrics)
    assert row["won"] == 9 and row["passes"]
    assert verdict(PARENT, PARENT)["won"] == 0
