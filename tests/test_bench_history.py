"""BENCH_history.json, the committed record of benchmark medians."""

import json
import math
from pathlib import Path

import pytest

HISTORY = Path(__file__).resolve().parents[1] / "BENCH_history.json"
METRICS = ("pass_s", "setup_s", "peak_rss_mb", "delaunay_ratio")
ENTRIES = json.loads(HISTORY.read_text())["entries"]


def positive_or_null(value):
    if value is None:
        return True
    return type(value) in (int, float) and 0 < value < math.inf


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=lambda entry: f"{entry['parent_commit']}-{entry['workload']}"
)
def test_entry(entry):
    keys = {"commit", "parent_commit", "backfilled", "workload", "pairs", "parent",
            "change"}
    assert keys <= entry.keys()
    assert entry["commit"] is None or type(entry["commit"]) is str
    assert entry["workload"] in ("param_large", "remesh")
    assert type(entry["backfilled"]) is bool
    assert type(entry["pairs"]) is int and entry["pairs"] > 0
    for side in ("parent", "change"):
        assert set(entry[side]) == set(METRICS)
        assert all(positive_or_null(v) for v in entry[side].values()), side
        for metric, (q1, q3) in entry.get(f"{side}_quartiles", {}).items():
            assert positive_or_null(q1) and positive_or_null(q3)
            assert q1 <= entry[side][metric] <= q3, (side, metric)
    for metric, iqr in entry.get("parent_iqr", {}).items():
        assert metric in METRICS and positive_or_null(iqr)


def test_one_entry_per_change_and_workload():
    keys = [(entry["parent_commit"], entry["workload"]) for entry in ENTRIES]
    assert len(keys) == len(set(keys))
    # only the newest entries can predate their own commit
    known = [entry["commit"] is not None for entry in ENTRIES]
    assert known == sorted(known, reverse=True)
