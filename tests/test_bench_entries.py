"""Every committed ``BENCH_<date>_<sha>.json`` at the repository root parses
and records what a benchmark entry must: parent and change medians with
quartiles of each end-to-end metric on every workload, traced per-layer
numbers, the environment and the ``src/`` line count."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENTRIES = sorted(ROOT.glob("BENCH_*.json"))
NAME = re.compile(r"BENCH_(\d{4}-\d{2}-\d{2})_([0-9a-f]{7,40})\.json")
WORKLOADS = ("ref-report", "random-extend", "oracle-compare")
END_TO_END = ("solve_s", "cpu_s", "setup_s", "peak_rss_mb")
TRACED = ("linalg.min_eigenpair.self_s", "linalg.cholesky.calls", "sphere.nodes")
SIDES = ("parent", "change")


def test_at_least_one_entry():
    assert ENTRIES


@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.name)
def test_entry_keys(path):
    match = NAME.fullmatch(path.name)
    assert match, path.name
    entry = json.loads(path.read_text(encoding="utf-8"))
    assert entry["date"] == match.group(1)
    assert entry["parent_sha"].startswith(match.group(2))
    assert isinstance(entry["change"], str) and entry["change"]
    for key in ("python", "numpy", "nproc"):
        assert entry["environment"][key]
    for side in SIDES:
        assert isinstance(entry["src_lines"][side], int)
    for name in WORKLOADS:
        workload = entry["workloads"][name]
        assert workload["pairs"] == len(workload["seeds"]) >= 1
        for metric in END_TO_END:
            for side in SIDES:
                stats = workload["end_to_end"][metric][side]
                assert stats["q1"] <= stats["median"] <= stats["q3"]
        for side in SIDES:
            for counter in TRACED:
                assert isinstance(workload["traced"][side][counter], (int, float))
