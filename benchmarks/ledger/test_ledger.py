"""Smoke test of the ledger: schema, names, percentile helper, counts.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger``; it is
outside the tier-1 ``testpaths``.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

from stats import bag_digest, percentile, summary  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCH = json.load(_handle)
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]
SINGLE_CLIENT = [n for n in WORKLOAD_NAMES if not n.startswith("serving.")]
PIPELINES = [n for n in WORKLOAD_NAMES if n.endswith((".local", ".http"))]


def _ledger(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args],
                          stdout=subprocess.PIPE, text=True)


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two smoke runs of every workload with one seed: the first traced
    as well, the second untraced only (and timed)."""
    out = tmp_path_factory.mktemp("ledger")
    first, second = str(out / "first.json"), str(out / "second.json")
    assert _ledger("--smoke", "--trace", "--out", first).returncode == 0
    start = time.perf_counter()
    assert _ledger("--smoke", "--out", second).returncode == 0
    elapsed = time.perf_counter() - start
    with open(first) as a, open(second) as b:
        return {"first": json.load(a), "second": json.load(b),
                "paths": (first, second), "untraced_seconds": elapsed}


def test_percentile_known_inputs():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 100) == 100
    assert percentile([5.0], 95) == 5.0
    assert percentile([3, 1, 2], 50) == 2
    assert percentile([1, 2, 3, 4], 50) == 2      # nearest rank, no mean
    assert percentile([1, 2, 3, 4], 75) == 3
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 0)


def test_summary_and_digest():
    cell = summary([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (cell["value"], cell["n"]) == (3.0, 5)
    assert cell["q1"] < cell["value"] < cell["q3"]
    assert summary([7.0]) == {"value": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}
    rows = [(1, "a"), (2, "b"), (2, "b")]
    assert bag_digest(["x", "y"], rows) == bag_digest(["x", "y"], rows[::-1])
    assert bag_digest(["x", "y"], rows) == bag_digest(
        ["y", "x"], [(y, x) for x, y in rows])
    assert bag_digest(["x", "y"], rows) != bag_digest(["x", "y"], rows[:2])


def test_names_equal_benchmark_json():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from worker import LAYER_METRICS
    from workloads import WORKLOADS
    assert list(WORKLOADS) == WORKLOAD_NAMES
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    assert set(LAYER_METRICS) <= per_layer
    assert "setup_s" in {m["name"] for m in BENCH["end_to_end"]}
    assert BENCH["paths"] == ["benchmarks/ledger"]


def test_output_schema(smoke_runs):
    report = smoke_runs["first"]
    assert {"machine", "seed", "seconds", "smoke", "workloads"} \
        <= set(report)
    assert {"commit", "python", "platform", "nproc"} \
        == set(report["machine"])
    assert list(report["workloads"]) == sorted(WORKLOAD_NAMES)
    expected = {False: BENCH["end_to_end"], True: BENCH["per_layer"]}
    for name, cell in report["workloads"].items():
        assert cell["why"]
        for traced, key in ((False, "untraced"), (True, "traced")):
            run = cell[key]
            result = run["result"]
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            assert {n: m["unit"] for n, m in result["metrics"].items()} \
                == {m["name"]: m["unit"] for m in expected[traced]}
            assert run["failed_share"] == 0
            assert {"sizes", "passes", "setup", "counts", "detail"} \
                <= set(run)
        for metric in cell["untraced"]["metrics"].values():
            assert metric["value"] > 0


def test_counts_repeat_exactly(smoke_runs):
    for name in SINGLE_CLIENT:
        first = smoke_runs["first"]["workloads"][name]
        second = smoke_runs["second"]["workloads"][name]
        assert first["untraced"]["counts"], name
        assert first["untraced"]["counts"] == second["untraced"]["counts"]
        # Tracing must not change what the program did.
        assert first["untraced"]["counts"] == first["traced"]["counts"]


def test_span_coverage_and_overhead_reported(smoke_runs):
    for name in PIPELINES:
        trace = smoke_runs["first"]["workloads"][name]["traced"]["trace"]
        assert trace["span_coverage_min"] >= 0.9, name
        assert trace["trace_overhead"]["value"] > 0
        assert trace["trace_overhead"]["base"]
        assert all(op["coverage_min"] >= 0.9
                   for op in trace["ops"].values()), name
    for name in WORKLOAD_NAMES:
        trace = smoke_runs["first"]["workloads"][name]["traced"]["trace"]
        assert os.path.exists(os.path.join(HERE, trace["spans_file"]))


def test_smoke_is_quick(smoke_runs):
    assert smoke_runs["untraced_seconds"] < 30


def test_compare_flags_regressions(smoke_runs, tmp_path):
    first, second = smoke_runs["paths"]
    same = _ledger("--compare", first, first)
    assert same.returncode == 0
    assert same.stdout.count("pass_ms") == len(WORKLOAD_NAMES)
    assert "counts identical" in same.stdout

    slower = copy.deepcopy(smoke_runs["first"])
    cell = slower["workloads"]["biblio.local"]["untraced"]["metrics"]
    for key in ("value", "q1", "q3"):
        cell["pass_ms"][key] *= 2
    path = str(tmp_path / "slower.json")
    with open(path, "w") as handle:
        json.dump(slower, handle)
    worse = _ledger("--compare", first, path)
    assert worse.returncode == 1
    assert "REGRESSED" in worse.stdout

    noisy = copy.deepcopy(smoke_runs["first"])
    cell = noisy["workloads"]["biblio.local"]["untraced"]["metrics"]
    cell["pass_ms"]["q3"] = cell["pass_ms"]["value"] * 3
    with open(path, "w") as handle:
        json.dump(noisy, handle)
    unclear = _ledger("--compare", first, path)
    assert unclear.returncode == 0
    assert "unresolved" in unclear.stdout
