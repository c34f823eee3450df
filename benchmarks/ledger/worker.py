"""Run one ledger workload in this process and print its result.

``run.py`` starts this file once per workload, in a fresh interpreter with
``PYTHONHASHSEED=0``.  The last line of standard output is the result
object the driver reads; the line before it, prefixed ``DETAIL``, carries
everything else the ledger records for the workload.

The phases of a run, in order:

1. set-up, ``SETUP_REPS`` times over (timed: ``setup_s``),
2. the timed region: whole passes until ``--seconds`` have gone by, with
   ``gc.collect()`` between passes (``pass_ms``),
3. with ``--trace 1``: further passes with the tracer installed, then one
   pass under ``tracemalloc`` (never during timing),
4. the output check, which no metric includes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import tracemalloc
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from stats import shares, summary  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import open_workload  # noqa: E402

WORK_ROOT = os.path.join(HERE, ".work")
RESULTS = os.path.join(HERE, "results")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
MIN_PASSES = 3
SMOKE_PASSES = 2

#: Per-layer metric name -> the layers whose self time it sums.
LAYER_METRICS = {
    "core_ms": ("core",),
    "parser_ms": ("sparql.parser",),
    "plan_ms": ("sparql.plan",),
    "evaluator_ms": ("sparql.evaluator",),
    "results_ms": ("sparql.results",),
    "dataframe_ms": ("dataframe",),
    "endpoint_ms": ("sparql.endpoint",),
    "client_ms": ("client",),
    "cache_ms": ("sparql.cache",),
    "wal_ms": ("storage.wal",),
    "snapshot_ms": ("storage.snapshot",),
}


def timed_passes(state, first_index: int, budget: float, min_passes: int
                 ) -> Tuple[List[float], list]:
    """Whole passes until ``budget`` seconds have gone by."""
    walls: List[float] = []
    records: list = []
    began = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - began < budget:
        gc.collect()
        wall, recs = state.run_pass(first_index + len(walls))
        walls.append(wall)
        records.extend(recs)
    return walls, records


def count_failures(records: list, expected_rows) -> int:
    failed = 0
    for op, _seconds, rows, _extra in records:
        if rows is None:
            failed += 1
        elif expected_rows is not None and op in expected_rows \
                and rows != expected_rows[op]:
            failed += 1
    return failed


def load_units(section: str) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them: the one
    place that says which metrics a run reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool
        ) -> Tuple[dict, dict]:
    """-> (the driver's result object, the ledger's detail object)."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=name + "-", dir=WORK_ROOT)
    tracer = Tracer()
    state = None
    try:
        setups: List[float] = []
        for _ in range(1 if smoke or trace else SETUP_REPS):
            if state is not None:
                gc.unfreeze()
                state.close()
                state = None
            gc.collect()
            start = time.perf_counter()
            state = open_workload(name, seed, workdir, tracer, smoke)
            setups.append(time.perf_counter() - start)
            if state.static_heap:
                # Keep what set-up built out of the collector's
                # generations: a full collection in a timed pass then
                # scans what the pass allocated, not the dataset, and the
                # pass's time no longer depends on where the collector's
                # thresholds trip.
                gc.collect()
                gc.freeze()

        min_passes = SMOKE_PASSES if smoke else MIN_PASSES
        budget = 0.0 if smoke else seconds
        # The untraced passes of a traced run are the base of its overhead.
        walls, records = timed_passes(
            state, 0, budget / 3 if trace else budget, min_passes)
        detail = {
            "workload": name, "seed": seed, "smoke": smoke,
            "sizes": state.sizes(), "passes": len(walls),
            "setup": {"build_s": state.build_s,
                      "warmup_s": state.warmup_s},
            "detail": state.detail(records),
            "ops_per_s": len(records) / sum(walls),
        }
        # name -> value, and for timings also quartiles and sample count.
        cells: Dict[str, dict] = {}
        if trace:
            values = traced_values(state, tracer, name, walls,
                                   2 * budget / 3, min_passes, detail)
            cells = {key: {"value": value} for key, value in values.items()}
        else:
            cells["pass_ms"] = summary([w * 1000.0 for w in walls])
            cells["setup_s"] = summary(setups)
            cells["peak_rss_mb"] = {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}

        check = state.verify()
        attempted = len(records) + check["attempted"]
        failed = count_failures(records, check["expected_rows"]) \
            + check["failed"]
        detail["counts"] = check["counts"]
        detail["failed_share"] = failed / attempted
        if trace:
            cells["failed_share"] = {"value": failed / attempted}
            per_op = check["counts"].values()
            rows = sum(c.get("rows", 0) for c in per_op)
            for field in ("pattern_matches", "intermediate_rows"):
                total = sum(c.get(field, 0) for c in per_op)
                cells[field + "_per_row"] = {
                    "value": total / rows if rows else 0.0}

        units = load_units("per_layer" if trace else "end_to_end")
        detail["metrics"] = {key: dict(cells[key], unit=unit)
                             for key, unit in units.items()}
        result = {
            "correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": cells[key]["value"], "unit": unit}
                        for key, unit in units.items()},
        }
        return result, detail
    finally:
        tracer.uninstall()
        if state is not None:
            state.close()
        shutil.rmtree(workdir, ignore_errors=True)


def traced_values(state, tracer: Tracer, name: str, plain_walls,
                  budget: float, min_passes: int, detail: dict
                  ) -> Dict[str, float]:
    """Traced passes, the memory pass, and the per-layer metrics taken
    from them.  The workload's own numbers (``detail["detail"]``) come
    from the untraced passes that ran before."""
    tracer.install()
    try:
        walls, _records = timed_passes(state, len(plain_walls), budget,
                                       min_passes)
    finally:
        tracer.uninstall()
    passes = len(walls)

    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        state.run_pass(len(plain_walls) + passes)
        peak_alloc_mb = (tracemalloc.get_traced_memory()[1] - baseline) \
            / 2.0 ** 20
    finally:
        tracemalloc.stop()

    layer_ms = {layer: value / passes
                for layer, value in tracer.layer_self_ms().items()}
    ops = tracer.op_breakdown()
    overhead = summary(walls)["value"] / summary(plain_walls)["value"]
    coverage = min((cell["coverage_min"] for cell in ops.values()),
                   default=0.0)
    counts = {key: value / passes for key, value in tracer.counts.items()}
    own = detail["detail"]

    out = {key: sum(layer_ms[layer] for layer in layers)
           for key, layers in LAYER_METRICS.items()}
    out.update(
        build_s=state.build_s,
        warmup_ms=state.warmup_s * 1000.0,
        plan_cold_per_pass=counts.get("Engine.plan.cold", 0.0),
        pages_per_pass=counts.get("endpoint.pages", 0.0),
        payload_kb_per_pass=counts.get("endpoint.payload_bytes", 0.0)
        / 1024.0,
        ops_per_s=detail["ops_per_s"],
        peak_alloc_mb=peak_alloc_mb,
        trace_overhead=overhead,
        span_coverage=coverage)
    # What only one kind of workload has is 0 on the others.
    for key in ("queue_wait_ms", "cache_hit_rate", "read_p50_ms",
                "read_p95_ms", "write_p50_ms", "wal_bytes_per_triple",
                "snapshot_bytes_per_triple"):
        out[key] = own.get(key, 0.0)
    for key in ("wal_append_per_s", "checkpoint_s", "reopen_s"):
        out[key] = own[key]["value"] if key in own else 0.0

    os.makedirs(RESULTS, exist_ok=True)
    spans_path = os.path.join(RESULTS, "spans-%s.json" % name)
    with open(spans_path, "w") as handle:
        json.dump(tracer.dump(), handle)
    detail["trace"] = {
        "traced_passes": passes,
        "untraced_passes": len(plain_walls),
        "layer_self_ms_per_pass": layer_ms,
        "layer_share_of_self_time": shares(layer_ms),
        "ops": ops,
        "counts_per_pass": counts,
        "trace_overhead": {
            "value": overhead,
            "base": "median untraced pass in the same process",
            "traced_pass_ms": summary([w * 1000.0 for w in walls]),
            "untraced_pass_ms": summary([w * 1000.0 for w in plain_walls])},
        "span_coverage_min": coverage,
        "spans_file": os.path.relpath(spans_path, HERE),
        "spans": len(tracer.spans),
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    result, detail = run(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.smoke)
    print("DETAIL " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
