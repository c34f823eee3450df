"""The performance ledger: one end-to-end + per-layer benchmark.

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed 42]
        [--seconds N] [--trace [0|1]] [--smoke] [--out F]
    python3 benchmarks/ledger/run.py --compare A.json B.json

Each workload runs in its own fresh interpreter (``worker.py``) with
``PYTHONHASHSEED=0``, one after another.  With ``--workload`` the last
line printed is that workload's result object, which is what the driver
reads; without it every workload in ``BENCHMARK.json`` runs (untraced,
and traced as well with ``--trace``) and one JSON file is written.
Metric names, units, directions and bounds come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
WORKER = os.path.join(HERE, "worker.py")
DEFAULT_OUT = os.path.join(HERE, "results", "latest.json")

#: The driver allows a run 180 s; leave it room to report a failure.
WORKER_TIMEOUT = 170


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_worker(workload: str, seed: int, seconds: float, trace: bool,
               smoke: bool) -> dict:
    """One workload in a fresh interpreter -> {"result", "detail"}."""
    command = [sys.executable, WORKER, "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0"]
    if smoke:
        command.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT, check=True)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("DETAIL "):
        raise RuntimeError("worker for %s printed no result" % workload)
    return {"result": json.loads(lines[-1]),
            "detail": json.loads(lines[-2][len("DETAIL "):])}


def print_run(workload: str, trace: bool, run: dict) -> None:
    result, detail = run["result"], run["detail"]
    print("== %s (%s, seed %d, %d passes) ==" % (
        workload, "traced" if trace else "untraced", detail["seed"],
        detail["trace"]["traced_passes"] if trace else detail["passes"]))
    for name, cell in detail["metrics"].items():
        spread = ""
        if "q1" in cell:
            spread = "   [q1 %.6g  q3 %.6g  n %d]" % (
                cell["q1"], cell["q3"], cell["n"])
        print("  %-28s %14.6g %-6s%s" % (name, cell["value"], cell["unit"],
                                        spread))
    # Untraced, the numbers only this kind of workload has; traced, the
    # same numbers are among the per-layer metrics above.
    for name, cell in sorted(detail["detail"].items()) if not trace else ():
        if isinstance(cell, dict) and "value" in cell:
            print("  %-28s %14.6g          [q1 %.6g  q3 %.6g  n %d]" % (
                name, cell["value"], cell["q1"], cell["q3"], cell["n"]))
        elif isinstance(cell, (int, float)):
            print("  %-28s %14.6g" % (name, cell))
    if trace:
        traced = detail["trace"]
        share = traced["layer_share_of_self_time"]
        top = sorted(share, key=share.get, reverse=True)[:3]
        print("  top layers by self time: " + ", ".join(
            "%s %.1f%%" % (layer, 100 * share[layer]) for layer in top))
    print("  attempted %d  failed %d  failed_share %.6g  correct %s" % (
        result["attempted"], result["failed"], detail["failed_share"],
        result["correct"]))


def machine() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"commit": commit, "python": platform.python_version(),
            "platform": platform.platform(), "nproc": os.cpu_count()}


def run_suite(bench: dict, names: List[str], seed: int, seconds: float,
              trace: bool, smoke: bool, out: str) -> int:
    report = {"schema": 1, "machine": machine(), "seed": seed,
              "seconds": seconds, "smoke": smoke,
              "ratios": "every ratio names its base next to it: "
                        "failed_share is failed/attempted, "
                        "layer_share_of_self_time is of the summed layer "
                        "self time, trace_overhead is traced/untraced "
                        "median pass in one process, cache_hit_rate is "
                        "hits+coalesced over reads",
              "workloads": {}}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    correct = True
    for name in names:
        cell = {"why": whys[name]}
        for traced in ([False, True] if trace else [False]):
            run = run_worker(name, seed, seconds, traced, smoke)
            print_run(name, traced, run)
            correct = correct and run["result"]["correct"]
            entry = dict(run["detail"], result=run["result"])
            cell["traced" if traced else "untraced"] = entry
        report["workloads"][name] = cell
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    print("ledger -> %s" % out)
    return 0 if correct else 1


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _spread(cell: dict) -> float:
    if "q1" not in cell or not cell["value"]:
        return 0.0
    return (cell["q3"] - cell["q1"]) / abs(cell["value"])


def compare(bench: dict, path_a: str, path_b: str) -> int:
    """One row per (metric, workload); non-zero exit on a regression.

    A pair whose spread (inter-quartile range over median, the larger of
    the two sides) exceeds the metric's bound is ``unresolved``: the runs
    cannot tell a change of that size from noise."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    regressed = False
    print("%-20s %-12s %12s %12s %8s %7s %6s  %s" % (
        "workload", "metric", "A median", "B median", "change", "spread",
        "bound", "verdict"))
    for workload in (w["name"] for w in bench["workloads"]):
        run_a = a["workloads"].get(workload, {}).get("untraced")
        run_b = b["workloads"].get(workload, {}).get("untraced")
        if run_a is None or run_b is None:
            continue
        for spec in bench["end_to_end"]:
            cell_a = run_a["metrics"][spec["name"]]
            cell_b = run_b["metrics"][spec["name"]]
            change = (cell_b["value"] - cell_a["value"]) / cell_a["value"]
            worse = change if spec["better"] == "lower" else -change
            spread = max(_spread(cell_a), _spread(cell_b))
            if worse > spec["bound"]:
                verdict = "REGRESSED"
                regressed = True
            elif spread > spec["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print("%-20s %-12s %12.6g %12.6g %+7.1f%% %6.1f%% %5.0f%%  %s"
                  "   [A q1 %.6g q3 %.6g | B q1 %.6g q3 %.6g]" % (
                      workload, spec["name"], cell_a["value"],
                      cell_b["value"], 100 * change, 100 * spread,
                      100 * spec["bound"], verdict,
                      cell_a.get("q1", cell_a["value"]),
                      cell_a.get("q3", cell_a["value"]),
                      cell_b.get("q1", cell_b["value"]),
                      cell_b.get("q3", cell_b["value"])))
        more_failed = run_b["failed_share"] > run_a["failed_share"]
        regressed = regressed or more_failed
        print("%-20s %-12s %12.6g %12.6g %s  counts %s" % (
            workload, "failed_share", run_a["failed_share"],
            run_b["failed_share"],
            "REGRESSED (bound: 0 absolute)" if more_failed else "ok",
            "identical" if run_a["counts"] == run_b["counts"]
            else "differ"))
    return 1 if regressed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload and print "
                        "its result object last (default: all of them)")
    parser.add_argument("--seed", type=int, default=42, help="feeds the "
                        "dataset build and every schedule")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed region (default: "
                        "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="record spans and report the "
                        "per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="scale 0.05, "
                        "2 passes, one set-up")
    parser.add_argument("--out", default=None, help="where the JSON file "
                        "goes (default: results/latest.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    bench = load_benchmark()
    if args.compare:
        return compare(bench, *args.compare)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("ledger: no program to measure: %s is missing"
              % os.path.join(ROOT, "src", "repro"), file=sys.stderr)
        return 2
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    if args.workload is None:
        return run_suite(bench, names, args.seed, seconds, bool(args.trace),
                         args.smoke, args.out or DEFAULT_OUT)
    if args.workload not in names:
        parser.error("unknown workload %r (have %s)"
                     % (args.workload, ", ".join(names)))
    run = run_worker(args.workload, args.seed, seconds, bool(args.trace),
                     args.smoke)
    print_run(args.workload, bool(args.trace), run)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(run, handle, indent=1, sort_keys=True)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
