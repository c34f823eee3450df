"""Engine micro-benchmark runner — the repo's perf trajectory anchor.

Times a fixed, BGP-heavy query set at two dataset scales against both data
planes of the engine:

* ``columnar``  — the production dictionary-encoded columnar evaluator,
* ``reference`` — the seed dict-of-terms evaluator
  (:class:`~repro.sparql.ReferenceEvaluator`), frozen as the baseline.

For every (scale, query) cell it records best-of-N wall time plus the
:class:`~repro.sparql.EvaluationStats` counters, verifies that both planes
return the identical decoded result bag, and writes everything to
``BENCH_engine.json`` so future PRs have a comparable perf trajectory.

The ``serving`` and ``serving_cache`` sections drive the concurrent
serving tier and its result cache (see ``load_generator.py``).

The ``durability`` section benchmarks the restart story of the storage
tier: it writes a synthetic N-Triples dump (1M triples; 100k under
``--smoke``), times rebuilding a graph by re-parsing the dump versus
checkpointing it into a :class:`~repro.storage.GraphStore` snapshot and
reopening the store from disk, verifies the recovered graph is
identical, and asserts the reopen path is >= 10x faster at full scale —
with the deferred index materialization costs (first query, full warm)
reported separately so the laziness cannot hide work.

Run it from the repo root::

    PYTHONPATH=src python benchmarks/perf_report.py [--out BENCH_engine.json]

Scales default to (0.05, REPRO_BENCH_SCALE); rounds to 3.  ``--smoke``
shrinks everything for CI (one tiny scale, one round); ``--section``
(repeatable) restricts the run to named sections — e.g. ``--section
engine --section durability`` — so CI jobs can stay inside their time
budget.  No section flips an engine switch: there is none; every engine
here runs the planner's plans as they are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

from repro.data import DBPEDIA_URI, build_dataset
from repro.sparql import Engine

_PREFIXES = """
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX dbpo: <http://dbpedia.org/ontology/>
PREFIX dcterms: <http://purl.org/dc/terms/>
"""

#: The fixed query set.  Mostly BGP-heavy shapes (the paper's hot path);
#: the tail covers OPTIONAL, aggregation, and DISTINCT so regressions in
#: the non-join operators are visible too.
QUERIES = {
    "bgp2_film_actor": """
        SELECT ?film ?actor WHERE {
            ?film rdf:type dbpo:Film .
            ?film dbpp:starring ?actor .
        }""",
    "bgp3_actor_place": """
        SELECT ?film ?actor ?place WHERE {
            ?film rdf:type dbpo:Film .
            ?film dbpp:starring ?actor .
            ?actor dbpp:birthPlace ?place .
        }""",
    "bgp4_film_star": """
        SELECT ?film ?actor ?studio ?country WHERE {
            ?film rdf:type dbpo:Film .
            ?film dbpp:starring ?actor .
            ?film dbpp:studio ?studio .
            ?film dbpp:country ?country .
        }""",
    "bgp4_player_team": """
        SELECT ?player ?team ?sponsor ?nat WHERE {
            ?player rdf:type dbpo:BasketballPlayer .
            ?player dbpp:team ?team .
            ?team dbpo:sponsor ?sponsor .
            ?player dbpp:nationality ?nat .
        }""",
    "bgp_self_join_costar": """
        SELECT ?a ?b WHERE {
            ?film dbpp:starring ?a .
            ?film dbpp:starring ?b .
        }""",
    "optional_birthdate": """
        SELECT ?actor ?place ?date WHERE {
            ?film dbpp:starring ?actor .
            ?actor dbpp:birthPlace ?place
            OPTIONAL { ?actor dbpo:birthDate ?date }
        }""",
    "group_count_films": """
        SELECT ?actor (COUNT(?film) AS ?n) WHERE {
            ?film dbpp:starring ?actor .
        } GROUP BY ?actor""",
    "distinct_actors": """
        SELECT DISTINCT ?actor WHERE {
            ?film dbpp:starring ?actor .
        }""",
}

MODES = ("reference", "columnar")

def _geomean(values):
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def _result_key(result):
    """Order-insensitive fingerprint of the decoded rows."""
    return sorted(tuple(map(repr, row)) for row in result.rows)


def time_query(engine: Engine, query: str, rounds: int):
    """Best-of-``rounds`` wall time; returns (seconds, result, stats)."""
    best = None
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = engine.query(query, default_graph_uri=DBPEDIA_URI)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result, engine.last_stats


def run_durability(triple_count: int) -> dict:
    """Benchmark the restart story: reopen-from-snapshot vs re-parse.

    Writes ``triple_count`` synthetic triples to an N-Triples file,
    times (a) the cold rebuild — streaming the dump back through the
    parser into a fresh graph — and (b) checkpointing the loaded graph
    into a :class:`~repro.storage.GraphStore` snapshot and reopening the
    store from disk.  The reopen path decodes and checksum-validates
    packed id columns instead of re-lexing text, and defers nested-index
    materialization until a query touches each ordering — so three
    numbers are reported: ``reopen_seconds`` (open + validate),
    ``first_query_seconds`` (the spot-check count, which pays for the
    one index it needs), and ``warm_seconds`` (materializing the
    remaining orderings).  The headline ``reopen_speedup`` — reopen vs
    rebuild — must be an order of magnitude, and the first-answer and
    full-warm costs are recorded alongside so nothing hides in lazy
    initialization.  The recovered graph is verified to be the same
    size and to answer the spot-check count identically.
    """
    import shutil
    import tempfile

    from repro.rdf.dictionary import TermDictionary
    from repro.rdf.graph import Graph
    from repro.rdf.ntriples import parse_into_graph
    from repro.rdf.terms import URIRef
    from repro.storage import GraphStore

    print("== durability (%d triples) ==" % triple_count)
    work = tempfile.mkdtemp(prefix="repro-durability-")
    try:
        # Degree-10 subjects over shared object/literal pools: term reuse
        # like a real graph, and (s, p, o) collisions impossible because
        # the 10 object picks of one subject are 10 *consecutive* pool
        # slots (the pool is far larger than 10).
        dump = os.path.join(work, "synthetic.nt")
        subjects = max(1, triple_count // 10)
        uri_pool = max(11, triple_count // 20)
        lit_pool = max(11, triple_count // 25)
        start = time.perf_counter()
        with open(dump, "w", encoding="utf-8") as handle:
            for s in range(subjects):
                base = s * 10
                for j in range(10):
                    if j == 7:
                        handle.write(
                            '<http://synth/s%d> <http://synth/p%d> '
                            '"payload value %d" .\n'
                            % (s, j % 8, (base + j) % lit_pool))
                    else:
                        handle.write(
                            "<http://synth/s%d> <http://synth/p%d> "
                            "<http://synth/o%d> .\n"
                            % (s, j % 8, (base + j) % uri_pool))
        generate_seconds = time.perf_counter() - start

        graph = Graph("http://synth/g", dictionary=TermDictionary())
        start = time.perf_counter()
        loaded = parse_into_graph(dump, graph)
        rebuild_seconds = time.perf_counter() - start
        if loaded != subjects * 10:
            raise AssertionError("generator produced duplicate triples "
                                 "(%d loaded)" % loaded)
        print("  rebuild from N-Triples: %d triples in %.3fs"
              % (loaded, rebuild_seconds))

        home = os.path.join(work, "store")
        store = GraphStore(home)
        store.open()
        store.attach(graph)
        start = time.perf_counter()
        store.checkpoint()
        checkpoint_seconds = time.perf_counter() - start
        store.close()
        snapshot_bytes = sum(
            os.path.getsize(os.path.join(home, name))
            for name in os.listdir(home))

        start = time.perf_counter()
        store2 = GraphStore(home)
        store2.open()
        reopen_seconds = time.perf_counter() - start
        recovered = store2.graph("http://synth/g")
        if len(recovered) != len(graph):
            raise AssertionError(
                "recovered %d triples, expected %d"
                % (len(recovered), len(graph)))
        probe = URIRef("http://synth/p0")
        start = time.perf_counter()
        probe_count = recovered.count(None, probe, None)
        first_query_seconds = time.perf_counter() - start
        if probe_count != graph.count(None, probe, None):
            raise AssertionError("recovered graph answers differently")
        start = time.perf_counter()
        recovered.spo_index()                  # materialize SPO
        recovered.predicates_for(0, 0)         # materialize OSP
        warm_seconds = time.perf_counter() - start
        store2.close()

        serve_seconds = reopen_seconds + first_query_seconds
        speedup = (rebuild_seconds / reopen_seconds
                   if reopen_seconds > 0 else float("inf"))
        first_answer_speedup = (rebuild_seconds / serve_seconds
                                if serve_seconds > 0 else float("inf"))
        print("  checkpoint %.3fs (%.1f MB)  reopen %.3fs  "
              "first query %.3fs  warm rest %.3fs"
              % (checkpoint_seconds, snapshot_bytes / 1e6,
                 reopen_seconds, first_query_seconds, warm_seconds))
        print("  reopen speedup %.1fx over rebuild "
              "(%.1fx to first answer)"
              % (speedup, first_answer_speedup))
        if triple_count >= 1_000_000 and speedup < 10:
            raise AssertionError(
                "reopen-from-snapshot speedup %.1fx is below the 10x "
                "durability target" % speedup)
        return {
            "triples": loaded,
            "generate_seconds": generate_seconds,
            "rebuild_seconds": rebuild_seconds,
            "checkpoint_seconds": checkpoint_seconds,
            "reopen_seconds": reopen_seconds,
            "first_query_seconds": first_query_seconds,
            "warm_seconds": warm_seconds,
            "reopen_speedup": speedup,
            "first_answer_speedup": first_answer_speedup,
            "snapshot_bytes": snapshot_bytes,
            "identical_after_reopen": True,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


#: Every section the report can produce, in run order.
SECTIONS = ("engine", "serving", "serving_cache", "durability")


def write_summary(report, out_path: str) -> str:
    """Distill ``report`` into a compact ``BENCH_summary.json``.

    One headline number (or a small dict of them) per section, written
    next to ``out_path``.  If a summary file already exists there its
    sections are preserved and the new ones merged in, so CI runs that
    split sections across invocations accumulate into a single file.
    """
    summary_path = os.path.join(os.path.dirname(os.path.abspath(out_path)),
                                "BENCH_summary.json")
    sections = {}
    if os.path.exists(summary_path):
        try:
            with open(summary_path) as handle:
                sections = json.load(handle).get("sections", {})
        except (OSError, ValueError):
            sections = {}
    if report.get("summary"):
        sections["engine"] = {
            "geomean_speedup": report["summary"]["geomean_speedup"]}
    if "serving" in report:
        server = report["serving"]["server"]
        sections["serving"] = {
            "latency_p50_ms": server["latency_p50_ms"],
            "latency_p95_ms": server["latency_p95_ms"],
            "latency_p99_ms": server["latency_p99_ms"],
        }
    if "serving_cache" in report:
        zipfian = report["serving_cache"]["zipfian"]
        sections["serving_cache"] = {
            "hit_rate": zipfian["hit_rate"],
            "hit_p50_ms": zipfian["hit_p50_ms"],
            "miss_p50_ms": zipfian["miss_p50_ms"],
            "speedup_p50": zipfian["speedup_p50"],
        }
    if "durability" in report:
        durability = report["durability"]
        sections["durability"] = {
            "triples": durability["triples"],
            "rebuild_seconds": durability["rebuild_seconds"],
            "reopen_seconds": durability["reopen_seconds"],
            "first_query_seconds": durability["first_query_seconds"],
            "warm_seconds": durability["warm_seconds"],
            "reopen_speedup": durability["reopen_speedup"],
            "first_answer_speedup": durability["first_answer_speedup"],
        }
    with open(summary_path, "w") as handle:
        json.dump({"schema": "repro-bench-summary/1",
                   "updated_unix": time.time(),
                   "sections": sections}, handle, indent=2)
    print("summary -> %s" % summary_path)
    return summary_path


def run(scales, rounds: int, out_path: str, sections=None,
        serving_requests: int = 120,
        durability_triples: int = 1_000_000) -> dict:
    chosen = list(SECTIONS) if not sections else [s for s in SECTIONS
                                                 if s in sections]
    report = {
        "schema": "repro-bench-engine/1",
        "created_unix": time.time(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "rounds": rounds,
        "scales": list(scales),
        "sections": chosen,
        "queries": sorted(QUERIES),
        "results": [],
        "summary": {},
    }
    if "engine" in chosen:
        speedups = []
        for scale in scales:
            print("== scale %.3g ==" % scale)
            dataset = build_dataset(scale=scale)
            engines = {
                "reference": Engine(dataset, columnar=False),
                "columnar": Engine(dataset, columnar=True),
            }
            for name in sorted(QUERIES):
                query = _PREFIXES + QUERIES[name]
                cell = {"query": name, "scale": scale, "modes": {}}
                keys = {}
                for mode in MODES:
                    seconds, result, stats = time_query(engines[mode], query,
                                                        rounds)
                    keys[mode] = _result_key(result)
                    cell["modes"][mode] = {
                        "seconds": seconds,
                        "rows": len(result),
                        "stats": stats.as_dict(),
                    }
                if keys["columnar"] != keys["reference"]:
                    raise AssertionError(
                        "result mismatch between columnar and reference "
                        "engines on %r at scale %s" % (name, scale))
                cell["identical_results"] = True
                ref_s = cell["modes"]["reference"]["seconds"]
                col_s = cell["modes"]["columnar"]["seconds"]
                cell["speedup"] = ref_s / col_s if col_s > 0 else float("inf")
                speedups.append(cell["speedup"])
                report["results"].append(cell)
                print("  %-22s ref %8.4fs  columnar %8.4fs  speedup %5.2fx  "
                      "(%d rows)" % (name, ref_s, col_s, cell["speedup"],
                                     cell["modes"]["columnar"]["rows"]))
        geomean = _geomean(speedups)
        report["summary"] = {
            "geomean_speedup": geomean,
            "min_speedup": min(speedups),
            "max_speedup": max(speedups),
            "all_results_identical": True,
        }
        print("geomean speedup %.2fx (min %.2fx, max %.2fx)"
              % (geomean, min(speedups), max(speedups)))
    if "serving" in chosen:
        # The load generator lives next to this script; make it importable
        # however the script was invoked.
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from load_generator import run_serving
        report["serving"] = run_serving(scales[-1],
                                        total_requests=serving_requests)
    if "serving_cache" in chosen:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from load_generator import run_serving_cache
        report["serving_cache"] = run_serving_cache(
            scales[-1], total_requests=max(serving_requests, 64))
    if "durability" in chosen:
        report["durability"] = run_durability(durability_triples)
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
    write_summary(report, out_path)
    print("sections %s -> %s" % (", ".join(chosen), out_path))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_engine.json",
                        help="output JSON path (default: ./BENCH_engine.json)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per query (best-of)")
    parser.add_argument("--scales", type=float, nargs="+",
                        default=[0.05,
                                 float(os.environ.get("REPRO_BENCH_SCALE",
                                                      "0.2"))],
                        help="dataset scales to benchmark")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI configuration: one small scale, one "
                             "round, fewer requests and triples")
    parser.add_argument("--section", action="append", choices=SECTIONS,
                        dest="sections", metavar="NAME",
                        help="run only the named section(s); repeatable "
                             "(default: all of %s)" % (", ".join(SECTIONS)))
    args = parser.parse_args(argv)
    if args.smoke:
        args.scales = [0.02]
        args.rounds = 1
        run(args.scales, args.rounds, args.out, sections=args.sections,
            serving_requests=40, durability_triples=100_000)
    else:
        run(args.scales, args.rounds, args.out, sections=args.sections)
    return 0


if __name__ == "__main__":
    sys.exit(main())
