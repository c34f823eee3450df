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

A second section, ``plan_path``, times the paper's case-study pipelines on
both front-end paths of the planner layer — the SPARQL-text round trip
(generate -> translate -> parse -> plan -> execute) versus the direct
model path (generate -> compile -> plan-cache hit -> execute) — verifying
identical results and recording the repeated-execution speedup.

A third section, ``limit_topk``, measures bounded sorts:
``ORDER BY ... LIMIT 10`` windows over the big BGPs, run on the pushed
plan (LimitPushdown + TopK) versus the unpushed plan
(``Engine(limit_pushdown=False)``).  It records the speedup and
``rows_pulled``, and asserts the two plans return literally identical
rows.

A fourth section, ``joins``, measures the join subsystem on the dedicated
join corpus (:mod:`repro.workload.joins`: star, cyclic, chain, self-join,
and semi-join shapes): ``Engine()`` with sideways information passing and
multiway intersection in their default ``'auto'`` routing versus
``Engine(sip=False, multiway=False)`` — the engine exactly as it stood
before the join subsystem landed.  Plans are built once per engine and
the *execution* is timed (the planner annotations are amortized by the
plan cache in both configurations), results are verified identical across
both configurations *and* the reference plane, and the
``sip_filtered_rows``/``intersect_steps``/``sorted_runs_built`` counters
are asserted wherever the planner chose the corresponding strategy.

A fifth section, ``wcoj``, measures the generic-join (worst-case-optimal)
executor on the cyclic corpus shapes (triangle, 4-cycle, diamond,
5-clique): ``Engine()`` with the cost-based planner routing cyclic BGPs
through per-variable sorted-run intersection versus the joins-section
baseline ``Engine(sip=False, multiway=False)`` (nested loops) — with the
intersect-plane ``Engine(wcoj=False)`` recorded as a secondary column.
Row bags are verified identical across the wcoj, intersect, baseline,
and reference planes, ``wcoj_steps > 0`` is asserted on every cyclic
plan, and an aggregate-pushdown cell proves a grouped COUNT over the
triangle folds inside the join (``accumulator_rows == 0``).

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
engine --section joins`` — so CI jobs can stay inside their time budget.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

from repro.client import EngineClient
from repro.data import DBPEDIA_URI, build_dataset
from repro.sparql import Engine, Evaluator
from repro.workload import CASE_STUDIES, JOIN_QUERIES

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

#: Bounded sorts over the big BGPs: the fused ``TopK`` (threshold-pruned
#: when the sort variable binds before the join fan-out).
LIMIT_TOPK_QUERIES = {
    "topk10_costar_actor": """
        SELECT ?a ?b WHERE {
            ?film dbpp:starring ?a .
            ?film dbpp:starring ?b .
        } ORDER BY ?a LIMIT 10""",
    "topk10_costar_actor_desc": """
        SELECT ?a ?b WHERE {
            ?film dbpp:starring ?a .
            ?film dbpp:starring ?b .
        } ORDER BY DESC(?a) LIMIT 10""",
    "topk10_costar_country": """
        SELECT ?a ?b ?c WHERE {
            ?film dbpp:starring ?a .
            ?film dbpp:starring ?b .
            ?film dbpp:country ?c .
        } ORDER BY ?a LIMIT 10""",
}


def run_limit_topk(scale: float, rounds: int) -> dict:
    """Time ``ORDER BY ... LIMIT`` windows: the pushed plan vs the
    unpushed baseline.

    The baseline engine disables LimitPushdown — a full sort under the
    slice — while the pushed engine is the default configuration.  Both
    must return literally identical rows (same order: both drive the
    same compiled BGP steps).
    """
    dataset = build_dataset(scale=scale)
    streaming = Engine(dataset)
    baseline = Engine(dataset, limit_pushdown=False)
    section = {"scale": scale, "rounds": rounds, "queries": []}
    print("== top-k windows (scale %.3g) ==" % scale)
    speedups = []
    for name in sorted(LIMIT_TOPK_QUERIES):
        query = _PREFIXES + LIMIT_TOPK_QUERIES[name]
        stream_s, stream_result, stream_stats = time_query(
            streaming, query, rounds)
        base_s, base_result, _ = time_query(baseline, query, rounds)
        if stream_result.rows != base_result.rows:
            raise AssertionError(
                "pushed and unpushed plans disagree on %r "
                "at scale %s" % (name, scale))
        cell = {
            "query": name,
            "kind": "topk",
            "rows": len(stream_result),
            "identical_results": True,
            "streaming_seconds": stream_s,
            "materialized_seconds": base_s,
            "speedup": base_s / stream_s if stream_s > 0 else float("inf"),
            "rows_pulled": stream_stats.rows_pulled,
            "early_exits": stream_stats.early_exits,
        }
        speedups.append(cell["speedup"])
        section["queries"].append(cell)
        print("  %-26s sorted %8.4fs  topk %8.4fs  speedup %5.2fx  "
              "pulled %6d rows" % (
                  name, base_s, stream_s, cell["speedup"],
                  cell["rows_pulled"]))
    section["topk_geomean_speedup"] = _geomean(speedups)
    section["all_results_identical"] = True
    print("top-k geomean speedup %.2fx" % section["topk_geomean_speedup"])
    return section


def run_joins(scale: float, rounds: int) -> dict:
    """Time the join corpus: SIP + multiway intersection vs the PR-4 engine.

    Both engines are the default columnar engine; they differ only
    in the join-subsystem knobs.  Plans are built once per engine (their
    annotations are identical — the knobs act at execution time) and
    ``execute_plan`` is what the clock covers.  Every query must return
    the identical row bag on the optimized engine, the baseline engine,
    and the dict-based reference plane; queries whose planner-chosen
    strategy is SIP must prove ``sip_filtered_rows > 0`` and multiway
    ones ``intersect_steps > 0``.
    """
    dataset = build_dataset(scale=scale)
    optimized = Engine(dataset)
    baseline = Engine(dataset, sip=False, multiway=False)
    reference = Engine(dataset, columnar=False)
    graph = dataset.graph(DBPEDIA_URI)
    runs_before = graph.sorted_runs_built
    section = {"scale": scale, "rounds": rounds, "queries": []}
    print("== joins (scale %.3g) ==" % scale)
    speedups = []
    for query in JOIN_QUERIES:
        opt_plan = optimized.plan(query.sparql, DBPEDIA_URI)
        base_plan = baseline.plan(query.sparql, DBPEDIA_URI)

        def best_of(engine, plan):
            best = None
            result = None
            for _ in range(rounds):
                start = time.perf_counter()
                result = engine.execute_plan(plan, DBPEDIA_URI)
                elapsed = time.perf_counter() - start
                if best is None or elapsed < best:
                    best = elapsed
            return best, result, engine.last_stats

        opt_s, opt_result, opt_stats = best_of(optimized, opt_plan)
        base_s, base_result, base_stats = best_of(baseline, base_plan)
        ref_result = reference.query(query.sparql,
                                     default_graph_uri=DBPEDIA_URI)
        opt_key = _result_key(opt_result)
        if opt_key != _result_key(base_result) \
                or opt_key != _result_key(ref_result):
            raise AssertionError(
                "join corpus query %r disagrees across engines at scale %s"
                % (query.key, scale))
        cell = {
            "query": query.key,
            "shape": query.shape,
            "expect": query.expect,
            "rows": len(opt_result),
            "identical_results": True,
            "optimized_seconds": opt_s,
            "baseline_seconds": base_s,
            "speedup": base_s / opt_s if opt_s > 0 else float("inf"),
            "sip_filtered_rows": opt_stats.sip_filtered_rows,
            "intersect_steps": opt_stats.intersect_steps,
            "wcoj_steps": opt_stats.wcoj_steps,
            "baseline_intermediate_rows": base_stats.intermediate_rows,
            "optimized_intermediate_rows": opt_stats.intermediate_rows,
        }
        if query.expect == "sip" and cell["sip_filtered_rows"] == 0:
            raise AssertionError(
                "planner chose SIP for %r but no rows were filtered"
                % query.key)
        if query.expect == "multiway" and cell["intersect_steps"] == 0:
            raise AssertionError(
                "planner chose multiway for %r but no intersections ran"
                % query.key)
        if query.expect == "wcoj" and cell["wcoj_steps"] == 0:
            raise AssertionError(
                "planner chose generic join for %r but no wcoj steps ran"
                % query.key)
        speedups.append(cell["speedup"])
        section["queries"].append(cell)
        print("  %-30s base %8.4fs  opt %8.4fs  speedup %5.2fx  "
              "sip %6d  isect %6d  (%s, %d rows)" % (
                  query.key, base_s, opt_s, cell["speedup"],
                  cell["sip_filtered_rows"], cell["intersect_steps"],
                  query.expect, cell["rows"]))
    section["sorted_runs_built"] = graph.sorted_runs_built - runs_before
    if section["sorted_runs_built"] <= 0:
        raise AssertionError("join corpus built no sorted runs")
    section["geomean_speedup"] = _geomean(speedups)
    section["min_speedup"] = min(speedups)
    section["all_results_identical"] = True
    print("joins geomean speedup %.2fx (min %.2fx, %d sorted runs built)"
          % (section["geomean_speedup"], section["min_speedup"],
             section["sorted_runs_built"]))
    return section


def run_wcoj(scale: float, rounds: int) -> dict:
    """Time the generic-join executor on the cyclic corpus shapes.

    Three configurations over the four canonical cyclic shapes —
    triangle, 4-cycle, diamond, and 5-clique over the heavy-tailed
    collaborator graph (the costar cyclic queries stay in the ``joins``
    section; their tiny fan-outs make them parity pins, not win cases):

    * ``wcoj``      — ``Engine()``: the cost-based planner routes cyclic
      BGPs through the generic-join executor,
    * ``intersect`` — ``Engine(wcoj=False)``: the PR-5 plans (per-step
      multiway intersection where worthwhile), recorded as a secondary
      column,
    * ``baseline``  — ``Engine(sip=False, multiway=False)``: the
      joins-section baseline (pure nested loops), which the headline
      speedup is measured against.

    Plans are built once per engine and ``execute_plan`` is timed.  Row
    bags must be identical across the wcoj engine, the intersect plane,
    the baseline, and the dict-based reference; every cyclic plan must
    prove ``wcoj_steps > 0``.  A final ``aggregate_pushdown`` cell runs a
    grouped COUNT over the triangle and asserts the fold happened inside
    the join
    (``accumulator_rows == 0``) while still matching the baseline's rows.
    """
    dataset = build_dataset(scale=scale)
    wcoj_on = Engine(dataset)
    intersect = Engine(dataset, wcoj=False)
    baseline = Engine(dataset, sip=False, multiway=False)
    reference = Engine(dataset, columnar=False)
    section = {"scale": scale, "rounds": rounds, "queries": []}
    print("== wcoj (scale %.3g) ==" % scale)
    speedups = []
    shapes = ("triangle_collaborators", "cycle4_collaborators",
              "diamond_collaborators", "clique5_collaborators")
    for query in [q for q in JOIN_QUERIES if q.key in shapes]:

        def best_of(engine):
            plan = engine.plan(query.sparql, DBPEDIA_URI)
            best = None
            result = None
            for _ in range(rounds):
                start = time.perf_counter()
                result = engine.execute_plan(plan, DBPEDIA_URI)
                elapsed = time.perf_counter() - start
                if best is None or elapsed < best:
                    best = elapsed
            return best, result, engine.last_stats

        on_s, on_result, on_stats = best_of(wcoj_on)
        int_s, int_result, _ = best_of(intersect)
        base_s, base_result, _ = best_of(baseline)
        on_key = _result_key(on_result)
        planes = {
            "intersect": int_result,
            "baseline": base_result,
            "reference": reference.query(query.sparql,
                                         default_graph_uri=DBPEDIA_URI),
        }
        for plane, result in planes.items():
            if _result_key(result) != on_key:
                raise AssertionError(
                    "wcoj corpus query %r disagrees with the %s plane "
                    "at scale %s" % (query.key, plane, scale))
        if on_stats.wcoj_steps == 0:
            raise AssertionError(
                "cyclic corpus query %r ran no generic-join steps"
                % query.key)
        cell = {
            "query": query.key,
            "shape": query.shape,
            "rows": len(on_result),
            "identical_results": True,
            "wcoj_seconds": on_s,
            "intersect_seconds": int_s,
            "baseline_seconds": base_s,
            "speedup": base_s / on_s if on_s > 0 else float("inf"),
            "speedup_vs_intersect": int_s / on_s if on_s > 0
            else float("inf"),
            "wcoj_steps": on_stats.wcoj_steps,
            "intersect_steps": on_stats.intersect_steps,
        }
        speedups.append(cell["speedup"])
        section["queries"].append(cell)
        print("  %-30s base %8.4fs  isect %8.4fs  wcoj %8.4fs  "
              "speedup %6.2fx  steps %6d  (%d rows)" % (
                  query.key, base_s, int_s, on_s, cell["speedup"],
                  cell["wcoj_steps"], cell["rows"]))

    count_query = _PREFIXES + """
        SELECT ?a (COUNT(*) AS ?n) WHERE {
            ?a dbpp:collaborator ?b .
            ?b dbpp:collaborator ?c .
            ?a dbpp:collaborator ?c .
        } GROUP BY ?a"""
    push_engine = Engine(dataset)
    fold_engine = Engine(dataset, wcoj=False)
    push_s, push_result, push_stats = time_query(push_engine, count_query,
                                                 rounds)
    fold_s, fold_result, fold_stats = time_query(fold_engine, count_query,
                                                 rounds)
    if _result_key(push_result) != _result_key(fold_result):
        raise AssertionError(
            "aggregate pushdown changed the grouped COUNT result")
    if push_stats.accumulator_rows != 0:
        raise AssertionError(
            "aggregate pushdown materialized %d join rows into "
            "accumulators" % push_stats.accumulator_rows)
    if push_stats.wcoj_steps == 0:
        raise AssertionError("aggregate pushdown ran no generic-join steps")
    section["aggregate_pushdown"] = {
        "query": "triangle_count_by_collaborator",
        "groups": len(push_result),
        "identical_results": True,
        "pushdown_seconds": push_s,
        "general_seconds": fold_s,
        "pushdown_accumulator_rows": push_stats.accumulator_rows,
        "general_accumulator_rows": fold_stats.accumulator_rows,
        "wcoj_steps": push_stats.wcoj_steps,
    }
    print("  aggregate pushdown: general %.4fs -> pushdown %.4fs "
          "(%d accumulator rows -> %d)"
          % (fold_s, push_s, fold_stats.accumulator_rows,
             push_stats.accumulator_rows))
    section["geomean_speedup"] = _geomean(speedups)
    section["min_speedup"] = min(speedups)
    section["all_results_identical"] = True
    print("wcoj geomean speedup %.2fx over nested-loop baseline "
          "(min %.2fx)" % (section["geomean_speedup"],
                           section["min_speedup"]))
    return section


#: The vectorized section's timing set: pure-id plans (every operator has
#: a columnar form, so ``row_fallbacks`` must be 0) over BGP-heavy shapes.
#: ``group_count_by_typed_actor`` uses a two-pattern BGP on purpose — the
#: single-pattern COUNT collapses into index-backed counting on *both*
#: planes and would measure nothing.
VECTORIZED_QUERIES = {
    "bgp2_film_actor": QUERIES["bgp2_film_actor"],
    "bgp3_actor_place": QUERIES["bgp3_actor_place"],
    "bgp4_film_star": QUERIES["bgp4_film_star"],
    "bgp4_player_team": QUERIES["bgp4_player_team"],
    "bgp_self_join_costar": QUERIES["bgp_self_join_costar"],
    "distinct_actors": QUERIES["distinct_actors"],
    "filter_country_us": """
        SELECT ?film ?actor WHERE {
            ?film dbpp:starring ?actor .
            ?film dbpp:country ?country .
            FILTER(?country = <http://dbpedia.org/resource/United_States>)
        }""",
    "group_count_by_typed_actor": """
        SELECT ?actor (COUNT(?film) AS ?n) WHERE {
            ?film rdf:type dbpo:Film .
            ?film dbpp:starring ?actor .
        } GROUP BY ?actor""",
}


def _drain(dataset, plan, vectorize: bool, rounds: int):
    """Best-of-``rounds`` wall time to pull the plan's data plane dry.

    Times batch production only — no term decode, no result-set build —
    because decode cost is identical across planes and would dilute the
    operator-level difference the section measures.  Multiway
    intersection and generic join are pinned off so both planes execute
    the *same* pipelined join steps (those strategies have no columnar
    form; the engine's ``vectorize='auto'`` routing excludes such plans,
    and the joins/wcoj sections already measure them on their own).
    Returns ``(seconds, rows, stats)`` from the fastest round.
    """
    best = None
    best_stats = None
    total = 0
    for _ in range(rounds):
        evaluator = Evaluator(dataset, optimize=False, multiway=False,
                              wcoj=False, vectorize=vectorize)
        start = time.perf_counter()
        stream = evaluator.evaluate_query_stream(plan.query, DBPEDIA_URI)
        rows = 0
        for batch in stream.batches:
            rows += len(batch)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
            best_stats = evaluator.stats
            total = rows
    return best, total, best_stats


def run_vectorized(scale: float, rounds: int) -> dict:
    """Time columnar batches against row-tuple batches.

    Both configurations drive the *same* compiled steps in the same order
    through the same operators; they differ only in the batch
    representation (``ColumnBatch`` vs lists of row tuples).  The clock
    covers the data-plane drain (see :func:`_drain`).  Every timing query
    is a pure-id plan and must report ``row_fallbacks == 0`` and a
    non-zero ``vector_batches`` on the columnar plane; the full decoded
    result bag is verified identical across the vectorized, row-batch,
    and reference planes — on this query set, the paper's
    case studies, and the join corpus.
    """
    dataset = build_dataset(scale=scale)
    planner = Engine(dataset)
    section = {"scale": scale, "rounds": rounds, "queries": []}
    print("== vectorized (scale %.3g) ==" % scale)
    speedups = []
    for name in sorted(VECTORIZED_QUERIES):
        query = _PREFIXES + VECTORIZED_QUERIES[name]
        plan = planner.plan(query, DBPEDIA_URI)
        vec_s, vec_rows, vec_stats = _drain(dataset, plan, True, rounds)
        row_s, row_rows, _ = _drain(dataset, plan, False, rounds)
        if vec_rows != row_rows:
            raise AssertionError(
                "vectorized plane produced %d rows on %r, row plane %d"
                % (vec_rows, name, row_rows))
        if vec_stats.row_fallbacks:
            raise AssertionError(
                "pure-id plan %r fell back to row view %d time(s)"
                % (name, vec_stats.row_fallbacks))
        if not vec_stats.vector_batches:
            raise AssertionError(
                "vectorized plane produced no ColumnBatch on %r" % name)
        cell = {
            "query": name,
            "rows": vec_rows,
            "identical_results": True,
            "vectorized_seconds": vec_s,
            "row_seconds": row_s,
            "speedup": row_s / vec_s if vec_s > 0 else float("inf"),
            "vector_batches": vec_stats.vector_batches,
            "selection_vector_hits": vec_stats.selection_vector_hits,
            "row_fallbacks": vec_stats.row_fallbacks,
            "rows_pulled": vec_stats.rows_pulled,
        }
        speedups.append(cell["speedup"])
        section["queries"].append(cell)
        print("  %-28s row %8.4fs  vec %8.4fs  speedup %5.2fx  "
              "vbatches %5d  selhits %3d  (%d rows)" % (
                  name, row_s, vec_s, cell["speedup"],
                  cell["vector_batches"], cell["selection_vector_hits"],
                  vec_rows))
    # Bag-identity sweep: decoded results across all three planes, over
    # this section's queries plus the case studies and the join corpus.
    engines = {
        "vectorized": Engine(dataset, vectorize=True),
        "rows": Engine(dataset, vectorize=False),
        "reference": Engine(dataset, columnar=False),
    }
    sweep = [(name, _PREFIXES + body)
             for name, body in sorted(VECTORIZED_QUERIES.items())]
    sweep += [(case.key, case.frame().to_sparql()) for case in CASE_STUDIES]
    sweep += [(q.key, q.sparql) for q in JOIN_QUERIES]
    def named_key(result):
        # ``SELECT *`` column order is plane-dependent; compare bags of
        # name->value bindings rather than positional tuples.
        return sorted(tuple(sorted((v, repr(val)) for v, val
                                   in zip(result.variables, row)))
                      for row in result.rows)

    for name, query in sweep:
        keys = {plane: named_key(engine.query(
                    query, default_graph_uri=DBPEDIA_URI))
                for plane, engine in engines.items()}
        mismatched = [p for p in keys if keys[p] != keys["reference"]]
        if mismatched:
            raise AssertionError(
                "planes %s disagree with reference on %r at scale %s"
                % (mismatched, name, scale))
    section["identity_sweep_queries"] = len(sweep)
    section["geomean_speedup"] = _geomean(speedups)
    section["min_speedup"] = min(speedups)
    section["all_results_identical"] = True
    print("vectorized geomean speedup %.2fx (min %.2fx; %d identity "
          "queries across 3 planes)"
          % (section["geomean_speedup"], section["min_speedup"],
             len(sweep)))
    return section


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


def run_plan_path(scale: float, iterations: int) -> dict:
    """Time the case studies on the text path vs the direct plan path.

    Both paths regenerate the query model per iteration (that is what a
    real RDFFrame re-execution pays); the text path additionally pays
    translate + validate + parse, the direct path compiles the model and
    then hits the plan cache.
    """
    dataset = build_dataset(scale=scale)
    engine = Engine(dataset)
    client = EngineClient(engine)
    section = {"scale": scale, "iterations": iterations, "cases": []}
    print("== plan path vs text path (scale %.3g, %d iterations) =="
          % (scale, iterations))
    for case in CASE_STUDIES:
        frame = case.frame()
        direct_df = frame.execute(client)           # warm + direct result
        text_df = client.execute(frame.to_sparql())  # warm + text result
        identical = direct_df.equals_bag(text_df)
        hits_before = engine.plan_cache_hits

        def best_of(thunk):
            best = None
            for _ in range(iterations):
                start = time.perf_counter()
                thunk()
                elapsed = time.perf_counter() - start
                if best is None or elapsed < best:
                    best = elapsed
            return best

        text_seconds = best_of(lambda: client.execute(frame.to_sparql()))
        plan_seconds = best_of(lambda: frame.execute(client))

        plan = engine.last_plan
        cell = {
            "case": case.key,
            "rows": len(direct_df),
            "identical_results": identical,
            "text_seconds": text_seconds,
            "plan_seconds": plan_seconds,
            "speedup": (text_seconds / plan_seconds
                        if plan_seconds > 0 else float("inf")),
            "plan_cache_hits": engine.plan_cache_hits - hits_before,
            "passes": [s.as_dict() for s in plan.pass_stats] if plan else [],
        }
        if not identical:
            raise AssertionError(
                "direct plan path and text path disagree on case study %r"
                % case.key)
        section["cases"].append(cell)
        print("  %-16s text %8.4fs  plan %8.4fs  speedup %5.2fx  (%d rows)"
              % (case.key, text_seconds, plan_seconds, cell["speedup"],
                 cell["rows"]))
    geomean = _geomean([c["speedup"] for c in section["cases"]])
    section["geomean_speedup"] = geomean
    section["all_results_identical"] = True
    print("plan-path geomean speedup %.2fx" % geomean)
    return section


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
SECTIONS = ("engine", "plan_path", "limit_topk", "joins", "wcoj",
            "vectorized", "serving", "serving_cache", "durability")


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
    for name in ("plan_path", "joins", "wcoj", "vectorized"):
        if name in report:
            sections[name] = {
                "geomean_speedup": report[name]["geomean_speedup"]}
    if "vectorized" in report:
        sections["vectorized"]["min_speedup"] = (
            report["vectorized"]["min_speedup"])
    if "limit_topk" in report:
        sections["limit_topk"] = {
            "topk_geomean_speedup":
                report["limit_topk"]["topk_geomean_speedup"],
        }
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


def run(scales, rounds: int, out_path: str,
        plan_iterations: int = 5, sections=None,
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
    if "plan_path" in chosen:
        report["plan_path"] = run_plan_path(scales[-1], plan_iterations)
    if "limit_topk" in chosen:
        report["limit_topk"] = run_limit_topk(scales[-1], max(rounds, 3))
    if "joins" in chosen:
        report["joins"] = run_joins(scales[-1], max(rounds, 5))
    if "wcoj" in chosen:
        report["wcoj"] = run_wcoj(scales[-1], max(rounds, 3))
    if "vectorized" in chosen:
        report["vectorized"] = run_vectorized(scales[-1], max(rounds, 3))
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
                             "round, fewer plan-path iterations")
    parser.add_argument("--section", action="append", choices=SECTIONS,
                        dest="sections", metavar="NAME",
                        help="run only the named section(s); repeatable "
                             "(default: all of %s)" % (", ".join(SECTIONS)))
    args = parser.parse_args(argv)
    if args.smoke:
        args.scales = [0.02]
        args.rounds = 1
        run(args.scales, args.rounds, args.out, plan_iterations=2,
            sections=args.sections, serving_requests=40,
            durability_triples=100_000)
    else:
        run(args.scales, args.rounds, args.out, sections=args.sections)
    return 0


if __name__ == "__main__":
    sys.exit(main())
