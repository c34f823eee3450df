"""The ledger's seven workloads.

Every workload class is opened with ``(seed, scale, workdir, tracer)``,
which is its set-up: it builds the seeded dataset, constructs the engine,
clients, endpoint, server and store it needs, and runs one untimed
warm-up pass (cold plans, synopsis builds and lazy index builds are paid
there).  After that:

* ``run_pass(index)`` runs one pass of fixed work and returns
  ``(wall_seconds, records)``; a record is ``(op, seconds, rows, extra)``
  with ``rows`` ``None`` when the op failed;
* ``verify()`` is the separate, untimed output check; it returns
  ``{"attempted", "failed", "expected_rows", "counts"}``;
* ``detail(records)`` gives the metrics only this kind of workload has;
* ``close()`` stops what set-up started and removes its files.

Sizes are fixed here, per workload, and chosen so that three set-ups, the
timed region and the output check of one run fit the driver's budget
(see README.md).  The program under test sees only the generated inputs.
"""

from __future__ import annotations

import bisect
import itertools
import os
import random
import shutil
import sys
import threading
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

from repro.client import EngineClient, HttpClient
from repro.core import InnerJoin, KnowledgeGraph, RDFFrame
from repro.data import DBLP_URI, DBPEDIA_URI, build_dataset
from repro.rdf.namespaces import DBPO, DBPP, DBPR, DC, RDF, RDFS, SWRC
from repro.rdf.terms import Literal
from repro.sparql import (Endpoint, EndpointError, Engine, QueryServer,
                          ResultCache)
from repro.storage import GraphStore, list_snapshots
from repro.workload import CASE_STUDIES, SYNTHETIC_QUERIES

from stats import frame_digest, percentile, result_digest, summary

Record = Tuple[object, float, Optional[int], Optional[tuple]]

#: One flush policy for every store the ledger opens: fsync the WAL every
#: 64 records (the store's default), plus an explicit ``flush()`` where a
#: workload says so.
SYNC_EVERY = 64

#: The EvaluationStats fields written under ``counts``.
STAT_FIELDS = ("pattern_matches", "intermediate_rows", "row_fallbacks",
               "groups_built", "wcoj_steps", "rows_pulled", "joins")

_PREFIXES = """PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX dbpo: <http://dbpedia.org/ontology/>
PREFIX dc: <http://purl.org/dc/elements/1.1/>
PREFIX dcterm: <http://purl.org/dc/terms/>
PREFIX swrc: <http://swrc.ontoware.org/ontology#>
"""

COUNT_STARRING = _PREFIXES + (
    "SELECT (COUNT(?film) AS ?n) FROM <%s> "
    "WHERE { ?film dbpp:starring ?actor }" % DBPEDIA_URI)


def _pass_seed(seed: int, index: int) -> int:
    """The seed of pass ``index``'s schedule (the warm-up pass is -1)."""
    return seed * 100003 + index + 1


def _actors(graph) -> list:
    """The actors of a DBpedia-like graph, in URI order."""
    return sorted((s for s, _, _ in graph.triples(None, RDF.type,
                                                  DBPO.Actor)), key=str)


def _film_triples(number: int, rng: random.Random, actors: list) -> list:
    """The 5 triples of one new film: type, label, 3x starring."""
    film = DBPR["LedgerFilm_%d" % number]
    return [(film, RDF.type, DBPO.Film),
            (film, RDFS.label, Literal("Ledger film %d" % number))] \
        + [(film, DBPP.starring, actor) for actor in rng.sample(actors, 3)]


def _report_failure(op) -> None:
    print("ledger: op %r failed:" % (op,), file=sys.stderr)
    traceback.print_exc(limit=4, file=sys.stderr)


# ----------------------------------------------------------------------
# Pipeline workloads: RDFFrame.execute(client) -> dataframe, 1 client
# ----------------------------------------------------------------------
def case_study_frames() -> List[Tuple[str, RDFFrame]]:
    return [(case.key, case.frame()) for case in CASE_STUDIES]


def synthetic_frames() -> List[Tuple[str, RDFFrame]]:
    return [(query.qid, query.frame()) for query in SYNTHETIC_QUERIES]


def biblio_frames() -> List[Tuple[str, RDFFrame]]:
    """Bibliometrics over the DBLP graph, after Sakr & Alomari's *A
    Decade of Database Research Publications*: counting, ranking and
    co-authorship, written with the public RDFFrames API only."""
    graph = KnowledgeGraph(graph_uri=DBLP_URI)
    papers = graph.entities("swrc:InProceedings", "paper")
    by_venue = papers.expand("paper", [("swrc:series", "venue")])
    authored = papers.expand("paper", [("dc:creator", "author")])
    left = graph.feature_domain_range("dc:creator", "paper", "author1")
    right = graph.feature_domain_range("dc:creator", "paper", "author2")
    return [
        ("papers_per_venue",
         by_venue.group_by(["venue"]).count("paper", "n_papers")),
        ("papers_per_venue_date",
         by_venue.expand("paper", [("dcterm:issued", "date")])
         .group_by(["venue", "date"]).count("paper", "n_papers")),
        ("top20_authors",
         authored.group_by(["author"]).count("paper", "n_papers")
         .sort([("n_papers", "desc"), ("author", "asc")]).head(20)),
        ("coauthor_pairs",
         left.join(right, "paper", InnerJoin)
         .group_by(["author1", "author2"]).count("paper", "n_joint")),
        ("sigmod_vldb_per_author",
         authored.expand("paper", [("swrc:series", "venue")])
         .filter({"venue": ["In(dblprc:vldb, dblprc:sigmod)"]})
         .group_by(["author"]).count("paper", "n_papers")),
    ]


class PipelineRun:
    """A closed loop of one client over a fixed list of pipelines."""

    #: What set-up builds stays for the whole run (see worker.py).
    static_heap = True

    def __init__(self, seed: int, scale: float, workdir: str, tracer,
                 frames: Callable[[], List[Tuple[str, RDFFrame]]],
                 http: bool = False, cold_plans: bool = False):
        self.tracer = tracer
        self.scale = scale
        self.cold_plans = cold_plans
        start = time.perf_counter()
        self.dataset = build_dataset(scale=scale, seed=seed,
                                     use_cache=False)
        self.build_s = time.perf_counter() - start
        self.engine = Engine(self.dataset)
        self.endpoint = Endpoint(self.engine, max_rows=10000) \
            if http else None
        self.client = HttpClient(self.endpoint) if http \
            else EngineClient(self.engine)
        self.ops = frames()
        self.warmup_s, _ = self.run_pass(-1)

    def run_pass(self, index: int) -> Tuple[float, List[Record]]:
        records: List[Record] = []
        span = self.tracer.span
        start = time.perf_counter()
        if self.cold_plans:
            self.engine.clear_plan_cache()
        for name, frame in self.ops:
            if self.endpoint is not None:
                # Every op pays the full query, as in the paper's Fig. 3-4.
                self.endpoint.clear_cache()
            began = time.perf_counter()
            try:
                with span(name, "op", op=name):
                    rows = len(frame.execute(self.client))
            except Exception:  # an op that raised is a failed op
                _report_failure(name)
                rows = None
            records.append((name, time.perf_counter() - began, rows, None))
        return time.perf_counter() - start, records

    def verify(self) -> dict:
        """Every op against the reference plane on the same model; over
        HTTP also against the local client, bag for bag."""
        reference = EngineClient(Engine(self.dataset, columnar=False))
        local = EngineClient(self.engine)
        failed = 0
        expected_rows: Dict[object, int] = {}
        counts: Dict[str, dict] = {}
        for name, frame in self.ops:
            expected = frame.execute(reference)
            expected_rows[name] = len(expected)
            if self.cold_plans:
                self.engine.clear_plan_cache()
            if self.endpoint is not None:
                self.endpoint.clear_cache()
            misses = self.engine.plan_cache_misses
            digest = frame_digest(frame.execute(self.client))
            stats = self.engine.last_stats
            counts[name] = {field: getattr(stats, field)
                            for field in STAT_FIELDS}
            counts[name].update(
                rows=len(expected), digest=digest,
                plan_cache_misses=self.engine.plan_cache_misses - misses)
            ok = digest == frame_digest(expected)
            if ok and self.endpoint is not None:
                ok = digest == frame_digest(frame.execute(local))
            if not ok:
                print("ledger: %s differs from the reference plane"
                      % name, file=sys.stderr)
                failed += 1
        return {"attempted": len(self.ops), "failed": failed,
                "expected_rows": expected_rows, "counts": counts}

    def detail(self, records: List[Record]) -> dict:
        by_op: Dict[str, List[float]] = {}
        for op, seconds, _rows, _extra in records:
            by_op.setdefault(op, []).append(seconds * 1000.0)
        return {"op_ms": {op: summary(values)
                          for op, values in by_op.items()}}

    def sizes(self) -> dict:
        return {"scale": self.scale, "ops": len(self.ops),
                "clients": 1,
                "triples": {g.uri: len(g) for g in self.dataset}}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Serving workloads: QueryServer + ResultCache over store-attached graphs
# ----------------------------------------------------------------------
class _Gate:
    """Readers share, a writer excludes.  ``Graph`` is not safe to mutate
    while a query reads it, so the load generator quiesces in-flight reads
    around each write; the wait is not part of the write's latency."""

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False

    def begin_read(self) -> None:
        with self._cond:
            while self._writing:
                self._cond.wait()
            self._readers += 1

    def end_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if not self._readers:
                self._cond.notify_all()

    def begin_write(self) -> None:
        with self._cond:
            while self._writing:
                self._cond.wait()
            self._writing = True
            while self._readers:
                self._cond.wait()

    def end_write(self) -> None:
        with self._cond:
            self._writing = False
            self._cond.notify_all()


def build_population(dataset, rng: random.Random, size: int) -> List[str]:
    """Up to ``size`` distinct light queries, most popular first.

    Six templates, parametrised by the actors, authors, countries and
    venues found in the generated graphs.  The seed picks the parameters;
    the template of each popularity rank is fixed (ranks cycle through
    the templates), so the cost profile of the hot ranks does not depend
    on the seed."""
    dbpedia = dataset.graph(DBPEDIA_URI)
    dblp = dataset.graph(DBLP_URI)
    actors = [str(actor) for actor in _actors(dbpedia)]
    countries = sorted({str(o) for o in dbpedia.objects(DBPP.country)})
    authors = sorted({str(o) for o in dblp.objects(DC.creator)})
    venues = sorted({str(o) for o in dblp.objects(SWRC.series)})
    film = "FROM <%s> WHERE { " % DBPEDIA_URI
    paper = "FROM <%s> WHERE { " % DBLP_URI
    templates: List[List[str]] = [
        ["SELECT ?film ?name %s?film dbpp:starring <%s> . "
         "?film rdfs:label ?name }" % (film, actor) for actor in actors],
        ["SELECT (COUNT(?film) AS ?n) %s?film dbpp:starring <%s> }"
         % (film, actor) for actor in actors],
        ["SELECT DISTINCT ?costar %s?film dbpp:starring <%s> . "
         "?film dbpp:starring ?costar }" % (film, actor)
         for actor in actors],
        ["SELECT ?paper ?title %s?paper dc:creator <%s> . "
         "?paper dc:title ?title }" % (paper, author)
         for author in authors],
        ["SELECT (COUNT(?film) AS ?n) %s?film dbpp:country <%s> }"
         % (film, country) for country in countries]
        + ["SELECT (COUNT(?actor) AS ?n) %s?actor dbpp:birthPlace <%s> . "
           "?actor rdf:type dbpo:Actor }" % (film, country)
           for country in countries],
        ["SELECT (COUNT(?paper) AS ?n) %s?paper swrc:series <%s> . "
         "?paper dcterm:issued ?date "
         "FILTER ( year(xsd:dateTime(?date)) = %d ) }"
         % (paper, venue, year)
         for venue in venues for year in range(2000, 2020)],
    ]
    for queries in templates:
        rng.shuffle(queries)
    population: List[str] = []
    while len(population) < size and any(templates):
        for queries in templates:
            if queries and len(population) < size:
                population.append(_PREFIXES + queries.pop())
    return population


class ServingRun:
    """Two closed-loop clients against a two-worker ``QueryServer``.

    A pass is one block of ``block`` ops.  Reads are drawn from a
    zipf(1.1) schedule over the population; ``write_share`` of the ops
    are writes instead: each adds one new film (5 triples) through the
    store-attached graph and removes the film written ``WINDOW`` writes
    earlier (10 WAL records)."""

    static_heap = True
    CLIENTS = 2
    WORKERS = 2
    ZIPF_S = 1.1
    #: Films written by the ledger that stay in the graph.
    WINDOW = 32

    def __init__(self, seed: int, scale: float, workdir: str, tracer,
                 write_share: float, block: int, population: int = 1024):
        self.tracer = tracer
        self.seed = seed
        self.scale = scale
        self.write_share = write_share
        self.block = block
        start = time.perf_counter()
        self.dataset = build_dataset(scale=scale, seed=seed,
                                     use_cache=False)
        self.build_s = time.perf_counter() - start
        self.home = os.path.join(workdir, "store")
        self.store = GraphStore(self.home, sync_every=SYNC_EVERY)
        self.store.open()
        self.store.attach(list(self.dataset))
        self.store.checkpoint()
        self.graph = self.dataset.graph(DBPEDIA_URI)
        self.actors = _actors(self.graph)
        self.engine = Engine(self.dataset)
        self.cache = ResultCache()
        self.server = QueryServer(self.engine, workers=self.WORKERS,
                                  queue_size=16, result_cache=self.cache)
        self.population = build_population(
            self.dataset, random.Random(_pass_seed(seed, -2)), population)
        weights = [1.0 / (rank ** self.ZIPF_S)
                   for rank in range(1, len(self.population) + 1)]
        self._cumulative = list(itertools.accumulate(weights))
        self._gate = _Gate()
        self._films = 0
        self._window: List[list] = []
        self.warmup_s, _ = self.run_pass(-1)

    def _schedule(self, index: int) -> List[Tuple[str, object]]:
        """Pass ``index``'s ops.  Every ``1 / write_share``-th op is a
        write, so each pass has the same number of writes the same
        distance apart; the reads between them are zipf draws."""
        rng = random.Random(_pass_seed(self.seed, index))
        total = self._cumulative[-1]
        every = round(1 / self.write_share) if self.write_share else 0
        ops: List[Tuple[str, object]] = []
        for position in range(self.block):
            if every and position % every == every - 1:
                ops.append(("w", self._next_write(rng)))
            else:
                ops.append(("r", bisect.bisect_left(
                    self._cumulative, rng.random() * total)))
        return ops

    def _next_write(self, rng: random.Random) -> Tuple[list, list]:
        """``(triples to add, triples to remove)``: one new film, and the
        film written ``WINDOW`` writes ago, so the graph stops growing
        once the warm-up pass has filled the window."""
        self._films += 1
        added = _film_triples(self._films, rng, self.actors)
        self._window.append(added)
        removed = self._window.pop(0) \
            if len(self._window) > self.WINDOW else []
        return added, removed

    def _client(self, ops, records: List[Record], errors: list) -> None:
        gate, server, graph = self._gate, self.server, self.graph
        population, span = self.population, self.tracer.span
        try:
            for kind, arg in ops:
                if kind == "r":
                    gate.begin_read()
                    began = time.perf_counter()
                    try:
                        ticket = server.submit(population[arg])
                        rows = len(ticket.result(timeout=60.0))
                        extra = (ticket.cache_state, ticket.waited,
                                 ticket.elapsed)
                    except (EndpointError, TimeoutError):
                        _report_failure(arg)
                        rows = extra = None
                    finally:
                        seconds = time.perf_counter() - began
                        gate.end_read()
                    records.append((arg, seconds, rows, extra))
                else:
                    gate.begin_write()
                    began = time.perf_counter()
                    try:
                        added, removed = arg
                        with span("Graph.add", "storage.wal"):
                            for triple in added:
                                graph.add(*triple)
                            for triple in removed:
                                graph.remove(*triple)
                        rows = len(added) + len(removed)
                    except EndpointError:  # StorageError is one
                        _report_failure("write")
                        rows = None
                    finally:
                        seconds = time.perf_counter() - began
                        gate.end_write()
                    records.append(("write", seconds, rows, None))
        except BaseException as exc:  # re-raised by run_pass
            errors.append(exc)

    def run_pass(self, index: int) -> Tuple[float, List[Record]]:
        ops = self._schedule(index)
        per_client: List[List[Record]] = [[] for _ in range(self.CLIENTS)]
        errors: list = []
        threads = [threading.Thread(
            target=self._client,
            args=(ops[c::self.CLIENTS], per_client[c], errors))
            for c in range(self.CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        if errors:
            raise errors[0]
        return wall, [r for records in per_client for r in records]

    def verify(self) -> dict:
        """After the run quiesces, every population query's cached reply
        must equal a ``cache=False`` reply on the final graph."""
        self.server.wait_idle()
        failed = 0
        expected_rows: Dict[object, int] = {}
        for index, text in enumerate(self.population):
            cached = self.server.submit(text).result(timeout=60.0)
            plain = self.server.submit(text, cache=False).result(
                timeout=60.0)
            expected_rows[index] = len(plain)
            if result_digest(cached) != result_digest(plain):
                print("ledger: stale cached reply for population query %d"
                      % index, file=sys.stderr)
                failed += 1
        return {"attempted": len(self.population), "failed": failed,
                # With writes the answers change during the run, so only
                # the read-only run checks each timed reply's row count.
                "expected_rows": None if self.write_share else expected_rows,
                "counts": {}}

    def detail(self, records: List[Record]) -> dict:
        reads = [r for r in records if r[0] != "write" and r[2] is not None]
        writes = [r[1] * 1000.0 for r in records
                  if r[0] == "write" and r[2] is not None]
        read_ms = [r[1] * 1000.0 for r in reads]
        states: Dict[str, int] = {}
        for r in reads:
            states[r[3][0]] = states.get(r[3][0], 0) + 1
        served = states.get("hit", 0) + states.get("coalesced", 0)
        return {
            "reads": len(reads), "writes": len(writes),
            "read_p50_ms": percentile(read_ms, 50),
            "read_p95_ms": percentile(read_ms, 95),
            "write_p50_ms": percentile(writes, 50) if writes else 0.0,
            "cache_hit_rate": served / len(reads),
            "cache_states": states,
            "queue_wait_ms": 1000.0 * sum(r[3][1] for r in reads)
            / len(reads),
            "evaluator_ms_per_read": 1000.0 * sum(r[3][2] or 0.0
                                                  for r in reads)
            / len(reads),
            "cache_stats": self.cache.stats.as_dict(),
            "server_stats": self.server.stats.as_dict(),
            "plan_cache": {"hits": self.engine.plan_cache_hits,
                           "misses": self.engine.plan_cache_misses},
        }

    def sizes(self) -> dict:
        return {"scale": self.scale, "population": len(self.population),
                "cache_entries": self.cache.max_entries,
                "block": self.block, "write_share": self.write_share,
                "clients": self.CLIENTS, "workers": self.WORKERS,
                "zipf_s": self.ZIPF_S, "sync_every": SYNC_EVERY,
                "triples": {g.uri: len(g) for g in self.dataset}}

    def close(self) -> None:
        self.server.shutdown()
        self.store.close()
        shutil.rmtree(self.home, ignore_errors=True)


# ----------------------------------------------------------------------
# store.restart: checkpoint, write, close, reopen, query
# ----------------------------------------------------------------------
class RestartRun:
    """One client cycling a ``GraphStore`` through a restart.

    A pass is one cycle: ``checkpoint()``; add ``films`` new films (5
    triples each) and remove the films the previous cycle added, then
    ``flush()``; one COUNT query; ``close()``; a fresh
    ``GraphStore.open()`` (snapshot decode plus WAL replay); the same
    COUNT query on the recovered graphs (lazy index build).  Removing
    what the last cycle added keeps the graph the same size in every
    timed cycle, so cycle times do not drift with the run's length."""

    #: Every cycle replaces the graphs with freshly recovered ones.
    static_heap = False

    def __init__(self, seed: int, scale: float, workdir: str, tracer,
                 films: int):
        self.tracer = tracer
        self.seed = seed
        self.scale = scale
        self.films = films
        start = time.perf_counter()
        dataset = build_dataset(scale=scale, seed=seed, use_cache=False)
        self.build_s = time.perf_counter() - start
        self.actors = _actors(dataset.graph(DBPEDIA_URI))
        self.home = os.path.join(workdir, "store")
        self.store = GraphStore(self.home, sync_every=SYNC_EVERY)
        self.store.open()
        self.store.attach(list(dataset))
        self._previous: List[tuple] = []
        self._written = 0
        self.last_cycle: dict = {}
        self.first_cycle: dict = {}
        self.warmup_s, _ = self.run_pass(-1)

    def _new_triples(self, index: int) -> List[tuple]:
        rng = random.Random(_pass_seed(self.seed, index))
        triples: List[tuple] = []
        for _ in range(self.films):
            self._written += 1
            triples += _film_triples(self._written, rng, self.actors)
        return triples

    @staticmethod
    def _count(store: GraphStore) -> int:
        engine = Engine(list(store.graphs().values()))
        return int(engine.query(COUNT_STARRING).rows[0][0].value)

    def run_pass(self, index: int) -> Tuple[float, List[Record]]:
        added = self._new_triples(index)
        removed = self._previous
        span = self.tracer.span
        store = self.store
        graph = store.graph(DBPEDIA_URI)
        marks = [time.perf_counter()]
        with span("cycle", "op", op="cycle"):
            with span("GraphStore.checkpoint", "storage.snapshot"):
                store.checkpoint()
            marks.append(time.perf_counter())
            with span("Graph.add+flush", "storage.wal"):
                for triple in added:
                    graph.add(*triple)
                for triple in removed:
                    graph.remove(*triple)
                store.flush()
            marks.append(time.perf_counter())
            with span("count.warm", "sparql.evaluator"):
                before = self._count(store)
            marks.append(time.perf_counter())
            sizes = {uri: len(g) for uri, g in store.graphs().items()}
            with span("GraphStore.close", "storage.wal"):
                store.close()
            marks.append(time.perf_counter())
            with span("GraphStore.open", "storage.snapshot"):
                fresh = GraphStore(self.home, sync_every=SYNC_EVERY)
                report = fresh.open()
            marks.append(time.perf_counter())
            with span("count.cold", "sparql.evaluator"):
                after = self._count(fresh)
            marks.append(time.perf_counter())
        recovered = {uri: len(g) for uri, g in fresh.graphs().items()}
        ok = recovered == sizes and after == before
        if not ok:
            print("ledger: reopen lost state: %r/%d before, %r/%d after"
                  % (sizes, before, recovered, after), file=sys.stderr)
        self.last_cycle = {
            "wal_records": store.counters["wal_records"],
            "wal_bytes": store.counters["wal_bytes"],
            "wal_fsyncs": store.counters["wal_fsyncs"],
            "replayed_records": report.replayed_records,
            "snapshot_bytes": os.path.getsize(
                list_snapshots(self.home)[-1][1]),
            "triples": sum(recovered.values()),
            "count_answer": after,
        }
        if index == 0:
            # The first timed cycle is the same in a short run and a long
            # one, so its counts repeat exactly whatever the run length.
            self.first_cycle = dict(self.last_cycle)
        self.store = fresh
        self._previous = added
        names = ("checkpoint", "append", "count_warm", "close", "reopen",
                 "count_cold")
        writes = len(added) + len(removed)
        rows = {"append": writes, "reopen": sum(recovered.values())}
        records = [(name, marks[i + 1] - marks[i],
                    rows.get(name, 1) if ok or name != "reopen" else None,
                    None) for i, name in enumerate(names)]
        return marks[-1] - marks[0], records

    def verify(self) -> dict:
        """Every cycle already compared the recovered graphs with the
        graphs before ``close()``; the counts are the first timed cycle's."""
        return {"attempted": 0, "failed": 0, "expected_rows": None,
                "counts": {"cycle": dict(self.first_cycle)}}

    def detail(self, records: List[Record]) -> dict:
        phase: Dict[str, List[float]] = {}
        appended = 0
        for op, seconds, rows, _extra in records:
            phase.setdefault(op, []).append(seconds)
            if op == "append":
                appended = rows
        cycle = self.last_cycle
        return {
            "wal_append_per_s": summary(
                [appended / s for s in phase["append"]]),
            "checkpoint_s": summary(phase["checkpoint"]),
            "reopen_s": summary(phase["reopen"]),
            "first_query_after_reopen_ms": summary(
                [s * 1000.0 for s in phase["count_cold"]]),
            "wal_bytes_per_triple":
                cycle["wal_bytes"] / max(1, cycle["wal_records"]),
            "snapshot_bytes_per_triple":
                cycle["snapshot_bytes"] / max(1, cycle["triples"]),
            "cycle": dict(cycle),
        }

    def sizes(self) -> dict:
        return {"scale": self.scale, "films_per_cycle": self.films,
                "wal_records_per_cycle": 2 * 5 * self.films,
                "clients": 1, "sync_every": SYNC_EVERY,
                "triples": self.last_cycle.get("triples")}

    def close(self) -> None:
        self.store.close()
        shutil.rmtree(self.home, ignore_errors=True)


# ----------------------------------------------------------------------
# The registry: name -> class, scale, options.  BENCHMARK.json lists the
# same names, each with its why.
# ----------------------------------------------------------------------
WORKLOADS: Dict[str, dict] = {
    "case_studies.local": dict(
        run=PipelineRun, scale=0.5, options=dict(frames=case_study_frames)),
    "case_studies.http": dict(
        run=PipelineRun, scale=0.5,
        options=dict(frames=case_study_frames, http=True)),
    "synthetic15.local": dict(
        run=PipelineRun, scale=0.5,
        options=dict(frames=synthetic_frames, cold_plans=True)),
    "biblio.local": dict(
        run=PipelineRun, scale=0.5, options=dict(frames=biblio_frames)),
    "serving.read_zipf": dict(
        run=ServingRun, scale=0.25,
        options=dict(write_share=0.0, block=500),
        smoke_options=dict(block=200)),
    "serving.mixed_rw": dict(
        run=ServingRun, scale=0.25,
        options=dict(write_share=0.05, block=500),
        smoke_options=dict(block=200)),
    "store.restart": dict(
        run=RestartRun, scale=0.5, options=dict(films=400),
        smoke_options=dict(films=40)),
}

SMOKE_SCALE = 0.05


def open_workload(name: str, seed: int, workdir: str, tracer,
                  smoke: bool = False):
    """Set up workload ``name``: build, construct, warm up."""
    entry = WORKLOADS[name]
    options = dict(entry["options"])
    if smoke:
        options.update(entry.get("smoke_options", {}))
    return entry["run"](seed, SMOKE_SCALE if smoke else entry["scale"],
                        workdir, tracer, **options)
