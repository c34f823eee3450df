"""The SPARQL engine façade — this repo's stand-in for Virtuoso.

``Engine`` owns a :class:`~repro.rdf.Dataset` of named graphs and answers
SPARQL SELECT queries: parse -> algebra -> optimizer passes -> evaluate.
SPARQL text is its only front end; RDFFrames reaches it by generating
that text, like any other client.

Plans are cached by their normalized structural key
(:func:`~repro.sparql.plan.plan_key`), so repeated executions of the same
logical query — in any surface spelling — skip parsing *and* the
optimizer pipeline entirely.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import List, Optional, Tuple, Union

from ..rdf.dataset import Dataset
from ..rdf.graph import Graph
from . import algebra as alg
from .evaluator import (EvaluationError, EvaluationStats, Evaluator,
                        QueryTimeout, _synopses_built, resolve_graph)
from .parser import parse
from .physical import explain_lines
from .plan import (Plan, key_from_skeleton, optimize_plan, output_variables,
                   plan_skeleton)
from .results import ResultSet, ResultStream

__all__ = ["Engine", "QueryTimeout"]


class Engine:
    """An in-process RDF database engine with a SPARQL SELECT interface.

    Example
    -------
    >>> from repro.rdf import Graph, URIRef
    >>> from repro.sparql import Engine
    >>> g = Graph("http://example.org")
    >>> _ = g.add(URIRef("http://ex/m1"), URIRef("http://ex/starring"),
    ...           URIRef("http://ex/alice"))
    >>> engine = Engine(g)
    >>> result = engine.query(
    ...     "SELECT ?a WHERE { ?m <http://ex/starring> ?a }")
    >>> [str(a) for (a,) in result.rows]
    ['http://ex/alice']

    Parameters
    ----------
    source:
        A :class:`Dataset`, a single :class:`Graph`, or a list of graphs.
    max_intermediate_rows:
        Safety valve: abort a query whose intermediate result exceeds
        this many rows (``None`` disables it).
    columnar:
        ``False`` selects the dict-based
        :class:`~.reference.ReferenceEvaluator` — the oracle the
        differential suites and the ledger's output check compare the
        production operators against.  A reference engine answers
        :meth:`query` and :meth:`stream`; it has no
        plans to execute, so :meth:`evaluate_plan` refuses it.
    plan_cache_size:
        Maximum number of optimized plans kept (LRU).  0 disables caching.
        The text memo in front of it (query text -> parsed query + key
        skeleton, see :meth:`plan`) holds twice as many entries — enough
        for the default 256-entry result cache at under 1 MB — and is
        switched off by 0 as well.

    There is no physical knob: join order, join strategy (nested-loop,
    multiway intersection, generic join) and sideways filters are the
    planner's decisions.  The planner writes each BGP's steps as one
    program (:func:`~.optimizer.bgp_program`) that the evaluator runs as
    written, and ``Plan.explain()`` prints all of it.
    """

    def __init__(self, source: Union[Dataset, Graph, List[Graph]],
                 max_intermediate_rows: Optional[int] = None,
                 columnar: bool = True, plan_cache_size: int = 128):
        if isinstance(source, Dataset):
            self.dataset = source
        else:
            self.dataset = Dataset()
            graphs = [source] if isinstance(source, Graph) else list(source)
            for graph in graphs:
                self.dataset.add_graph(graph)
        # Safety valve: abort queries whose intermediate results explode
        # (the role of a server-side memory budget in a real engine).
        self.max_intermediate_rows = max_intermediate_rows
        self.columnar = columnar
        self.plan_cache_size = plan_cache_size
        self._plan_cache: "OrderedDict[str, Plan]" = OrderedDict()
        # text -> (parsed query, plan_skeleton).  Parsing does not depend
        # on graph state, so entries are never invalidated; the lock lets
        # result_key() run on any thread without the server's plan lock.
        self._text_memo: "OrderedDict[str, tuple]" = OrderedDict()
        self._text_memo_lock = threading.Lock()
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.last_plan: Optional[Plan] = None
        self.last_stats: Optional[EvaluationStats] = None
        self.last_elapsed: float = 0.0
        self.queries_executed = 0

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _resolve(self, source) -> Tuple[alg.Query, str, Tuple[str, str]]:
        """``(parsed query, source kind, key skeleton)`` for SPARQL text
        (through the text memo) or a parsed :class:`~.algebra.Query`."""
        if isinstance(source, alg.Query):
            return source, "algebra", plan_skeleton(source)
        if not isinstance(source, str):
            raise TypeError("expected SPARQL text or an algebra Query, got "
                            "%s; render a query model with translate() first"
                            % type(source).__name__)
        limit = 2 * self.plan_cache_size
        memo = self._text_memo
        if limit > 0:
            with self._text_memo_lock:
                entry = memo.get(source)
                if entry is not None:
                    memo.move_to_end(source)
                    return entry
        # Outside the lock: parsing is pure, and a syntax error propagates
        # from here so it is never stored.
        query = parse(source)
        entry = (query, "text", plan_skeleton(query))
        if limit > 0:
            with self._text_memo_lock:
                memo[source] = entry
                while len(memo) > limit:
                    memo.popitem(last=False)
        return entry

    def plan(self, source, default_graph_uri: Optional[str] = None) -> Plan:
        """Build (or fetch from cache) the optimized plan for ``source``.

        ``source`` is SPARQL text or an already-parsed algebra
        :class:`~.algebra.Query`; anything else raises :class:`TypeError`.

        Text is parsed once: a bounded LRU memo keeps ``text -> (parsed
        query, key skeleton)``, so a repeated text costs one dictionary
        probe before the plan-cache lookup, and re-planning after a graph
        mutation starts from the memoised parse (the optimizer never
        mutates its input).  The plan cache itself is not thread-safe;
        concurrent callers serialize ``plan()`` (the server does).

        >>> from repro.rdf import Graph, URIRef
        >>> g = Graph("http://example.org")
        >>> _ = g.add(URIRef("http://ex/s"), URIRef("http://ex/p"),
        ...           URIRef("http://ex/o"))
        >>> engine = Engine(g)
        >>> first = engine.plan("SELECT ?s WHERE { ?s <http://ex/p> ?o }")
        >>> engine.plan("SELECT ?s WHERE { ?s <http://ex/p> ?o }") is first
        True
        >>> _ = g.add(URIRef("http://ex/s2"), URIRef("http://ex/p"),
        ...           URIRef("http://ex/o"))
        >>> again = engine.plan("SELECT ?s WHERE { ?s <http://ex/p> ?o }")
        >>> again is first, again.key == first.key  # re-planned, no re-parse
        (False, False)
        """
        query, kind, skeleton = self._resolve(source)
        key = key_from_skeleton(skeleton, default_graph_uri,
                                self._fingerprint())
        cached = self._plan_cache.get(key)
        if cached is not None:
            self._plan_cache.move_to_end(key)
            self.plan_cache_hits += 1
            return cached

        graph = self._planning_graph(query.from_graphs, default_graph_uri)
        # Per-predicate synopses are built lazily by the cost-based passes
        # while planning; record the builds this plan triggered so the
        # first execution's stats can attribute them (cache hits
        # attribute zero, correctly).
        before = _synopses_built(graph)
        plan = optimize_plan(query, key=key, graph=graph,
                             dataset=self.dataset, source=kind)
        plan.synopsis_builds = _synopses_built(graph) - before
        self.plan_cache_misses += 1
        if self.plan_cache_size > 0:
            self._plan_cache[key] = plan
            while len(self._plan_cache) > self.plan_cache_size:
                self._plan_cache.popitem(last=False)
        return plan

    def _planning_graph(self, from_graphs: List[str],
                        default_graph_uri: Optional[str]):
        """The graph whose statistics drive join ordering, or ``None`` when
        resolution fails (the error then surfaces at execution, exactly as
        it did on the pre-planner path) or the dataset is empty."""
        if not len(self.dataset):
            return None
        try:
            return resolve_graph(self.dataset, from_graphs, default_graph_uri)
        except (EvaluationError, KeyError):
            return None

    def _fingerprint(self) -> Tuple:
        """Cheap dataset-state fingerprint tied into every plan key, so
        graph mutations invalidate cached join orders — and, since the
        serving tier's result cache reuses the same key, cached *rows*.
        The per-graph mutation counter (``Graph.version``) is included so
        a remove+add netting an unchanged triple count still changes the
        fingerprint; length alone would serve stale results."""
        return tuple(sorted((g.uri, len(g), g.version)
                            for g in self.dataset))

    def result_key(self, source, default_graph_uri: Optional[str] = None
                   ) -> str:
        """The normalized cache key for ``source``'s *results* under the
        dataset's current state — the string :meth:`plan` would key its
        plan on (query structure + default graph + :meth:`_fingerprint`),
        derived without planning: a memoised text costs one dictionary
        probe, and neither the plan cache nor its counters are touched.
        Safe to call from any thread.

        >>> from repro.rdf import Graph, URIRef
        >>> g = Graph("http://example.org")
        >>> _ = g.add(URIRef("http://ex/s"), URIRef("http://ex/p"),
        ...           URIRef("http://ex/o"))
        >>> engine = Engine(g)
        >>> text = "SELECT ?s WHERE { ?s <http://ex/p> ?o }"
        >>> key = engine.result_key(text)
        >>> engine.plan_cache_misses  # no plan was built
        0
        >>> key == engine.plan(text).key == engine.result_key(
        ...     "SELECT ?s WHERE {?s <http://ex/p> ?o.}")  # spelling-blind
        True
        >>> _ = g.add(URIRef("http://ex/s2"), URIRef("http://ex/p"),
        ...           URIRef("http://ex/o"))
        >>> engine.result_key(text) == key  # a write changes the key
        False
        """
        return key_from_skeleton(self._resolve(source)[2], default_graph_uri,
                                 self._fingerprint())

    def clear_plan_cache(self) -> None:
        self._plan_cache.clear()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _evaluator(self, deadline: Optional[float], cancel,
                   max_rows: Optional[int] = None) -> Evaluator:
        """A fresh per-execution :class:`Evaluator` with this engine's
        row budget (or ``max_rows``) and the given deadline / cancel
        token.  Every physical decision is already on the plan."""
        return Evaluator(self.dataset,
                         max_rows=self.max_intermediate_rows
                         if max_rows is None else max_rows,
                         deadline=deadline, cancel=cancel)

    def _record(self, plan: Plan, stats: EvaluationStats,
                elapsed: float) -> None:
        """The engine's shared ``last_*`` bookkeeping for one execution."""
        if plan.executions == 0:
            # Planning-time synopsis builds belong to the query that
            # triggered them; repeat executions report only their own.
            stats.synopsis_builds += plan.synopsis_builds
        plan.executions += 1
        self.last_plan = plan
        self.last_stats = stats
        self.last_elapsed = elapsed
        self.queries_executed += 1

    def evaluate_plan(self, plan: Plan,
                      default_graph_uri: Optional[str] = None,
                      timeout: Optional[float] = None,
                      cancel=None, max_rows: Optional[int] = None
                      ) -> Tuple[ResultSet, EvaluationStats, float]:
        """Evaluate a plan without touching the engine's shared
        ``last_*`` bookkeeping — the thread-confined execution core.

        This is what the concurrent serving tier calls: every invocation
        gets its own :class:`Evaluator` (per-request stats, deadline, row
        budget, and cancel token), and nothing on the engine object is
        mutated, so many threads can execute plans over the same
        read-only dataset simultaneously.  ``max_rows`` overrides the
        engine-level ``max_intermediate_rows`` valve for this request;
        ``cancel`` is a :class:`~repro.sparql.errors.CancelToken` checked
        at the evaluator's deadline checkpoints.  On failure the raised
        exception carries the partial counters as ``evaluation_stats``.

        Raises :class:`ValueError` on a reference engine
        (``columnar=False``): plans only ever run on the production
        operators, so executing one there would silently answer from the
        wrong plane.

        Returns ``(result, stats, elapsed_seconds)``.
        """
        if not self.columnar:
            raise ValueError("a reference engine (columnar=False) does not "
                             "execute plans; use query() or stream()")
        start = time.perf_counter()
        deadline = None if timeout is None else start + timeout
        evaluator = self._evaluator(deadline, cancel, max_rows)
        try:
            solutions = evaluator.evaluate_plan_stream(
                plan, default_graph_uri).to_table()
            elapsed = time.perf_counter() - start
            if timeout is not None and elapsed > timeout:
                raise QueryTimeout("query took %.3fs (budget %.3fs)"
                                   % (elapsed, timeout))
        except Exception as exc:
            # Let the serving tier report per-request work done even for
            # queries that were cancelled or tripped a valve.
            exc.evaluation_stats = evaluator.stats
            raise
        result = ResultSet.from_table(solutions, evaluator.dictionary,
                                      plan.output_variables)
        return result, evaluator.stats, elapsed

    def execute_plan(self, plan: Plan,
                     default_graph_uri: Optional[str] = None,
                     timeout: Optional[float] = None,
                     cancel=None) -> ResultSet:
        """Evaluate an optimized plan on the production operators.

        Every plan runs on the one pipelined batch-stream operator set:
        ``LIMIT``-topped queries stop pulling as soon as the bound is
        satisfied, aggregations fold their input into per-group
        accumulators instead of materializing it, and rows are held whole
        only at pipeline breakers (join build sides, ``OrderBy``,
        ``Minus``).  Row order for unordered join results differs from
        the reference plane's, so a ``LIMIT`` window over such a join is
        a valid but possibly different k-subset on each.
        """
        result, stats, elapsed = self.evaluate_plan(
            plan, default_graph_uri, timeout, cancel=cancel)
        self._record(plan, stats, elapsed)
        return result

    def query(self, text: str, default_graph_uri: Optional[str] = None,
              timeout: Optional[float] = None, cancel=None) -> ResultSet:
        """Execute a SPARQL SELECT query and return its result set.

        Example
        -------
        >>> from repro.data import DBPEDIA_URI, build_dataset
        >>> engine = Engine(build_dataset(scale=0.02))
        >>> result = engine.query(
        ...     "PREFIX dbpp: <http://dbpedia.org/property/> "
        ...     "SELECT ?actor (COUNT(?film) AS ?n) "
        ...     "WHERE { ?film dbpp:starring ?actor } GROUP BY ?actor",
        ...     default_graph_uri=DBPEDIA_URI)
        >>> engine.last_stats.groups_built > 0
        True
        """
        if self.columnar:
            plan = self.plan(text, default_graph_uri)
            return self.execute_plan(plan, default_graph_uri, timeout,
                                     cancel=cancel)
        return self._query_reference(parse(text), default_graph_uri, timeout)

    def stream(self, source, default_graph_uri: Optional[str] = None,
               timeout: Optional[float] = None,
               batch_rows: int = 64, cancel=None) -> ResultStream:
        """Execute a query as a lazy cursor over decoded result rows.

        ``source`` is anything :meth:`plan` accepts.  The returned
        :class:`~.results.ResultStream` pulls from the pipelined operators
        on demand: fetching a page of ``n`` rows at ``offset`` costs
        O(offset + n) local row production — regardless of whether the
        query itself carries a LIMIT — which is what the simulated
        endpoint's pagination and the clients' page fetches ride on.
        ``timeout`` arms a deadline covering future pulls from the
        cursor; long-lived cursors can restart the budget per request
        with :meth:`ResultStream.arm_deadline` (the endpoint does, so
        client think-time between pages never counts against it).  On the
        reference plane (``columnar=False``) the query is materialized up
        front and the cursor merely pages over it.

        Example
        -------
        >>> from repro.data import DBPEDIA_URI, build_dataset
        >>> engine = Engine(build_dataset(scale=0.02))
        >>> cursor = engine.stream(
        ...     "PREFIX dbpp: <http://dbpedia.org/property/> "
        ...     "SELECT ?a ?b WHERE { ?f dbpp:starring ?a . "
        ...     "?f dbpp:starring ?b }", default_graph_uri=DBPEDIA_URI)
        >>> page = cursor.page(offset=0, limit=5)
        >>> len(page)
        5
        >>> engine.last_stats.rows_pulled <= 200  # not the full join
        True
        """
        if not self.columnar:
            result = self._query_reference(self._resolve(source)[0],
                                           default_graph_uri, timeout)
            return ResultStream(result.variables, iter(result.rows))
        plan = self.plan(source, default_graph_uri)
        start = time.perf_counter()
        evaluator = self._evaluator(
            None if timeout is None else start + timeout, cancel)
        table_stream = evaluator.evaluate_plan_stream(
            plan, default_graph_uri, hint=batch_rows)
        variables = plan.output_variables
        if variables is None:
            variables = [v for v in table_stream.variables
                         if not v.startswith("__agg_")]
        positions = [table_stream.index.get(v) for v in variables]
        decode = evaluator.dictionary.decode

        def rows():
            for batch in table_stream.batches:
                for row in batch:
                    yield tuple(None if p is None or row[p] is None
                                else decode(row[p]) for p in positions)

        # ``last_elapsed`` covers what ran before the first pull: stream
        # construction, which is where the pipeline breakers build.
        self._record(plan, evaluator.stats, time.perf_counter() - start)

        def arm(seconds):
            evaluator.deadline = None if seconds is None \
                else time.perf_counter() + seconds

        return ResultStream(variables, rows(), arm_deadline=arm)

    def _query_reference(self, parsed: alg.Query,
                         default_graph_uri: Optional[str],
                         timeout: Optional[float]) -> ResultSet:
        """The seed dict-based path, kept verbatim for differential tests."""
        from .reference import ReferenceEvaluator
        evaluator = ReferenceEvaluator(self.dataset,
                                       max_rows=self.max_intermediate_rows)
        start = time.perf_counter()
        solutions = evaluator.evaluate_query(parsed, default_graph_uri)
        elapsed = time.perf_counter() - start
        if timeout is not None and elapsed > timeout:
            raise QueryTimeout("query took %.3fs (budget %.3fs)"
                               % (elapsed, timeout))
        self.last_stats = evaluator.stats
        self.last_elapsed = elapsed
        self.queries_executed += 1
        variables = output_variables(parsed)
        if variables is None:  # SELECT *: in scope, bound by a row or not
            variables = [v for v in parsed.pattern.in_scope()
                         if not v.startswith("__agg_")]
        return ResultSet.from_mappings(solutions, variables)

    def explain(self, text: str, optimized: bool = False) -> str:
        """A textual rendering of the algebra tree (for debugging/tests).

        With ``optimized=True`` the query is planned first and the
        rendering is the plan's (:meth:`~.plan.Plan.explain`): the
        physical tree with its decisions, then per-pass statistics.
        """
        if optimized:
            return self.plan(text).explain()
        parsed = parse(text)
        return "\n".join(explain_lines(parsed.from_graphs, parsed.pattern))
