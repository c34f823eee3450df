"""Bottom-up evaluation of SPARQL algebra with bag semantics.

Implements the semantics summarized in Section 5.2 of the paper.  The
evaluator is deliberately structured the way the paper's cost model assumes:

* A :class:`~.algebra.BGP` is evaluated as an index-nested-loop join over
  the graph's SPO/POS/OSP indexes, with join order chosen by the optimizer
  and bindings propagated pattern-to-pattern.  Flat queries are cheap.
* A nested SELECT (:class:`~.algebra.Project` below the root) is always
  *evaluated independently* — no bindings flow into it — and then
  hash-joined with its siblings.  This is exactly why the paper's naive
  one-subquery-per-operator queries are slow, and it makes the engine
  reproduce the naive-vs-optimized gap of Figures 3 and 5.

The data plane is *dictionary-encoded*: solutions are
:class:`~.solution.SolutionTable` objects (schema header + rows of dense
integer term ids), pattern matching runs on :meth:`Graph.triples_ids`,
joins hash ints, and RDF term objects are materialized only at the result
boundary or lazily inside expression evaluation (:class:`~.solution.RowView`).
The original dict-based evaluator survives as
:class:`~.reference.ReferenceEvaluator` for differential tests and the
perf-report baseline.

There is one production operator set: every operator is a ``_stream_*``
method that produces (and consumes) a :class:`~.solution.TableStream` of
row batches (lists of id tuples, the only batch layout), and ``evaluate``
is nothing but "drain ``stream(node)`` into a
:class:`SolutionTable`".  Rows are materialized only at *pipeline
breakers*: a join's build side (``Join`` builds its left child,
``LeftJoin`` / ``FilterExists`` their auxiliary side, ``Minus`` both),
a full ``OrderBy``, and ``Group``'s final batch.  Every breaker that joins
probes the one join kernel, :class:`~.solution.JoinIndex`.  Every BGP
runs through one chunked expander (:meth:`Evaluator._match_bgp`); a
bounded consumer's ``hint`` only sizes its chunks.  ``Slice`` with a
limit stops upstream row production by not pulling, so ``LIMIT``-topped
queries exit early; ``TopK`` keeps ``offset + k`` rows of its child
stream in a bounded heap.  ``Group`` is a hash aggregation that folds
its child stream batch by batch into per-group accumulator states (no
input table exists), and the single-pattern COUNT shape is answered
straight from the graph indexes without producing rows at all
(:meth:`Evaluator._fast_group_count`).  The ``rows_pulled`` /
``early_exits`` / ``peak_batch_rows`` / ``groups_built`` counters on
:class:`EvaluationStats` make the short-circuiting observable.
"""

from __future__ import annotations

import heapq
import operator
import sys
import time
from collections import Counter
from itertools import chain
from decimal import Decimal
from operator import itemgetter
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..rdf.dataset import Dataset
from ..rdf.terms import (XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER, Literal,
                         Variable)
from . import algebra as alg
from .expressions import ExpressionError, VarExpr, ebv
from .optimizer import (GraphStatistics, Match, bgp_program,
                        order_patterns, statistics_memo)
from .solution import (JoinIndex, RowView, SolutionTable, TableStream,
                       batched, stream_distinct, table_minus)

#: Target rows per streamed batch.  Bounded consumers shrink it (a
#: ``LIMIT 10`` pulls batches of ~10), so early exit is row-accurate.
STREAM_BATCH_ROWS = 512


class EvaluationError(RuntimeError):
    """Raised when a query cannot be evaluated (e.g. missing graph)."""


class RowBudgetExceeded(EvaluationError):
    """The ``max_rows`` safety valve tripped.

    Distinguished from plain :class:`EvaluationError` so the serving tier
    can classify it as ``ResourceExhausted`` (deterministic — a retry runs
    the same query into the same wall) instead of a malformed query.
    """


class QueryTimeout(RuntimeError):
    """Raised when a query exceeds the engine's time budget.

    With a ``deadline`` set on the evaluator this trips *mid-query* — the
    pattern matcher checks the clock while rows are being produced — so a
    runaway cross product is abandoned instead of run to completion.
    """


def _synopses_built(graph) -> int:
    """Total statistics synopses built on a graph, union views included
    (a union's member builds land on the member counters)."""
    total = getattr(graph, "synopses_built", 0)
    for member in getattr(graph, "graphs", ()):
        total += member.synopses_built
    return total


def _repeated_bgps(root: alg.AlgebraNode) -> FrozenSet[int]:
    """The ``id`` of every BGP node whose pattern set occurs more than
    once under ``root`` — the common subexpressions worth caching."""
    bgps = [bgp for bgp in alg.collect_bgps(root) if bgp.triples]
    if len(bgps) < 2:
        return frozenset()
    seen = Counter(frozenset(bgp.triples) for bgp in bgps)
    return frozenset(id(bgp) for bgp in bgps
                     if seen[frozenset(bgp.triples)] > 1)


class EvaluationStats:
    """Counters exposed for tests and the ablation benchmarks."""

    def __init__(self):
        self.bgp_count = 0
        self.bgp_cache_hits = 0
        self.pattern_matches = 0
        self.intermediate_rows = 0
        self.materialized_subqueries = 0
        self.joins = 0
        # Streaming-executor counters.  ``rows_pulled`` counts every row
        # crossing an operator's stream boundary (a row passing through k
        # streaming operators counts k times); on an early-exiting query it
        # stays near k * LIMIT instead of the intermediate cardinality.
        # ``early_exits`` counts operators that stopped pulling from their
        # child because a row bound was satisfied; ``peak_batch_rows`` is
        # the largest single batch seen (breakers emit one table-sized
        # batch, pipelined operators stay at the configured batch size).
        self.rows_pulled = 0
        self.early_exits = 0
        self.peak_batch_rows = 0
        # Aggregation counters.  ``groups_built`` counts distinct groups
        # materialized by Group operators (hash entries or index-backed
        # groups); ``accumulator_rows`` counts input rows folded into
        # streaming per-group accumulator states — the streaming Group's
        # working-set proxy (the index-backed fast path folds zero).
        self.groups_built = 0
        self.accumulator_rows = 0
        # Join-subsystem counters.  ``sip_filtered_rows`` counts candidate
        # bindings a sideways-information-passing filter dropped at a BGP
        # leaf (rows that never existed thanks to a join build side's
        # exported key set); ``intersect_steps`` counts k-way sorted-run
        # intersections executed by multiway BGP steps (one per input row
        # per intersection step); ``sorted_runs_built`` counts sorted runs
        # lazily built on the graphs this query touched (cached runs
        # reused by later queries count zero).
        self.sip_filtered_rows = 0
        self.intersect_steps = 0
        self.sorted_runs_built = 0
        # Generic-join (WCOJ) counters.  ``wcoj_steps`` counts input rows
        # processed by generic-join variable-binding levels (each level is
        # a k-way sorted-run intersection; its internal probes also bump
        # ``intersect_steps``); ``synopsis_builds`` counts statistics
        # synopses (characteristic sets, per-predicate synopses) lazily
        # built on the graphs this query touched during evaluation —
        # synopses already built (at plan time or by earlier queries)
        # count zero, like the sorted runs.
        self.wcoj_steps = 0
        self.synopsis_builds = 0
        # Expression evaluations actually run: FILTER / BIND / OPTIONAL
        # conditions, HAVING and aggregate arguments are evaluated once
        # per distinct binding of the variables they read
        # (:func:`_expression_reader`), so this counts memo misses.
        self.expression_evals = 0
        # Always 0: the operators exchange only row-tuple lists, so no
        # batch is ever transposed back to rows.  Kept because the frozen
        # ledger's ``STAT_FIELDS`` reads it; it goes in the ledger
        # re-baseline PR.
        self.row_fallbacks = 0

    def __repr__(self):
        return ("EvaluationStats(bgps=%d, cache_hits=%d, matches=%d, "
                "rows=%d, subqueries=%d, joins=%d, pulled=%d, "
                "early_exits=%d, peak_batch=%d, groups=%d, acc_rows=%d, "
                "sip_filtered=%d, intersects=%d, runs_built=%d, "
                "wcoj=%d, synopses=%d, expression_evals=%d, "
                "fallbacks=%d)" % (
                    self.bgp_count, self.bgp_cache_hits,
                    self.pattern_matches, self.intermediate_rows,
                    self.materialized_subqueries, self.joins,
                    self.rows_pulled, self.early_exits,
                    self.peak_batch_rows, self.groups_built,
                    self.accumulator_rows, self.sip_filtered_rows,
                    self.intersect_steps, self.sorted_runs_built,
                    self.wcoj_steps, self.synopsis_builds,
                    self.expression_evals, self.row_fallbacks))

    def as_dict(self) -> Dict[str, int]:
        return {"bgp_count": self.bgp_count,
                "bgp_cache_hits": self.bgp_cache_hits,
                "pattern_matches": self.pattern_matches,
                "intermediate_rows": self.intermediate_rows,
                "materialized_subqueries": self.materialized_subqueries,
                "joins": self.joins,
                "rows_pulled": self.rows_pulled,
                "early_exits": self.early_exits,
                "peak_batch_rows": self.peak_batch_rows,
                "groups_built": self.groups_built,
                "accumulator_rows": self.accumulator_rows,
                "sip_filtered_rows": self.sip_filtered_rows,
                "intersect_steps": self.intersect_steps,
                "sorted_runs_built": self.sorted_runs_built,
                "wcoj_steps": self.wcoj_steps,
                "synopsis_builds": self.synopsis_builds,
                "expression_evals": self.expression_evals,
                "row_fallbacks": self.row_fallbacks}


class Evaluator:
    """Evaluates an algebra tree against a dataset on the production plane."""

    def __init__(self, dataset: Dataset, max_rows: Optional[int] = None,
                 deadline: Optional[float] = None, cancel=None):
        self.dataset = dataset
        self.max_rows = max_rows  # safety valve for runaway queries
        # Absolute time.perf_counter() deadline; checked between operators
        # and inside the pattern matcher's row production.
        self.deadline = deadline
        # Cooperative cancellation: a CancelToken checked at the same
        # checkpoints as the deadline, so a disconnecting client kills its
        # query mid-operator instead of running it to completion.
        self.cancel = cancel
        # Active sideways filters: variable name -> set of admissible term
        # ids, installed by join operators around their probe side and
        # consulted by the BGP pattern steps.  Always {} at quiescence.
        self._sip: Dict[str, set] = {}
        self.stats = EvaluationStats()
        self.dictionary = None  # set when the query's graphs are resolved
        self._graph_stats = statistics_memo()
        # Common-subexpression cache: identical BGPs (e.g. the repeated
        # pattern inside a full-outer-join's UNION branches) are evaluated
        # once per query.  ``_repeated`` holds the ids of the BGP nodes
        # whose pattern set occurs more than once in the query — only
        # those are worth holding on to; the cache maps their key to the
        # schema and batches the first occurrence produced, published
        # once its stream ran to the end.  Consumers never mutate
        # batches, so sharing is safe.
        self._repeated: FrozenSet[int] = frozenset()
        self._bgp_cache: Dict[Tuple, List] = {}

    # ------------------------------------------------------------------
    def _resolve_graphs(self, from_graphs: List[str],
                        default_graph_uri: Optional[str]):
        if from_graphs:
            missing = [u for u in from_graphs if u not in self.dataset]
            if missing:
                raise EvaluationError("unknown graph(s): %s" % ", ".join(missing))
            if len(from_graphs) == 1:
                return self.dataset.graph(from_graphs[0])
            return self.dataset.union_view(from_graphs)
        if default_graph_uri is not None:
            return self.dataset.graph(default_graph_uri)
        graphs = list(self.dataset)
        if len(graphs) == 1:
            return graphs[0]
        return self.dataset.union_view()

    # ------------------------------------------------------------------
    # Entry points.  Operators with a ``_stream_`` form pipeline their
    # input; schemas are computed statically, so constructing a stream
    # never pulls a row.  Breakers embedded in a subtree do their work
    # when the subtree's stream is *constructed* (the build side of a
    # join must exist before the first probe).
    # ------------------------------------------------------------------
    def evaluate_plan_stream(self, plan,
                             default_graph_uri: Optional[str] = None,
                             hint: Optional[int] = None) -> TableStream:
        """Evaluate an optimized :class:`~.plan.Plan` to a stream.

        The evaluator makes no physical decision of its own: each
        operator follows the annotations the planner left on its node
        (the step ``program`` on BGPs, ``sip_eligible`` on joins).
        """
        self.stats.materialized_subqueries = plan.subqueries
        return self.evaluate_query_stream(plan.query, default_graph_uri,
                                          hint)

    def evaluate_query_stream(self, query: alg.Query,
                              default_graph_uri: Optional[str] = None,
                              hint: Optional[int] = None) -> TableStream:
        """Evaluate a query to a stream of row batches.

        ``hint`` caps the root batch size — cursors pulling small pages
        pass a small one so each pull stays proportional to the page.
        """
        graph = self._resolve_graphs(query.from_graphs, default_graph_uri)
        self.dictionary = graph.dictionary
        self._repeated = _repeated_bgps(query.pattern)
        # Stream operators compile eagerly (only row production defers),
        # so synopsis builds they trigger are visible once the stream is
        # constructed.
        before = _synopses_built(graph)
        try:
            return self.stream(query.pattern, graph, hint)
        finally:
            self.stats.synopsis_builds += _synopses_built(graph) - before

    def stream(self, node: alg.AlgebraNode, graph,
               hint: Optional[int] = None) -> TableStream:
        """Evaluate ``node`` to a stream of row batches.

        ``hint`` is a *batch-size* hint from a bounded consumer (``Slice``
        passes ``offset + limit`` down): producers emit batches no larger
        than it so early exit is row-accurate.  It never changes results —
        only how much is in flight per pull.
        """
        if self.cancel is not None:
            self.cancel.raise_if_cancelled()
        if self.deadline is not None \
                and time.perf_counter() > self.deadline:
            raise QueryTimeout("query exceeded its time budget at %r" % node)
        method = getattr(self, "_stream_%s" % type(node).__name__.lower(),
                         None)
        if method is None:
            raise EvaluationError("cannot evaluate %r" % node)
        return method(node, graph, hint)

    def evaluate(self, node: alg.AlgebraNode, graph) -> SolutionTable:
        """Drain ``stream(node)`` into a table — what a pipeline breaker
        calls for the side it must hold whole.  This is the checkpoint
        that counts ``intermediate_rows`` (rows held at breakers, not
        rows that merely flowed through a pipeline) and enforces
        ``max_rows``.
        """
        table = self.stream(node, graph).to_table()
        self.stats.intermediate_rows += len(table.rows)
        if self.max_rows is not None and len(table.rows) > self.max_rows:
            raise RowBudgetExceeded("intermediate result exceeds max_rows=%d"
                                    % self.max_rows)
        return table

    # ------------------------------------------------------------------
    # Pattern evaluation
    # ------------------------------------------------------------------
    def _bgp_program(self, node: alg.BGP, graph) -> Tuple:
        """The step program to run for ``node``: the planner's
        ``node.program``, or in-order matches for a BGP it gave none.

        An active sideways filter that touches a non-``wcoj`` BGP first
        re-orders its patterns (:meth:`_order_for_sip`); an ``intersect``
        BGP then gets :func:`~.optimizer.bgp_program` over the new order,
        any other matches it in order.
        """
        patterns = node.triples
        strategy = getattr(node, "strategy", None)
        if strategy != "wcoj" and len(patterns) > 1 \
                and self._sip_touches(patterns):
            patterns = self._order_for_sip(patterns, graph)
            if strategy == "intersect":
                return bgp_program(patterns, self._graph_stats(graph))
        elif getattr(node, "program", None) is not None:
            return node.program
        return tuple(Match(q) for q in patterns)

    def _sip_touches(self, patterns) -> bool:
        """True when an active sideways filter names a pattern variable
        (the BGP is then re-ordered so the filtered leaves lead)."""
        sip = self._sip
        if not sip:
            return False
        for triple in patterns:
            for term in triple:
                if isinstance(term, Variable) and term.name in sip:
                    return True
        return False

    def _sip_exports(self, table: SolutionTable, probe) -> Optional[Dict]:
        """The join-key id-sets a build side exports toward a probe.

        One set per variable that (a) the probe has in scope and (b) is
        bound in *every* build row — an unbound build cell joins with any
        probe value, so such variables export nothing.  A probe candidate
        whose id is outside the set cannot join any build row, which is
        what lets the BGP leaves drop it before a row exists.
        """
        if not table.rows:
            return None
        probe_vars = set(probe.in_scope())
        exports: Dict[str, set] = {}
        for pos, var in enumerate(table.variables):
            if var not in probe_vars:
                continue
            values = set()
            add = values.add
            bound_everywhere = True
            for row in table.rows:
                tid = row[pos]
                if tid is None:
                    bound_everywhere = False
                    break
                add(tid)
            if bound_everywhere:
                exports[var] = values
        return exports or None

    def _sip_merge(self, exports: Dict) -> Dict:
        """Merge fresh exports into the active scope.  A variable filtered
        by two enclosing joins keeps the intersection of both sets."""
        if not self._sip:
            return exports
        merged = dict(self._sip)
        for var, values in exports.items():
            prev = merged.get(var)
            merged[var] = values if prev is None else (prev & values)
        return merged

    def _order_for_sip(self, patterns, graph):
        """Re-order a sideways-filtered BGP so the filtered leaves lead.

        The plan-time join order was chosen without knowing the build
        side's key sets; with them in hand, a pattern binding a filtered
        variable is far more selective than its base estimate (the filter
        keeps ``|set|`` of the variable's distinct values).  Re-running
        the greedy ordering with discounted estimates starts the probe at
        the semi-join filter instead of dragging the full scan first —
        the classic magic-sets effect, per execution and only for BGPs a
        filter actually touches."""
        return order_patterns(patterns,
                              _SipAwareStats(self._graph_stats(graph),
                                             self._sip, graph))

    # -- BGP evaluation ------------------------------------------------

    def _pattern_plan(self, pattern, schema: List[str], graph):
        """Compile one triple pattern into ``(new_schema, step)``.

        ``step(rows, append)`` extends each input row (positionally aligned
        with the *old* schema) with the pattern's id-level matches, calling
        ``append`` per output row.  The bound/free shape is analyzed here,
        once per pattern, so the specialized index probe it returns is
        reusable for any number of row chunks.
        Every constant term must be known to the dictionary
        (:meth:`_bgp_steps` checks before compiling).

        When a sideways-information-passing scope is active
        (``self._sip``), the step additionally drops candidate bindings
        for filtered fresh variables at the index probe itself — the
        pruned combination never becomes a row — and counts them in
        ``stats.sip_filtered_rows``.
        """
        lookup = self.dictionary.lookup
        sip = self._sip
        index = {v: i for i, v in enumerate(schema)}
        schema = list(schema)
        # A slot per position: ('c', id) constant, ('b', col) bound var,
        # ('n', k) k-th newly-introduced var (repeats share one k).
        slots = []
        new_pos: Dict[str, int] = {}
        for term in pattern:
            if isinstance(term, Variable):
                name = term.name
                col = index.get(name)
                if col is not None:
                    slots.append(("b", col))
                elif name in new_pos:
                    slots.append(("n", new_pos[name]))
                else:
                    k = len(new_pos)
                    new_pos[name] = k
                    schema.append(name)
                    slots.append(("n", k))
            else:
                slots.append(("c", lookup(term)))

        (s_kind, s_val), (p_kind, p_val), (o_kind, o_val) = slots
        n_new = len(new_pos)
        stats = self.stats

        # The bound/free shape of the pattern is fixed across rows ('b'
        # columns are always bound inside a BGP), so dispatch to a
        # specialized index probe once per *pattern*, not once per row.
        s_free = s_kind == "n"
        p_free = p_kind == "n"
        o_free = o_kind == "n"

        def val_of(kind, val):
            if kind == "c":
                return lambda row, v=val: v
            return lambda row, c=val: row[c]

        if not p_free and not s_free and not o_free:
            # Fully bound: a containment probe per row.
            s_of, p_of, o_of = (val_of(s_kind, s_val), val_of(p_kind, p_val),
                                val_of(o_kind, o_val))
            contains = graph.contains_ids

            def step(rows, append):
                matches = 0
                for row in rows:
                    if contains(s_of(row), p_of(row), o_of(row)):
                        matches += 1
                        append(row)
                stats.pattern_matches += matches
        elif not p_free and not s_free and o_free:
            # Forward expansion: (s, p) -> objects.  The classic
            # index-nested-loop step of the paper's flat queries.
            s_of, p_of = val_of(s_kind, s_val), val_of(p_kind, p_val)
            objects_for = graph.objects_for
            o_filter = sip.get(pattern[2].name) if sip else None

            if o_filter is None:
                def step(rows, append):
                    matches = 0
                    for row in rows:
                        objs = objects_for(s_of(row), p_of(row))
                        if objs:
                            matches += len(objs)
                            for o in objs:
                                append(row + (o,))
                    stats.pattern_matches += matches
            else:
                def step(rows, append):
                    matches = 0
                    dropped = 0
                    for row in rows:
                        objs = objects_for(s_of(row), p_of(row))
                        if objs:
                            matches += len(objs)
                            for o in objs:
                                if o in o_filter:
                                    append(row + (o,))
                                else:
                                    dropped += 1
                    stats.pattern_matches += matches
                    stats.sip_filtered_rows += dropped
        elif not p_free and s_free and not o_free:
            # Backward expansion: (p, o) -> subjects.
            p_of, o_of = val_of(p_kind, p_val), val_of(o_kind, o_val)
            subjects_for = graph.subjects_for
            s_filter = sip.get(pattern[0].name) if sip else None

            if s_filter is None:
                def step(rows, append):
                    matches = 0
                    for row in rows:
                        subs = subjects_for(p_of(row), o_of(row))
                        if subs:
                            matches += len(subs)
                            for s in subs:
                                append(row + (s,))
                    stats.pattern_matches += matches
            else:
                def step(rows, append):
                    matches = 0
                    dropped = 0
                    for row in rows:
                        subs = subjects_for(p_of(row), o_of(row))
                        if subs:
                            matches += len(subs)
                            for s in subs:
                                if s in s_filter:
                                    append(row + (s,))
                                else:
                                    dropped += 1
                    stats.pattern_matches += matches
                    stats.sip_filtered_rows += dropped
        elif not p_free and s_free and o_free and p_kind == "c":
            # Predicate scan with a constant predicate: materialize the
            # (s, o) pairs once and reuse them for every input row (the
            # graph memoizes the materialization across queries).
            pairs = graph.so_pairs_list(p_val)
            if slots[0][1] == slots[2][1]:  # ?x p ?x — one new column
                hits = [(s,) for s, o in pairs if s == o]
            else:
                hits = pairs
            dropped_per_row = 0
            if sip:
                # Filter the materialized pairs once at compile time; the
                # per-input-row drop count keeps the counter's meaning
                # (candidate bindings pruned) identical to the row-driven
                # shapes.
                s_filter = sip.get(pattern[0].name)
                o_filter = sip.get(pattern[2].name)
                if s_filter is not None or o_filter is not None:
                    kept = [extra for extra in hits
                            if (s_filter is None or extra[0] in s_filter)
                            and (o_filter is None or extra[-1] in o_filter)]
                    dropped_per_row = len(hits) - len(kept)
                    hits = kept

            def step(rows, append):
                matches = 0
                n_rows = 0
                for row in rows:
                    n_rows += 1
                    matches += len(pairs)
                    for extra in hits:
                        append(row + extra)
                stats.pattern_matches += matches
                if dropped_per_row:
                    stats.sip_filtered_rows += dropped_per_row * n_rows
        else:
            # General shape (variable predicate, or repeated fresh
            # variables across positions): slot-interpreting loop.
            triples_ids = graph.triples_ids
            filters_by_slot = {}
            if sip:
                for name, k in new_pos.items():
                    flt = sip.get(name)
                    if flt is not None:
                        filters_by_slot[k] = flt

            def step(rows, append):
                matches = 0
                dropped = 0
                for row in rows:
                    s = None if s_free else (s_val if s_kind == "c"
                                             else row[s_val])
                    p = None if p_free else (p_val if p_kind == "c"
                                             else row[p_val])
                    o = None if o_free else (o_val if o_kind == "c"
                                             else row[o_val])
                    for matched in triples_ids(s, p, o):
                        matches += 1
                        extras = [None] * n_new
                        ok = True
                        for (kind, val), tid in zip(slots, matched):
                            if kind == "n":
                                prev = extras[val]
                                if prev is None:
                                    flt = filters_by_slot.get(val)
                                    if flt is not None and tid not in flt:
                                        dropped += 1
                                        ok = False
                                        break
                                    extras[val] = tid
                                elif prev != tid:
                                    # Repeated variable must agree.
                                    ok = False
                                    break
                        if ok:
                            append(row + tuple(extras))
                stats.pattern_matches += matches
                if dropped:
                    stats.sip_filtered_rows += dropped

        return schema, step

    def _guarded_append(self, out: List[tuple]):
        """The row sink for pattern matching.

        The plain ``list.append`` on the hot path; when a row budget, a
        deadline or a cancel token is armed, a wrapper that runs
        :meth:`_check_valves` on the row that passes the budget and on
        every 1024th row — an exploding cross product is abandoned
        mid-pattern instead of materialized and then rejected.
        """
        if self.max_rows is None and self.deadline is None \
                and self.cancel is None:
            return out.append
        raw_append = out.append
        limit = sys.maxsize if self.max_rows is None else self.max_rows
        check = self._check_valves

        def append(row):
            raw_append(row)
            n = len(out)
            if n > limit or not (n & 1023):
                check(n, "mid-pattern")

        return append

    def _check_valves(self, produced: int, where: str):
        """The safety valves, in one place: the ``max_rows`` budget,
        cancellation and the deadline.

        Every loop that produces rows calls it with the rows produced so
        far: the pattern row sink (:meth:`_guarded_append`), each
        operator's output stream (:meth:`_meter`) and ``Group``'s emit
        every 1024 groups — runaway work is abandoned mid-way instead of
        finished and then rejected.  ``where`` names the checkpoint in
        the error.  ``self.deadline`` is read here, not captured at
        compile time, so an armed or re-armed deadline takes effect at
        the next check.
        """
        if self.max_rows is not None and produced > self.max_rows:
            raise RowBudgetExceeded(
                "intermediate result exceeds max_rows=%d (tripped %s)"
                % (self.max_rows, where))
        if self.cancel is not None:
            self.cancel.raise_if_cancelled()
        if self.deadline is not None \
                and time.perf_counter() > self.deadline:
            raise QueryTimeout(
                "query exceeded its time budget after %d rows (tripped %s)"
                % (produced, where))

    def _fast_group_count(self, node: alg.Group, graph):
        """Index-backed ``GROUP BY`` counting — no rows are produced.

        Applies to ``Group(BGP)`` over a *single* triple pattern with a
        constant predicate and distinct subject/object variables, grouped
        by one of them, where every aggregate is a COUNT over the
        pattern's variables (or ``COUNT(*)``), on one graph.  On a
        set-semantics triple store each such count equals the group's row
        count, which the SPO/POS indexes answer directly
        (:meth:`Graph.subject_group_counts` /
        :meth:`Graph.object_group_counts`): the whole aggregation runs in
        one index sweep with zero solution rows, zero hashing, and zero
        term decoding.  Group order matches the row-producing path (the
        first-seen order of the ``so_pairs`` scan), so the result is
        identical — not merely bag-equal — to the general path's.

        Returns the ``(group id, count)`` pairs for
        :meth:`_emit_groups`, or ``None`` when the shape does not apply.
        """
        pattern = node.pattern
        if not isinstance(pattern, alg.BGP) or len(pattern.triples) != 1:
            return None
        if len(node.group_vars) != 1:
            return None
        s_term, p_term, o_term = pattern.triples[0]
        if isinstance(p_term, Variable) or not isinstance(s_term, Variable) \
                or not isinstance(o_term, Variable):
            return None
        s_name, o_name = s_term.name, o_term.name
        if s_name == o_name:
            return None
        gvar = node.group_vars[0]
        if gvar not in (s_name, o_name):
            return None
        for aggregate in node.aggregates:
            if aggregate.function != "count":
                return None
            expr = aggregate.expression
            if expr is None:  # COUNT(*): counts the group's rows
                if aggregate.distinct:
                    return None
                continue
            if type(expr) is not VarExpr or expr.name not in (s_name, o_name):
                return None
            if aggregate.distinct and expr.name == gvar:
                # COUNT(DISTINCT ?g) GROUP BY ?g is 1, not the row count.
                return None

        # A union view has no group-count index: it takes the general
        # Group path, which reads the same deduplicated (s, o) pairs.
        group_counts = getattr(graph, "subject_group_counts" if gvar == s_name
                               else "object_group_counts", None)
        if group_counts is None:
            return None
        self.stats.bgp_count += 1
        pid = self.dictionary.lookup(p_term)
        if pid is None:
            return iter(())
        return group_counts(pid)

    def _sip_for_group(self, node: alg.Group) -> Dict:
        """Restrict the active scope to the Group's grouping variables.

        Pruning a grouping key removes whole groups that could not join
        anyway; pruning anything else would corrupt surviving groups'
        aggregates, so other filters are suspended below a Group."""
        return {v: s for v, s in self._sip.items() if v in node.group_vars}

    def _order_key(self, index: Dict[str, int], keys):
        """One composite, direction-aware sort key for ``ORDER BY``.

        Builds a single ``row -> tuple`` function covering every sort key
        (descending components wrapped in :class:`_Desc`), so a multi-key
        ORDER BY is one stable sort instead of one full re-sort per key.
        Keys naming variables absent from the schema are skipped (unbound
        everywhere — a stable no-op, as before).  Decoded key values are
        memoized per term id: a column with many repeated terms pays one
        decode per distinct term, not one per row.
        """
        decode = self.dictionary.decode
        # One memo per key: maps term id -> finished key component
        # (direction wrapper included, so ids repeat their component
        # without re-decoding or re-wrapping).
        specs = [(index[var], direction == "desc", {})
                 for var, direction in keys if var in index]

        def key(row):
            parts = []
            for pos, desc, cache in specs:
                tid = row[pos]
                part = cache.get(tid)
                if part is None:
                    part = _sort_key(None if tid is None else decode(tid))
                    if desc:
                        part = _Desc(part)
                    cache[tid] = part
                parts.append(part)
            return tuple(parts)

        return key

    # ------------------------------------------------------------------
    # Stream plumbing
    # ------------------------------------------------------------------
    def _cap(self, hint: Optional[int]) -> int:
        if hint is None or hint <= 0:
            return STREAM_BATCH_ROWS
        return min(STREAM_BATCH_ROWS, hint)

    def _meter(self, batches):
        """Instrument one operator's output stream.

        Counts rows crossing the boundary (``rows_pulled``), tracks the
        largest batch (``peak_batch_rows``), and runs the safety valves
        (:meth:`_check_valves`) on every batch, so runaway production is
        abandoned while streaming, not after.
        """
        stats = self.stats
        check = self._check_valves
        produced = 0
        for batch in batches:
            n = len(batch)
            if not n:
                continue
            produced += n
            stats.rows_pulled += n
            if n > stats.peak_batch_rows:
                stats.peak_batch_rows = n
            check(produced, "on streamed rows")
            yield batch

    # -- producers -----------------------------------------------------

    def _bgp_steps(self, node: alg.BGP, program, graph):
        """Instantiate a BGP step program (:func:`~.optimizer.bgp_program`)
        against ``graph``; the evaluator decides nothing about the BGP.

        A :class:`~.optimizer.Match` compiles to an index probe
        (:meth:`_pattern_plan`), an :class:`~.optimizer.Intersect` to a
        sorted-run intersection (:meth:`_intersection_step`), and a
        generic-join level also counts its input rows in ``wcoj_steps``.
        Returns ``(schema, steps)``.  A constant of the BGP unknown to the
        dictionary leaves one step that matches nothing, under a schema
        that names every BGP variable.
        """
        lookup = self.dictionary.lookup
        if any(lookup(term) is None for triple in node.triples
               for term in triple if not isinstance(term, Variable)):
            return node.in_scope(), [lambda rows, append: None]
        stats = self.stats
        schema: List[str] = []
        steps = []
        for op in program:
            if isinstance(op, Match):
                schema, step = self._pattern_plan(op.pattern, schema, graph)
            else:
                step = self._intersection_step(
                    op.var, *self._resolve_run_signatures(op.signatures,
                                                          schema), graph)
                schema = schema + [op.var]
            if op.level:
                def step(rows, append, _inner=step):
                    # One wcoj step per input row per level; an
                    # intersection's probes keep bumping intersect_steps.
                    stats.wcoj_steps += len(rows)
                    _inner(rows, append)
            steps.append(step)
        return schema, steps

    def _resolve_run_signatures(self, signatures, schema: List[str]):
        """Resolve :func:`~.optimizer.run_signature` tuples into operand
        specs for :meth:`_intersection_step`: ``static_specs`` are
        ``(kind, pid, oid|None)`` constant-keyed runs, ``row_specs`` are
        ``(kind, pid, column)`` runs re-seeded from a bound row column.
        """
        lookup = self.dictionary.lookup
        static_specs = []
        row_specs = []
        for kind, predicate, *other in signatures:
            pid = lookup(predicate)
            if kind == "psubjects":
                static_specs.append((kind, pid, None))
            elif isinstance(other[0], tuple):  # ("?", name): bound column
                row_specs.append((kind, pid, schema.index(other[0][1])))
            else:
                static_specs.append((kind, pid, lookup(other[0])))
        return static_specs, row_specs

    def _intersection_step(self, var: str, static_specs, row_specs, graph):
        """Build the executable step for one intersection binding.

        Operand handling is leapfrog-style but asymmetric, which is what
        makes it fast in CPython: the narrowest operand becomes the
        sorted-run iteration seed and every other operand an O(1)
        membership probe (the graph's native index sets), so the work is
        ``O(min operand)`` with constant-time elimination — the same
        candidates the galloping :func:`~repro.rdf.graph.intersect_runs`
        would produce, at hash-probe instead of binary-search constants.
        *Static* operands (constant-keyed and predicate-subject runs) are
        merged once at compile time; *row-keyed* operands are re-seeded
        per input row.  Because every seed is sorted, candidates always
        emerge in ascending id order no matter which operand was
        smallest, keeping row order deterministic across executors and
        strategies.
        """
        stats = self.stats
        objects_for = graph.objects_for
        subjects_for = graph.subjects_for
        objects_run = graph.objects_run
        subjects_run = graph.subjects_run
        psubjects_run = graph.predicate_subjects_run

        def track(fetch, *args):
            before = graph.sorted_runs_built
            run = fetch(*args)
            built = graph.sorted_runs_built - before
            if built:
                stats.sorted_runs_built += built
            return run

        def dead_step(rows, append):
            # Some operand is statically empty: the step matches nothing,
            # ever, but the schema still gains the variable.
            return

        static_runs: List[tuple] = []
        static_members: List = []
        for kind, pid, other in static_specs:
            if kind == "psubjects":
                run = track(psubjects_run, pid)
                members = graph.predicate_subjects_set(pid)
            elif kind == "subjects":
                run = track(subjects_run, pid, other)
                members = subjects_for(pid, other)
            else:  # objects: constant subject `other`, predicate pid
                run = track(objects_run, other, pid)
                members = objects_for(other, pid)
            if not run:
                return dead_step
            static_runs.append(run)
            static_members.append(members)
        static_candidates = None
        static_set = None
        if static_runs:
            if len(static_runs) > 1:
                # Merge the static operands once at compile time: iterate
                # the narrowest sorted run, eliminate against the others'
                # membership sets.  Every per-input-row execution then
                # starts from the merged candidate list.
                stats.intersect_steps += 1
                seed_at = min(range(len(static_runs)),
                              key=lambda i: len(static_runs[i]))
                merged = static_runs[seed_at]
                for i, members in enumerate(static_members):
                    if i != seed_at:
                        merged = [tid for tid in merged if tid in members]
                if not merged:
                    return dead_step
                static_candidates = merged
            else:
                static_candidates = static_runs[0]

        sip_filter = self._sip.get(var) if self._sip else None

        if not row_specs:
            # Every operand is static: the intersection is already done.
            matched = static_candidates
            dropped = 0
            if sip_filter is not None:
                kept = [tid for tid in matched if tid in sip_filter]
                dropped = len(matched) - len(kept)
                matched = kept

            def static_step(rows, append):
                n_rows = 0
                for row in rows:
                    n_rows += 1
                    for tid in matched:
                        append(row + (tid,))
                # Count candidates before the SIP drop, exactly like the
                # nested-loop shapes, so pattern_matches means the same
                # thing under every strategy.
                stats.pattern_matches += (len(matched) + dropped) * n_rows
                stats.sip_filtered_rows += dropped * n_rows

            return static_step

        set_fetchers = []
        run_fetchers = []
        for kind, pid, col in row_specs:
            if kind == "subjects":
                set_fetchers.append(lambda row, _p=pid, _c=col:
                                    subjects_for(_p, row[_c]))
                run_fetchers.append(lambda row, _p=pid, _c=col:
                                    track(subjects_run, _p, row[_c]))
            else:  # objects keyed by a bound subject column
                set_fetchers.append(lambda row, _p=pid, _c=col:
                                    objects_for(row[_c], _p))
                run_fetchers.append(lambda row, _p=pid, _c=col:
                                    track(objects_run, row[_c], _p))
        n_row = len(set_fetchers)

        def finish(row, matched, append):
            # pattern_matches counts pre-filter candidates (same meaning
            # as the nested-loop shapes); SIP drops are tracked apart.
            # The specialized shapes below inline this and batch the
            # counter updates per step call — keep their accounting in
            # sync with any change here.
            stats.pattern_matches += len(matched)
            if sip_filter is not None:
                kept = [tid for tid in matched if tid in sip_filter]
                stats.sip_filtered_rows += len(matched) - len(kept)
                matched = kept
            for tid in matched:
                append(row + (tid,))

        if n_row == 1 and static_candidates is not None:
            # One static operand list, one row-keyed operand: the
            # dominant anchored shape (e.g. candidates ∩ (p, o_row)).
            get0, run0 = set_fetchers[0], run_fetchers[0]
            static_len = len(static_candidates)
            if static_set is None:
                static_set = frozenset(static_candidates)

            def step(rows, append):
                steps = 0
                candidates = 0
                for row in rows:
                    members = get0(row)
                    if not members:
                        continue
                    steps += 1
                    if static_len <= len(members):
                        matched = [tid for tid in static_candidates
                                   if tid in members]
                    else:
                        matched = [tid for tid in run0(row)
                                   if tid in static_set]
                    candidates += len(matched)
                    if sip_filter is not None:
                        kept = [tid for tid in matched if tid in sip_filter]
                        stats.sip_filtered_rows += len(matched) - len(kept)
                        matched = kept
                    for tid in matched:
                        append(row + (tid,))
                stats.intersect_steps += steps
                stats.pattern_matches += candidates

            return step

        if n_row == 2 and static_candidates is None:
            # Two row-keyed operands: the cyclic-join shape.
            get0, run0 = set_fetchers[0], run_fetchers[0]
            get1, run1 = set_fetchers[1], run_fetchers[1]

            def step(rows, append):
                steps = 0
                candidates = 0
                for row in rows:
                    first = get0(row)
                    if not first:
                        continue
                    second = get1(row)
                    if not second:
                        continue
                    steps += 1
                    if len(first) <= len(second):
                        matched = [tid for tid in run0(row)
                                   if tid in second]
                    else:
                        matched = [tid for tid in run1(row)
                                   if tid in first]
                    candidates += len(matched)
                    if sip_filter is not None:
                        kept = [tid for tid in matched if tid in sip_filter]
                        stats.sip_filtered_rows += len(matched) - len(kept)
                        matched = kept
                    for tid in matched:
                        append(row + (tid,))
                stats.intersect_steps += steps
                stats.pattern_matches += candidates

            return step

        if static_candidates is not None and static_set is None:
            static_set = frozenset(static_candidates)

        def step(rows, append):
            steps = 0
            for row in rows:
                row_sets = []
                dead = False
                for get_set in set_fetchers:
                    candidates = get_set(row)
                    if not candidates:
                        dead = True
                        break
                    row_sets.append(candidates)
                if dead:
                    continue
                steps += 1
                if static_candidates is not None and len(static_candidates) \
                        <= min(len(s) for s in row_sets):
                    seed = static_candidates
                    probes = row_sets
                else:
                    best = 0
                    best_len = len(row_sets[0])
                    for k in range(1, n_row):
                        if len(row_sets[k]) < best_len:
                            best = k
                            best_len = len(row_sets[k])
                    seed = run_fetchers[best](row)
                    probes = row_sets[:best] + row_sets[best + 1:]
                    if static_set is not None:
                        probes.append(static_set)
                if len(probes) == 1:
                    p0 = probes[0]
                    matched = [tid for tid in seed if tid in p0]
                elif len(probes) == 2:
                    p0, p1 = probes
                    matched = [tid for tid in seed
                               if tid in p0 and tid in p1]
                else:
                    matched = [tid for tid in seed
                               if all(tid in p for p in probes)]
                finish(row, matched, append)
            stats.intersect_steps += steps

        return step

    def _stream_bgp(self, node: alg.BGP, graph,
                    hint: Optional[int]) -> TableStream:
        self.stats.bgp_count += 1
        patterns = node.triples
        if not patterns:
            return TableStream((), self._meter(iter(([()],))))
        if id(node) not in self._repeated:
            return self._match_bgp(node, self._bgp_program(node, graph),
                                   graph, hint)
        # A repeated BGP is matched once for the whole query and
        # replayed, so it is matched without the sideways filters of
        # whichever occurrence happens to come first (sound: they only
        # drop rows the join above discards anyway).  Whether an earlier
        # occurrence has finished is only known when this one is pulled
        # (both branches of a UNION exist before either produces a row),
        # so the choice between replaying and matching waits until then.
        scope, self._sip = self._sip, {}
        try:
            program = self._bgp_program(node, graph)
            key = (id(graph), program)
            cached = self._bgp_cache.get(key)
            matched = None if cached is not None \
                else self._match_bgp(node, program, graph, hint)
        finally:
            self._sip = scope
        schema = matched.variables if cached is None else cached[0]
        return TableStream(schema, self._shared_batches(
            key, schema, matched, self._cap(hint)))

    def _shared_batches(self, key: Tuple, schema, matched, cap: int):
        """Batches of a repeated BGP: a replay of what an earlier
        occurrence produced, or ``matched``'s own — filed in the cache
        once that producer is exhausted, never from a partial pull (whose
        rows are only a prefix of the result)."""
        cached = self._bgp_cache.get(key)
        if cached is not None and cached[0] == schema:
            self.stats.bgp_cache_hits += 1
            yield from self._meter(chain.from_iterable(
                batched(batch, cap) for batch in cached[1]))
            return
        kept: List = []
        for batch in matched.batches:
            kept.append(batch)
            yield batch
        self._bgp_cache.setdefault(key, (schema, kept))

    def _match_bgp(self, node: alg.BGP, program, graph,
                   hint: Optional[int]) -> TableStream:
        """The one BGP driver: breadth-first expansion in chunks.

        The first step materializes once; then each chunk of at most
        ``self._cap(hint)`` rows runs through the remaining steps in
        tight per-level loops.  A bounded consumer's ``hint`` only sizes
        the chunks: a ``LIMIT`` that stops pulling leaves the remaining
        chunks unexpanded, and the row order (lexicographic probe order)
        is the same for every chunk size.
        """
        cap = self._cap(hint)
        schema, steps = self._bgp_steps(node, program, graph)
        first, rest = steps[0], steps[1:]
        n_rest = len(rest)

        def expand(rows, level):
            # Chunk at *every* level, not just the seed: a <= cap chunk
            # with high fan-out would otherwise expand through all
            # remaining patterns into one table-sized batch.  Working set
            # stays at one chunk's single-level fan-out; depth-first
            # recursion over chunks preserves the lexicographic row order.
            if level == n_rest:
                yield from batched(rows, cap)
                return
            step = rest[level]
            for start in range(0, len(rows), cap):
                out: List[tuple] = []
                step(rows[start:start + cap], self._guarded_append(out))
                if out:
                    yield from expand(out, level + 1)

        def batches():
            seed: List[tuple] = []
            first(((),), self._guarded_append(seed))
            if seed:
                yield from expand(seed, 0)

        return TableStream(schema, self._meter(batches()))

    def _stream_inlinedata(self, node: alg.InlineData, graph,
                           hint: Optional[int]) -> TableStream:
        encode = self.dictionary.encode
        rows = [tuple(None if value is None else encode(value)
                      for value in row)
                for row in node.rows]
        return TableStream(node.variables,
                           self._meter(batched(rows, self._cap(hint))))

    # -- row-wise operators (fully pipelined) --------------------------

    def _stream_filter(self, node: alg.Filter, graph,
                       hint: Optional[int]) -> TableStream:
        # The hint survives only as a batch-size bound: a filter may need
        # many input rows per surviving row, so it caps nothing.
        inner = self.stream(node.pattern, graph, hint)
        # Errors eliminate the solution.
        accept = _expression_reader(node.condition, inner.index,
                                    self.dictionary.decode, self.stats,
                                    ebv, False)

        def batches():
            for batch in inner.batches:
                keep = list(filter(accept, batch))
                if keep:
                    yield keep

        return TableStream(inner.variables, self._meter(batches()))

    def _stream_extend(self, node: alg.Extend, graph,
                       hint: Optional[int]) -> TableStream:
        # The parser rejects a target already in scope (SPARQL 1.1
        # §18.2.1), so the variable is always one new column.
        inner = self.stream(node.pattern, graph, hint)
        # The encoded id, so a repeated value skips the dictionary too; an
        # error leaves the variable unbound.
        value_of = _expression_reader(node.expression, inner.index,
                                      self.dictionary.decode, self.stats,
                                      self.dictionary.encode, None)

        def batches():
            for batch in inner.batches:
                yield [row + (value_of(row),) for row in batch]

        return TableStream(inner.variables + (node.var,),
                           self._meter(batches()))

    def _stream_project(self, node: alg.Project, graph,
                        hint: Optional[int]) -> TableStream:
        if node.variables is None or not self._sip:
            inner = self.stream(node.pattern, graph, hint)
        else:
            # A subquery's unprojected variables are its own: a filter on
            # an outer variable of the same name must not reach them.
            scope = self._sip
            self._sip = {v: s for v, s in scope.items()
                         if v in node.variables}
            try:
                inner = self.stream(node.pattern, graph, hint)
            finally:
                self._sip = scope
        if node.variables is None:
            # SELECT *: drop synthetic aggregate helper variables.
            keep = [v for v in inner.variables if not v.startswith("__agg_")]
            if len(keep) == len(inner.variables):
                return inner
            variables = keep
        else:
            variables = list(node.variables)
        positions = [inner.index.get(v) for v in variables]

        def batches():
            if None in positions:
                for batch in inner.batches:
                    yield [tuple([None if p is None else row[p]
                                  for p in positions]) for row in batch]
            elif len(positions) == 1:
                p0 = positions[0]
                for batch in inner.batches:
                    yield [(row[p0],) for row in batch]
            else:
                for batch in inner.batches:
                    yield [tuple([row[p] for p in positions])
                           for row in batch]

        return TableStream(variables, self._meter(batches()))

    def _stream_union(self, node: alg.Union, graph,
                      hint: Optional[int]) -> TableStream:
        left = self.stream(node.left, graph, hint)
        right = self.stream(node.right, graph, hint)
        out_vars = left.variables + tuple(v for v in right.variables
                                          if v not in left.index)
        pad = (None,) * (len(out_vars) - len(left.variables))
        rmap = [right.index.get(v) for v in out_vars]

        def batches():
            for batch in left.batches:
                yield [row + pad for row in batch] if pad else batch
            for batch in right.batches:
                yield [tuple(None if p is None else row[p] for p in rmap)
                       for row in batch]

        return TableStream(out_vars, self._meter(batches()))

    def _stream_distinct(self, node: alg.Distinct, graph,
                         hint: Optional[int]) -> TableStream:
        # A dedup typically consumes many duplicate rows per distinct row
        # it emits: inflate the child batch size so a bounded consumer
        # above (DISTINCT ... LIMIT k) doesn't drive the producer in
        # k-row micro-batches.
        child_hint = None if hint is None else max(hint * 16, 64)
        inner = self.stream(node.pattern, graph, child_hint)
        return TableStream(inner.variables,
                           self._meter(stream_distinct(inner.batches)))

    def _stream_graphpattern(self, node: alg.GraphPattern, graph,
                             hint: Optional[int]) -> TableStream:
        target = self.dataset.graph(node.graph_uri)
        return self.stream(node.pattern, target, hint)

    def _stream_slice(self, node: alg.Slice, graph,
                      hint: Optional[int]) -> TableStream:
        start = node.offset
        limit = node.limit
        need = None if limit is None else start + limit
        child_hint = hint if need is None \
            else (need if hint is None else min(hint, need))
        scope = self._sip
        self._sip = {}  # a window selects rows; pruning its input is unsound
        try:
            inner = self.stream(node.pattern, graph, child_hint)
        finally:
            self._sip = scope
        stats = self.stats

        def batches():
            if limit == 0:
                stats.early_exits += 1
                return
            seen = 0
            for batch in inner.batches:
                end = seen + len(batch)
                if end > start:
                    lo = max(0, start - seen)
                    hi = len(batch) if need is None \
                        else min(len(batch), need - seen)
                    piece = batch if lo == 0 and hi == len(batch) \
                        else batch[lo:hi]
                    if piece:
                        yield piece
                seen = end
                if need is not None and end >= need:
                    # The bound is satisfied: stop pulling.  Upstream
                    # producers past this point never run.
                    stats.early_exits += 1
                    close = getattr(inner.batches, "close", None)
                    if close is not None:
                        close()
                    return

        return TableStream(inner.variables, self._meter(batches()))

    # -- aggregation: streaming hash groups ----------------------------

    def _stream_group(self, node: alg.Group, graph,
                      hint: Optional[int]) -> TableStream:
        """Streaming hash aggregation: fold input batches into per-group
        accumulator states as they arrive, emit one final batch.

        ``Group`` is no longer a pipeline breaker: its input is *consumed*
        incrementally (the child BGP/join pipeline runs batch by batch and
        no input table is ever materialized); only the per-group states —
        one small accumulator per aggregate per group
        (:func:`_compile_aggregate`) — are held.  The single-pattern
        COUNT shape short-circuits to the index-backed
        :meth:`_fast_group_count` and touches no rows at all.  Both
        executors finish through :meth:`_emit_groups`.

        Group keys hash dense int-id tuples (scalar ids for the common
        one-variable GROUP BY), so group order is the first-seen order of
        the input stream.
        """
        if self._sip:
            allowed = self._sip_for_group(node)
            if len(allowed) != len(self._sip):
                scope = self._sip
                self._sip = allowed
                try:
                    return self._stream_group(node, graph, hint)
                finally:
                    self._sip = scope
        counts = self._fast_group_count(node, graph)
        if counts is not None:
            n_aggs = len(node.aggregates)
            finished: Dict[int, tuple] = {}  # count -> its aggregate terms

            def finish_count(count):
                terms = finished.get(count)
                if terms is None:
                    finished[count] = terms = (_count_literal(count),) * n_aggs
                return terms

            return self._emit_groups(node, counts, True, None, finish_count)
        inner = self.stream(node.pattern, graph, None)
        index = inner.index
        specs = [_compile_aggregate(a, index, self.dictionary.decode,
                                    self.stats)
                 for a in node.aggregates]
        positions = [index.get(v) for v in node.group_vars]
        # Scalar keys (the common one-variable GROUP BY) skip per-row
        # tuple construction; a single aggregate's state is the group's
        # state, with no list indirection per row.
        scalar = positions[0] if (len(positions) == 1
                                  and positions[0] is not None) else None
        if positions:
            def key_of(row):
                return tuple(None if p is None else row[p]
                             for p in positions)
        else:
            def key_of(row):  # implicit single group
                return ()
        if len(specs) == 1:
            new_state, fold, finish_one = specs[0]

            def finish(state):
                return (finish_one(state),)
        else:
            news, folds, finishes = zip(*specs)

            def new_state():
                return [new() for new in news]

            def fold(states, row):
                for fold_one, state in zip(folds, states):
                    fold_one(state, row)

            def finish(states):
                return [finish_one(state)
                        for finish_one, state in zip(finishes, states)]
        stats = self.stats

        def groups():
            groups: Dict = {}  # key -> aggregate state(s)
            get = groups.get
            folded = 0
            for batch in inner.batches:
                folded += len(batch)
                if scalar is not None:
                    for row in batch:
                        key = row[scalar]
                        state = get(key)
                        if state is None:
                            groups[key] = state = new_state()
                        fold(state, row)
                else:
                    for row in batch:
                        key = key_of(row)
                        state = get(key)
                        if state is None:
                            groups[key] = state = new_state()
                        fold(state, row)
            stats.accumulator_rows += folded
            yield from groups.items()

        return self._emit_groups(node, groups(), scalar is not None,
                                 new_state, finish)

    def _emit_groups(self, node: alg.Group, groups, scalar: bool,
                     new_state, finish) -> TableStream:
        """Finish a ``Group``: the one emit both executors share.

        ``groups`` yields ``(key, state)`` — a key id when ``scalar``, else
        a tuple of key ids — and ``finish(state)`` gives the aggregate
        terms (``None`` for unbound).  An implicit group (no GROUP BY) over
        empty input still emits one row, from ``new_state()`` (COUNT is 0).
        Each finished term is encoded; ``HAVING`` is evaluated over the
        finished row (grouping variables + aggregate aliases), where an
        error eliminates the group exactly like FILTER.  The safety valves
        are checked every 1024 groups, so an enormous sweep is abandoned
        mid-way.
        """
        out_vars = tuple(node.group_vars) + tuple(a.alias
                                                  for a in node.aggregates)
        out_index = {v: i for i, v in enumerate(out_vars)}
        # An error eliminates the group, as in FILTER.
        having = None if node.having is None else _expression_reader(
            node.having, out_index, self.dictionary.decode, self.stats,
            ebv, False)
        encode = self.dictionary.encode

        def implicit(groups):
            """An implicit group exists even over empty input."""
            empty = True
            for item in groups:
                empty = False
                yield item
            if empty:
                yield (), new_state()

        def batches():
            out_rows: List[tuple] = []
            # Finished terms repeat (counts are memoized literals): encode
            # each object once.  The memo holds the term, so its id() is
            # not reused while the memo lives.
            tids: Dict[int, tuple] = {}
            built = 0
            for key, state in (groups if node.group_vars
                               else implicit(groups)):
                built += 1
                if not (built & 1023):
                    self._check_valves(len(out_rows), "at a batch boundary")
                cells = [key] if scalar else list(key)
                for value in finish(state):
                    if value is None:
                        cells.append(None)
                        continue
                    hit = tids.get(id(value))
                    if hit is None:
                        tids[id(value)] = hit = (value, encode(value))
                    cells.append(hit[1])
                row = tuple(cells)
                if having is None or having(row):
                    out_rows.append(row)
            self.stats.groups_built += built
            if out_rows:
                yield out_rows

        return TableStream(out_vars, self._meter(batches()))

    # -- joins: build side materialized, probe side streamed -----------
    #
    # Every operator here drains one child into a table (``evaluate``),
    # indexes it once with the join kernel (:class:`JoinIndex`), and
    # probes it batch by batch; what is left to the operator is its SIP
    # scope and the batch loop.
    #
    # SIP: a build side exports its join-key id-sets sideways into the
    # BGP leaves of the side evaluated after it (semi-join filters).  The
    # probe of an inner Join inherits the enclosing scope too; an
    # auxiliary side (LeftJoin's optional, the MINUS right side, the
    # EXISTS group) never sees an enclosing join's filter — it is sound
    # for rows that must ultimately join, but pruning inside an
    # OPTIONAL/MINUS/EXISTS auxiliary would flip match decisions (a
    # pruned optional row turns into a null-padded one) rather than
    # remove dead rows.

    def _stream_join(self, node: alg.Join, graph,
                     hint: Optional[int]) -> TableStream:
        left = self.evaluate(node.left, graph)  # build side: breaker
        if not left.rows:
            return TableStream(left.variables, self._meter(iter(())))
        # Stream *construction* compiles the BGP steps, so the export
        # scope only needs to cover this call.
        exports = self._sip_exports(left, node.right) \
            if getattr(node, "sip_eligible", False) else None
        if exports:
            outer = self._sip
            self._sip = self._sip_merge(exports)
            try:
                right = self.stream(node.right, graph, None)
            finally:
                self._sip = outer
        else:
            right = self.stream(node.right, graph, None)
        self.stats.joins += 1
        index = JoinIndex(left, right, build_is_left=True)

        def batches():
            for batch in right.batches:
                out = index.join(batch)
                if out:
                    yield out

        return TableStream(index.variables, self._meter(batches()))

    def _stream_leftjoin(self, node: alg.LeftJoin, graph,
                         hint: Optional[int]) -> TableStream:
        exports = None
        if hint is None and getattr(node, "sip_eligible", False):
            # No bounded consumer above, so every preserved row will be
            # pulled anyway: hold them, and prune the optional side to
            # the keys they carry.
            held = self.evaluate(node.left, graph)
            if not held.rows:
                return TableStream(held.variables, self._meter(iter(())))
            exports = self._sip_exports(held, node.right)
            left = TableStream(held.variables,
                               batched(held.rows, STREAM_BATCH_ROWS))
        else:
            left = self.stream(node.left, graph, hint)
        outer = self._sip
        self._sip = exports or {}
        try:
            right = self.evaluate(node.right, graph)  # build: breaker
        finally:
            self._sip = outer
        self.stats.joins += 1
        index = JoinIndex(right, left)
        accept = None
        if node.condition is not None:
            # Tested on each merged row; an error rejects the match.
            accept = _expression_reader(
                node.condition,
                {v: i for i, v in enumerate(index.variables)},
                self.dictionary.decode, self.stats, ebv, False)

        def batches():
            for batch in left.batches:
                yield index.left_join(batch, accept)

        return TableStream(index.variables, self._meter(batches()))

    def _stream_minus(self, node: alg.Minus, graph,
                      hint: Optional[int]) -> TableStream:
        left = self.evaluate(node.left, graph)  # breaker: exports need it
        if not left.rows:
            return TableStream(left.variables, self._meter(iter(())))
        # SIP into the right side: a right row whose key misses every left
        # row's value for an everywhere-bound shared variable is
        # incompatible with all of them, so it can exclude nothing.
        exports = self._sip_exports(left, node.right) \
            if getattr(node, "sip_eligible", False) else None
        outer = self._sip
        self._sip = exports or {}
        try:
            right = self.evaluate(node.right, graph)
        finally:
            self._sip = outer
        rows = table_minus(left, right).rows
        return TableStream(left.variables,
                           self._meter(iter((rows,)) if rows else iter(())))

    def _stream_filterexists(self, node: alg.FilterExists, graph,
                             hint: Optional[int]) -> TableStream:
        # The existence group is built first, under its own suspended
        # scope, so EXISTS can export its key sets into the streamed
        # pattern side: a pattern row whose everywhere-bound shared
        # variable misses the group's value set has no compatible
        # witness.  NOT EXISTS keeps exactly those rows, so it exports
        # nothing.
        scope = self._sip
        self._sip = {}
        try:
            inner = self.evaluate(node.group, graph)  # breaker
        finally:
            self._sip = scope
        exports = None
        if not node.negated and getattr(node, "sip_eligible", False):
            exports = self._sip_exports(inner, node.pattern)
        if exports:
            self._sip = self._sip_merge(exports)
            try:
                outer = self.stream(node.pattern, graph, hint)
            finally:
                self._sip = scope
        else:
            outer = self.stream(node.pattern, graph, hint)
        index = JoinIndex(inner, outer)
        negated = node.negated

        def batches():
            for batch in outer.batches:
                keep = index.semi_join(batch, negated)
                if keep:
                    yield keep

        return TableStream(outer.variables, self._meter(batches()))

    # -- sorts ---------------------------------------------------------

    def _stream_orderby(self, node: alg.OrderBy, graph,
                        hint: Optional[int]) -> TableStream:
        inner = self.stream(node.pattern, graph, None)
        key = self._order_key(inner.index, node.keys)

        def batches():
            rows: List[tuple] = []  # breaker
            for batch in inner.batches:
                rows.extend(batch)
            rows.sort(key=key)
            if rows:
                yield rows

        return TableStream(inner.variables, self._meter(batches()))

    def _stream_topk(self, node: alg.TopK, graph,
                     hint: Optional[int]) -> TableStream:
        scope = self._sip
        self._sip = {}  # bounded sort: same suspension as _stream_slice
        try:
            inner = self.stream(node.pattern, graph, None)
        finally:
            self._sip = scope
        key = self._order_key(inner.index, node.keys)
        keep = node.offset + node.limit
        offset = node.offset

        def batches():
            rows = heapq.nsmallest(keep, inner.rows(), key=key)[offset:]
            if rows:
                yield rows

        return TableStream(inner.variables, self._meter(batches()))


# ----------------------------------------------------------------------
# Helpers (shared with the reference evaluator)
# ----------------------------------------------------------------------

#: A sideways filter re-orders a probe BGP only when it keeps at most
#: this fraction of the variable's values under the pattern's predicate.
#: Weaker filters still prune at the leaves, but in the plan-time order —
#: dragging a big scan to the front for a filter that keeps most of it
#: costs more than it saves.
SIP_REORDER_SELECTIVITY = 0.15

#: Above this filter size the per-member occurrence refinement is skipped
#: (the raw size ratio is used instead): probing huge sets would cost more
#: than the ordering decision is worth.
SIP_EFFECTIVE_PROBE_CAP = 512


class _SipAwareStats:
    """A :class:`GraphStatistics` view that discounts estimates for
    patterns binding sideways-filtered variables.

    A filter keeps at most its *effective* members of a variable's
    distinct values under a predicate — members that never occur in the
    pattern's position (e.g. Egyptian-born athletes against a
    ``starring`` scan) cannot match, so small filters are probed against
    the index to measure real selectivity.  A pattern whose filter keeps
    at most :data:`SIP_REORDER_SELECTIVITY` of the predicate's values has
    its estimate discounted accordingly; feeding these estimates to
    :func:`order_patterns` moves the filtered leaf to the front of the
    probe's join order.
    """

    def __init__(self, base: GraphStatistics, sip: Dict[str, set], graph):
        self._base = base
        self._sip = sip
        self._graph = graph
        self._effective: Dict[Tuple, int] = {}

    def _effective_count(self, values: set, p, subject_side: bool) -> int:
        """How many filter members actually occur under predicate ``p``
        in the filtered position."""
        key = (id(values), p, subject_side)
        count = self._effective.get(key)
        if count is None:
            if len(values) > SIP_EFFECTIVE_PROBE_CAP:
                count = len(values)
            else:
                graph = self._graph
                pid = graph.dictionary.lookup(p)
                if pid is None:
                    count = len(values)
                elif subject_side:
                    count = sum(1 for v in values
                                if graph.objects_for(v, pid))
                else:
                    count = sum(1 for v in values
                                if graph.subjects_for(pid, v))
            self._effective[key] = count
        return count

    def estimate(self, pattern, bound) -> float:
        estimate = self._base.estimate(pattern, bound)
        s, p, o = pattern
        if isinstance(p, Variable):
            return estimate
        if isinstance(s, Variable) and s.name in self._sip \
                and s.name not in bound:
            universe = max(1, self._base.distinct_subjects(p))
            kept = self._effective_count(self._sip[s.name], p, True)
            if kept / universe <= SIP_REORDER_SELECTIVITY:
                estimate *= kept / universe
        if isinstance(o, Variable) and o.name in self._sip \
                and o.name not in bound:
            universe = max(1, self._base.distinct_objects(p))
            kept = self._effective_count(self._sip[o.name], p, False)
            if kept / universe <= SIP_REORDER_SELECTIVITY:
                estimate *= kept / universe
        return max(estimate, 0.001)


def _common_vars(left: alg.AlgebraNode, right: alg.AlgebraNode) -> List[str]:
    left_vars = set(left.in_scope())
    return [v for v in right.in_scope() if v in left_vars]


_COUNT_LITERALS: Dict[int, Literal] = {}


def _count_literal(n: int) -> Literal:
    """Memoized ``Literal(n)`` for aggregate counts.

    COUNT-heavy groupings finish thousands of groups whose counts are
    drawn from a few dozen distinct small ints; constructing (and later
    re-hashing, when the dictionary interns it) a fresh Literal per group
    is a measurable share of the drain.  Counts repeat across queries
    too, so the cache is module-level; it is bounded by the number of
    distinct counts ever produced, which grows like the log of the data.
    """
    lit = _COUNT_LITERALS.get(n)
    if lit is None:
        _COUNT_LITERALS[n] = lit = Literal(n)
    return lit


def _accumulator(function: str, separator: Optional[str] = None):
    """``(new_state, fold(state, value), finish(state))`` for one
    aggregate function — the single production definition of each.

    States are small mutable lists folded one value at a time; ``finish``
    returns a term, or ``None`` for unbound.  COUNT never looks at the
    value, so callers may fold ids or rows into it undecoded.  SUM/AVG add
    left to right (float totals are bit-identical to the reference's batch
    sum); one non-numeric value makes them an error, i.e. unbound.
    MIN/MAX keep the winning input term in ``ORDER BY`` order
    (:func:`_sort_key`), ties broken by ``n3()``, so the winner does not
    depend on the input order.
    """
    if function == "count":
        def new_state():
            return [0]

        def fold(state, value):
            state[0] += 1

        def finish(state):
            return _count_literal(state[0])
    elif function == "sample":
        def new_state():
            return [None]

        def fold(state, value):
            if state[0] is None:
                state[0] = value

        def finish(state):
            return state[0]
    elif function == "group_concat":
        new_state = list
        sep = " " if separator is None else separator

        def fold(state, value):
            state.append(value.lexical if isinstance(value, Literal)
                         else str(value))

        def finish(state):
            return Literal(sep.join(state))
    elif function in ("min", "max"):
        wins = operator.lt if function == "min" else operator.gt

        def new_state():
            return [None, None]  # [sort key of the best term, the term]

        def fold(state, value):
            key = _sort_key(value)
            best = state[0]
            if best is None or wins(key, best) or (
                    key == best and wins(value.n3(), state[1].n3())):
                state[0] = key
                state[1] = value

        def finish(state):
            return state[1]
    elif function in ("sum", "avg"):
        def new_state():
            # [total, n, poisoned, saw_double, saw_non_integer]
            return [0, 0, False, False, False]

        def fold(state, value):
            if state[2]:
                return
            if not (isinstance(value, Literal) and value.is_numeric):
                state[2] = True
                return
            state[0] += value.value
            state[1] += 1
            if value.datatype == XSD_DOUBLE:
                state[3] = True
            elif value.datatype != XSD_INTEGER:
                state[4] = True

        if function == "sum":
            def finish(state):
                if state[2]:
                    return None
                if not state[1]:
                    return Literal(0)
                return _numeric_literal(state[0], state[3], state[4])
        else:
            def finish(state):
                if state[2] or not state[1]:
                    return None
                return _numeric_literal(state[0] / state[1], state[3], True)
    else:
        raise EvaluationError("unknown aggregate %r" % function)
    return new_state, fold, finish


#: Most distinct bindings one operator remembers an expression's outcome
#: for; past it, a new binding is evaluated on every row it occurs in.
EXPRESSION_MEMO_ENTRIES = 1 << 14

_MISS = object()  # no outcome remembered for the key


def _expression_reader(expression, index: Dict[str, int], decode,
                       stats: EvaluationStats, outcome=None, failed=None):
    """Compile ``expression`` over rows of schema ``index`` into
    ``read(row)``, which evaluates it once per distinct binding.

    An expression is a pure function of the term ids bound to the
    variables it reads: an id, or an unbound cell, gives the same term or
    the same :class:`ExpressionError` on every row.  So ``read`` keys on
    those cells (a variable absent from the schema is unbound everywhere
    and drops out; a constant expression has the one key ``()``) and
    remembers each key's outcome: ``outcome(term)`` (the term itself when
    ``outcome`` is None), or ``failed`` when evaluation or ``outcome``
    raises :class:`ExpressionError`.  Only misses evaluate, through a
    lazy :class:`RowView`, and count in ``stats.expression_evals``.  The
    memo (``read.memo``) lives as long as the reader — the operator's
    stream — and stops growing at :data:`EXPRESSION_MEMO_ENTRIES` keys.
    """
    positions = sorted({index[name] for name in expression.variables()
                        if name in index})
    key_of = itemgetter(*positions) if positions else (lambda row: ())
    memo: Dict = {}
    get = memo.get

    def read(row):
        key = key_of(row)
        value = get(key, _MISS)
        if value is not _MISS:
            return value
        stats.expression_evals += 1
        try:
            value = expression.evaluate(RowView(index, row, decode))
            if outcome is not None:
                value = outcome(value)
        except ExpressionError:
            value = failed
        if len(memo) < EXPRESSION_MEMO_ENTRIES:
            memo[key] = value
        return value

    read.memo = memo
    return read


def _compile_aggregate(aggregate: alg.Aggregate, index: Dict[str, int],
                       decode, stats: EvaluationStats):
    """Compile one aggregate over rows of schema ``index`` into
    ``(new_state, fold(state, row), finish(state))``.

    Input adapter, then optional dedupe, then the function's one
    :func:`_accumulator`.  The adapter reads what a row contributes: the
    row itself for ``COUNT(*)``, the id in a bare variable's column, or
    the term an expression evaluates to (:func:`_expression_reader`);
    ``None`` (an unbound cell, an evaluation error) contributes nothing.
    DISTINCT (and MIN/MAX, which ignore duplicates) collects those values
    in first-seen order and folds them at finish.  Ids are compared
    undecoded (id equality is term equality) and decoded only on the way
    into a non-COUNT accumulator.
    """
    function, expr = aggregate.function, aggregate.expression
    new_state, step, finish = _accumulator(function, aggregate.separator)
    to_term = None  # what turns an adapted value into the folded term
    if expr is None:
        if function != "count":
            raise EvaluationError("only COUNT supports *")

        def read(row):
            return row
    elif type(expr) is VarExpr:
        pos = index.get(expr.name)
        if pos is None:
            def read(row):
                return None
        elif function == "count" and not aggregate.distinct:
            # COUNT(?x): a bound test on the id column folded in place
            # (COUNT's state is ``[n]``).
            def fold(state, row):
                if row[pos] is not None:
                    state[0] += 1

            return new_state, fold, finish
        else:
            read = itemgetter(pos)
            if function != "count":
                to_term = decode
    else:
        read = _expression_reader(expr, index, decode, stats)

    # MIN/MAX ignore duplicates, so they fold each distinct value once:
    # a dict store per row, an ORDER BY key per distinct value at finish.
    if aggregate.distinct or function in ("min", "max"):
        def fold(seen, row):
            value = read(row)
            if value is not None:
                seen[value] = None  # a dict keeps first-seen order

        if function == "count":
            def finish_distinct(seen):
                return _count_literal(len(seen))
        else:
            def finish_distinct(seen):
                state = new_state()
                for value in seen:
                    step(state, value if to_term is None else to_term(value))
                return finish(state)

        return dict, fold, finish_distinct
    if expr is None:  # COUNT(*): every row counts
        return new_state, step, finish
    if to_term is None:
        def fold(state, row):
            value = read(row)
            if value is not None:
                step(state, value)
    else:
        def fold(state, row):
            value = read(row)
            if value is not None:
                step(state, to_term(value))
    return new_state, fold, finish


def _numeric_literal(number, saw_double: bool,
                     saw_non_integer: bool) -> Literal:
    """A SUM/AVG result literal with SPARQL's numeric type promotion.

    Integer inputs promote to ``xsd:decimal`` when the operation leaves
    the integers (AVG divides; a decimal operand infects a SUM); any
    ``xsd:double`` operand makes the result a double.  Earlier revisions
    let Python's float arithmetic turn every non-integer result into
    ``xsd:double``, so ``AVG`` over int/decimal columns silently changed
    datatype; the value itself was and is the same.
    """
    if saw_double:
        return Literal(float(number))
    if saw_non_integer or isinstance(number, float):
        lexical = repr(float(number))
        if "e" in lexical or "E" in lexical:
            # XSD decimal forbids exponent notation; expand to the exact
            # plain form of the shortest-round-trip float repr.
            lexical = format(Decimal(lexical), "f")
        if lexical.endswith(".0"):
            lexical = lexical[:-2]
        return Literal(lexical, datatype=XSD_DECIMAL)
    return Literal(number)


def _sort_key(value):
    """Total order for ORDER BY: unbound < numbers < strings/URIs."""
    if value is None:
        return (0, 0, "")
    if isinstance(value, Literal):
        if value.is_numeric:
            return (1, value.value, "")
        return (2, 0, str(value.lexical))
    return (2, 0, str(value))


class _Desc:
    """Inverts the comparison order of a wrapped sort key.

    Used for the DESC components of a composite ORDER BY key (strings have
    no arithmetic negation).  Equal keys stay equal, so sort stability is
    untouched.
    """

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return other.key == self.key
