"""Bottom-up evaluation of SPARQL algebra with bag semantics: the driver.

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
integer term ids), pattern matching runs on the graph's id indexes, joins
hash ints, and RDF term objects are materialized only at the result
boundary or lazily inside expression evaluation (:class:`~.solution.RowView`).
The original dict-based evaluator survives as
:class:`~.reference.ReferenceEvaluator` for differential tests and the
perf-report baseline.

This module is the driver: the entry points, the safety valves, the
per-operator meter (:meth:`Evaluator._meter`), :class:`EvaluationStats`
and :data:`OPERATORS`, which maps each node type of the physical tree
(:mod:`~repro.sparql.physical`, built by :func:`~.plan.lower`) to its
operator in :mod:`~repro.sparql.operators`.  An operator is a function
``op(evaluator, node, graph, hint, sip) -> TableStream``; it streams its
children through :meth:`Evaluator.stream` and states, in the call, the
sideways-filter scope each child gets.  ``evaluate`` is nothing but
"drain ``stream(node)`` into a :class:`SolutionTable`"; rows are held
whole only at *pipeline breakers* (a join's build side, a full
``OrderBy``, ``Group``'s final batch).  ``Slice`` with a limit stops
upstream row production by not pulling, so ``LIMIT``-topped queries exit
early.  The ``rows_pulled`` / ``early_exits`` / ``peak_batch_rows`` /
``groups_built`` counters on :class:`EvaluationStats` make the
short-circuiting observable.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Optional, Tuple

from ..rdf.dataset import Dataset
from . import algebra as alg
from . import physical
from .operators import bgp, expressions, group, joins, order, pipeline
from .optimizer import statistics_memo
from .plan import lower
from .solution import SolutionTable, TableStream

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


#: The operator that runs each node type :func:`~.plan.lower` emits.
OPERATORS = {
    physical.Scan: bgp.stream_bgp,
    alg.InlineData: pipeline.stream_inlinedata,
    alg.Project: pipeline.stream_project,
    alg.Union: pipeline.stream_union,
    alg.Distinct: pipeline.stream_distinct,
    alg.GraphPattern: pipeline.stream_graphpattern,
    alg.Filter: expressions.stream_filter,
    alg.Extend: expressions.stream_extend,
    physical.HashJoin: joins.stream_join,
    physical.LeftHashJoin: joins.stream_leftjoin,
    physical.AntiJoin: joins.stream_minus,
    physical.SemiJoin: joins.stream_filterexists,
    alg.Group: group.stream_group,
    physical.StarCount: group.stream_star,
    alg.OrderBy: order.stream_orderby,
    alg.TopK: order.stream_topk,
    alg.Slice: order.stream_slice,
}


def resolve_graph(dataset: Dataset, from_graphs: List[str],
                  default_graph_uri: Optional[str]):
    """The graph a query reads: its ``FROM`` graph(s), else the default
    graph, else the dataset's only graph, else a union of all of them.

    Raises :class:`EvaluationError` for an unknown ``FROM`` graph and
    ``KeyError`` for an unknown default graph."""
    if from_graphs:
        missing = [u for u in from_graphs if u not in dataset]
        if missing:
            raise EvaluationError("unknown graph(s): %s" % ", ".join(missing))
        if len(from_graphs) == 1:
            return dataset.graph(from_graphs[0])
        return dataset.union_view(from_graphs)
    if default_graph_uri is not None:
        return dataset.graph(default_graph_uri)
    graphs = list(dataset)
    if len(graphs) == 1:
        return graphs[0]
    return dataset.union_view()


def _synopses_built(graph) -> int:
    """Total statistics synopses built on a graph, union views included
    (a union's member builds land on the member counters)."""
    total = getattr(graph, "synopses_built", 0)
    for member in getattr(graph, "graphs", ()):
        total += member.synopses_built
    return total


class EvaluationStats:
    """Counters exposed for tests and the ablation benchmarks.

    * ``rows_pulled`` counts every row crossing an operator's stream
      boundary (a row passing through k streaming operators counts k
      times); on an early-exiting query it stays near k * LIMIT.
      ``early_exits`` counts operators that stopped pulling because a row
      bound was satisfied; ``peak_batch_rows`` is the largest batch seen.
    * ``groups_built`` counts distinct groups a Group emitted;
      ``accumulator_rows`` counts input rows folded into per-group
      accumulator states (a star ``COUNT`` folds zero).
    * ``sip_filtered_rows`` counts candidate bindings a sideways filter
      dropped at a BGP leaf; ``intersect_steps`` counts sorted-run
      intersections (one per input row per intersection step);
      ``sorted_runs_built`` counts sorted runs lazily built on the graphs
      this query touched (cached runs count zero).
    * ``wcoj_steps`` counts input rows processed by generic-join levels;
      ``synopsis_builds`` counts per-predicate statistics synopses lazily
      built while this query was planned and run (cached ones count zero).
    * ``expression_evals`` counts expression evaluations actually run:
      each expression is evaluated once per distinct binding of the
      variables it reads, so this counts memo misses.
    * ``row_fallbacks`` is always 0 (operators exchange only row-tuple
      lists); the frozen ledger's ``STAT_FIELDS`` still reads it.
    """

    #: Every counter, in :meth:`as_dict` order.
    COUNTERS = ("bgp_count", "bgp_cache_hits", "pattern_matches",
                "intermediate_rows", "materialized_subqueries", "joins",
                "rows_pulled", "early_exits", "peak_batch_rows",
                "groups_built", "accumulator_rows", "sip_filtered_rows",
                "intersect_steps", "sorted_runs_built", "wcoj_steps",
                "synopsis_builds", "expression_evals", "row_fallbacks")

    def __init__(self):
        for name in self.COUNTERS:
            setattr(self, name, 0)

    def __repr__(self):
        return "EvaluationStats(%s)" % ", ".join(
            "%s=%d" % item for item in self.as_dict().items())

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.COUNTERS}


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
        self.stats = EvaluationStats()
        self.dictionary = None  # set when the query's graphs are resolved
        self._graph_stats = statistics_memo()
        # Common-subexpression cache: identical BGPs (e.g. the repeated
        # pattern inside a full-outer-join's UNION branches) are evaluated
        # once per query.  Only scans the lowering marked ``shared`` are
        # worth holding on to; the cache maps their key to the schema and
        # batches the first occurrence produced, published once its
        # stream ran to the end.  Consumers never mutate batches, so
        # sharing is safe.
        self._bgp_cache: Dict[Tuple, List] = {}

    # ------------------------------------------------------------------
    # Entry points.  Schemas are computed statically, so constructing a
    # stream never pulls a row.  Breakers embedded in a subtree do their
    # work when the subtree's stream is *constructed* (the build side of
    # a join must exist before the first probe).
    # ------------------------------------------------------------------
    def evaluate_plan_stream(self, plan,
                             default_graph_uri: Optional[str] = None,
                             hint: Optional[int] = None) -> TableStream:
        """Evaluate an optimized :class:`~.plan.Plan` to a stream.

        Runs the plan's physical tree (``plan.root``): each operator
        follows the decisions its node declares (a scan's step
        ``program``, a join's ``sip``, a star's index count).  The one
        run-time decision is a sideways-filtered scan's pattern order
        (:meth:`~.physical.Scan.program_for`).
        """
        self.stats.materialized_subqueries = plan.subqueries
        return self._run(plan.query.from_graphs, plan.root,
                         default_graph_uri, hint)

    def evaluate_query_stream(self, query: alg.Query,
                              default_graph_uri: Optional[str] = None,
                              hint: Optional[int] = None) -> TableStream:
        """Evaluate unplanned algebra to a stream of row batches: the
        query is lowered without statistics (:func:`~.plan.lower`), so
        every BGP matches its patterns in textual order.

        ``hint`` caps the root batch size — cursors pulling small pages
        pass a small one so each pull stays proportional to the page.
        """
        return self._run(query.from_graphs, lower(query.pattern)[0],
                         default_graph_uri, hint)

    def _run(self, from_graphs: List[str], root,
             default_graph_uri: Optional[str],
             hint: Optional[int]) -> TableStream:
        graph = resolve_graph(self.dataset, from_graphs, default_graph_uri)
        self.dictionary = graph.dictionary
        # Stream operators compile eagerly (only row production defers),
        # so synopsis builds they trigger are visible once the stream is
        # constructed.
        before = _synopses_built(graph)
        try:
            return self.stream(root, graph, hint)
        finally:
            self.stats.synopsis_builds += _synopses_built(graph) - before

    def stream(self, node, graph,
               hint: Optional[int] = None,
               sip: Optional[Dict[str, set]] = None) -> TableStream:
        """Evaluate ``node`` to a stream of row batches.

        ``hint`` is a *batch-size* hint from a bounded consumer (``Slice``
        passes ``offset + limit`` down): producers emit batches no larger
        than it so early exit is row-accurate.  It never changes results —
        only how much is in flight per pull.

        ``sip`` is the sideways-filter scope: variable name -> the set of
        term ids a join above admits for it.  The BGP leaves drop any
        other candidate before it becomes a row.
        """
        if self.cancel is not None:
            self.cancel.raise_if_cancelled()
        if self.deadline is not None \
                and time.perf_counter() > self.deadline:
            raise QueryTimeout("query exceeded its time budget at %r"
                               % (node,))
        operator = OPERATORS.get(type(node))
        if operator is None:
            raise EvaluationError("cannot evaluate %r" % (node,))
        return operator(self, node, graph, hint, sip or {})

    def evaluate(self, node, graph,
                 sip: Optional[Dict[str, set]] = None) -> SolutionTable:
        """Drain ``stream(node)`` into a table — what a pipeline breaker
        calls for the side it must hold whole.  This is the checkpoint
        that counts ``intermediate_rows`` (rows held at breakers, not
        rows that merely flowed through a pipeline) and enforces
        ``max_rows``.
        """
        table = self.stream(node, graph, None, sip).to_table()
        self.stats.intermediate_rows += len(table.rows)
        if self.max_rows is not None and len(table.rows) > self.max_rows:
            raise RowBudgetExceeded("intermediate result exceeds max_rows=%d"
                                    % self.max_rows)
        return table

    # ------------------------------------------------------------------
    # Stream plumbing and the safety valves
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
