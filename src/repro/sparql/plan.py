"""The logical-plan layer: optimizer passes over the SPARQL algebra.

The parser turns SPARQL text into algebra, and this module turns that
algebra into an executable :class:`Plan` by running an explicit pipeline
of rewrite passes:

* ``FilterPushdown``   — move filters below joins/unions toward the data,
* ``ProjectionPruning`` — collapse and remove redundant projections,
* ``BGPMerge``         — fuse adjacent basic graph patterns into one scope,
* ``AggregatePushdown`` — narrow pre-``Group`` projections to the grouping
  and aggregated variables only, so aggregations consume (and the
  hash ``Group`` keys on) exactly the columns they read,
* ``LimitPushdown``    — fuse nested slices, push ``Slice`` bounds through
  cardinality-and-order-preserving spines (``Project``), and fuse
  ``Slice`` over ``OrderBy`` into a single bounded-sort :class:`~.algebra.TopK`
  node,
* ``JoinOrdering``     — the selectivity-greedy triple ordering of
  :mod:`~repro.sparql.optimizer`, applied once at plan time instead of on
  every evaluation.

After the rewrite fixpoint, the ``CostBasedJoinStrategy`` pass annotates
the tree in place: per-BGP estimated cardinalities, the chosen join
strategy (nested-loop / ``intersect`` / ``wcoj``, the last with a variable
elimination order for cyclic BGPs detected via the join hypergraph) and
the BGP's step program (:func:`~.optimizer.bgp_program`), per-join
SIP eligibility, and the :class:`Star` of a ``Group`` counted straight
from the indexes.  The evaluator obeys these annotations, and
:meth:`Plan.explain` prints every one of them.

Each pass is a pure ``node -> (node, changes)`` function (input trees are
never mutated) and records per-pass statistics on the plan, so ablations
and tests can see exactly what fired.  :class:`~repro.sparql.engine.Engine`
keys its plan cache on :func:`plan_key`, a normalized structural
serialization of the algebra — two textually different renderings of the
same query share one cached plan.
"""

from __future__ import annotations

import time
from functools import reduce
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

from ..rdf.graph import Graph
from ..rdf.terms import PatternTerm, Variable, is_concrete
from . import algebra as alg
from .expressions import AndExpr, Expression, VarExpr
from .optimizer import (GraphStatistics, Intersect, WCOJ_COST_FACTOR,
                        bgp_is_cyclic, bgp_program, estimate_join,
                        estimate_wcoj, generic_join_order, order_patterns,
                        statistics_memo)

PassResult = Tuple[alg.AlgebraNode, int]
PassFn = Callable[[alg.AlgebraNode], PassResult]

#: Pipeline iteration cap: passes enable each other (pruning a no-op
#: projection exposes two BGPs to merging), so the pipeline reruns until a
#: full sweep changes nothing, bounded by this.
MAX_PIPELINE_ROUNDS = 4


class PassStats:
    """What one optimizer pass did during planning."""

    def __init__(self, name: str, changes: int, seconds: float):
        self.name = name
        self.changes = changes
        self.seconds = seconds

    def as_dict(self) -> Dict[str, object]:
        return {"name": self.name, "changes": self.changes,
                "seconds": self.seconds}

    def __repr__(self):
        return "PassStats(%s, changes=%d, %.6fs)" % (
            self.name, self.changes, self.seconds)


class Plan:
    """An optimized, executable logical plan.

    Holds the rewritten algebra :class:`~.algebra.Query`, the structural
    cache key it was planned under, per-pass statistics, and the output
    column order (``None`` for ``SELECT *``).  Plans are immutable once
    built and safe to execute any number of times.
    """

    def __init__(self, query: alg.Query, key: str,
                 pass_stats: Sequence[PassStats], source: str = "text"):
        self.query = query
        self.key = key
        self.pass_stats = list(pass_stats)
        self.source = source  # 'text' | 'algebra'
        self.output_variables = output_variables(query)
        self.executions = 0
        # Statistics synopses lazily built while planning this query
        # (set by the engine; folded into the first execution's stats).
        self.synopsis_builds = 0
        # Nested SELECTs, each evaluated as its own scope; reported as
        # ``EvaluationStats.materialized_subqueries``.
        self.subqueries = count_subqueries(query.pattern)

    @property
    def total_changes(self) -> int:
        return sum(s.changes for s in self.pass_stats)

    def explain(self) -> str:
        """Textual rendering of the optimized tree plus pass statistics.

        The header line names the ``FROM`` graphs.  Nodes annotated by
        the ``CostBasedJoinStrategy`` pass render their chosen join
        strategy, estimated cardinality, and (for ``wcoj``) the variable
        elimination order in a trailing ``[...]`` block; SIP-eligible
        joins render ``[sip]`` and a star ``Group`` ``[count=star ?c]``
        (:func:`star_shape`).  A BGP with a step program lists its steps
        below it, one per line (see :func:`_program_lines`).

        A graph of collaborations: a sparse ring plus eight hubs who
        collaborate with everyone.  Two people's common collaborators
        are one intersection of two sorted runs:

        >>> from repro.rdf.graph import Graph
        >>> from repro.rdf.terms import URIRef
        >>> g = Graph("urn:ex")
        >>> w = URIRef("urn:with")
        >>> p = [URIRef("urn:p%02d" % i) for i in range(24)]
        >>> for i in range(24):  # sparse ring of collaborations
        ...     _ = g.add(p[i], w, p[(i + 1) % 24])
        ...     _ = g.add(p[(i + 1) % 24], w, p[i])
        >>> for h in range(8):   # eight hubs collaborate with everyone
        ...     for i in range(24):
        ...         if i != h:
        ...             _ = g.add(p[h], w, p[i])
        ...             _ = g.add(p[i], w, p[h])
        >>> from repro.sparql.parser import parse
        >>> def show(text):
        ...     plan = optimize_plan(parse(text), graph=g)
        ...     for line in plan.explain().splitlines()[2:]:
        ...         if not line.startswith("--"):
        ...             print(line)
        >>> show("SELECT ?x WHERE { ?x <urn:with> <urn:p10> . "
        ...      "?x <urn:with> <urn:p12> }")
          BGP(2 triples) [strategy=intersect, est_rows=8]
            intersect ?x <- (?x <urn:with> <urn:p10>) & (?x <urn:with> <urn:p12>)

        In a triangle the nested-loop estimate blows up on the hubs'
        squared fan-out, so the cost gate routes the BGP to generic join:
        one level per variable of the elimination order.

        >>> show("SELECT ?a WHERE { ?a <urn:with> ?b . "
        ...      "?b <urn:with> ?c . ?a <urn:with> ?c }")
          BGP(3 triples) [strategy=wcoj, est_rows=2881, eliminate=?a->?b->?c]
            level intersect ?a <- (?a <urn:with> _)
            level intersect ?b <- (?a <urn:with> ?b) & (?b <urn:with> _)
            level intersect ?c <- (?a <urn:with> ?c) & (?b <urn:with> ?c)
        """
        lines: List[str] = ["FROM %s" % (self.query.from_graphs,)]

        def walk(node, depth):
            lines.append("  " * depth + repr(node) + _explain_notes(node))
            for step in _program_lines(getattr(node, "program", ())):
                lines.append("  " * (depth + 1) + step)
            for child in node.children():
                walk(child, depth + 1)

        walk(self.query.pattern, 0)
        for stats in self.pass_stats:
            lines.append("-- %s: %d change(s) in %.6fs"
                         % (stats.name, stats.changes, stats.seconds))
        return "\n".join(lines)

    def __repr__(self):
        return "Plan(source=%s, passes=%s)" % (
            self.source, [s.name for s in self.pass_stats])


def _explain_notes(node: alg.AlgebraNode) -> str:
    """The ``[...]`` annotation block :meth:`Plan.explain` appends to a
    node line, or '' when the planner annotated nothing."""
    notes: List[str] = []
    strategy = getattr(node, "strategy", None)
    if strategy is not None:
        notes.append("strategy=%s" % strategy)
    est_rows = getattr(node, "est_rows", None)
    if est_rows is not None:
        notes.append("est_rows=%d" % round(est_rows))
    eliminate = getattr(node, "eliminate", None)
    if eliminate:
        notes.append("eliminate=%s" % "->".join("?" + v for v in eliminate))
    if getattr(node, "sip_eligible", False):
        notes.append("sip")
    star = getattr(node, "star", None)
    if star is not None:
        notes.append("count=star ?%s" % star.centre)
    if not notes:
        return ""
    return " [%s]" % ", ".join(notes)


def _program_lines(program) -> List[str]:
    """One line per step of a BGP program (``level`` marks a generic-join
    level):

    * ``match ?v <- (s p o)`` — an index probe binding ``?v``;
    * ``check (s p o)`` — a probe that binds nothing new;
    * ``intersect ?v <- run & run ...`` — ``?v`` bound by intersecting
      sorted runs, each written as the pattern it comes from with ``_``
      for a position the run leaves free.
    """
    lines = []
    bound: Set[str] = set()
    for step in program:
        level = "level " if step.level else ""
        if isinstance(step, Intersect):
            bound.add(step.var)
            lines.append("%sintersect ?%s <- %s" % (
                level, step.var, " & ".join(_run_text(sig, step.var)
                                            for sig in step.signatures)))
            continue
        names = [t.name for t in step.pattern if isinstance(t, Variable)]
        fresh = " ".join("?" + v for v in dict.fromkeys(names)
                         if v not in bound)
        bound.update(names)
        text = "(%s)" % " ".join(t.n3() for t in step.pattern)
        lines.append("%smatch %s <- %s" % (level, fresh, text) if fresh
                     else "check " + text)
    return lines


def _run_text(signature, var: str) -> str:
    """A :func:`~.optimizer.run_signature` as the pattern it reads."""
    kind, predicate = signature[0], signature[1].n3()
    if kind == "psubjects":
        return "(?%s %s _)" % (var, predicate)
    other = signature[2]
    other = "?" + other[1] if isinstance(other, tuple) else other.n3()
    if kind == "subjects":
        return "(?%s %s %s)" % (var, predicate, other)
    return "(%s %s ?%s)" % (other, predicate, var)


def output_variables(query: alg.Query) -> Optional[List[str]]:
    """The projection's column order, or ``None`` for ``SELECT *`` (column
    order then derives from the solutions)."""
    node = query.pattern
    while isinstance(node, (alg.Slice, alg.OrderBy, alg.Distinct, alg.TopK)):
        node = node.pattern
    if isinstance(node, alg.Project) and node.variables is not None:
        return list(node.variables)
    return None


def count_subqueries(node: alg.AlgebraNode, top: bool = True) -> int:
    """Nested SELECTs in the tree: every ``Project`` below the root."""
    return ((isinstance(node, alg.Project) and not top)
            + sum(count_subqueries(child, False)
                  for child in node.children()))


# ----------------------------------------------------------------------
# Generic structural helpers (all passes rebuild, never mutate)
# ----------------------------------------------------------------------

def _rebuild(node: alg.AlgebraNode,
             children: List[alg.AlgebraNode]) -> alg.AlgebraNode:
    """A copy of ``node`` with its children replaced (same arity/order as
    ``node.children()``)."""
    if isinstance(node, alg.BGP):
        return alg.BGP(node.triples)
    if isinstance(node, alg.InlineData):
        return alg.InlineData(node.variables, node.rows)
    if isinstance(node, alg.Join):
        return alg.Join(children[0], children[1])
    if isinstance(node, alg.LeftJoin):
        return alg.LeftJoin(children[0], children[1], node.condition)
    if isinstance(node, alg.Union):
        return alg.Union(children[0], children[1])
    if isinstance(node, alg.Minus):
        return alg.Minus(children[0], children[1])
    if isinstance(node, alg.Filter):
        return alg.Filter(node.condition, children[0])
    if isinstance(node, alg.Extend):
        return alg.Extend(children[0], node.var, node.expression)
    if isinstance(node, alg.Group):
        return alg.Group(children[0], node.group_vars, node.aggregates,
                         node.having)
    if isinstance(node, alg.Project):
        return alg.Project(children[0], node.variables)
    if isinstance(node, alg.Distinct):
        return alg.Distinct(children[0])
    if isinstance(node, alg.OrderBy):
        return alg.OrderBy(children[0], node.keys)
    if isinstance(node, alg.Slice):
        return alg.Slice(children[0], node.limit, node.offset)
    if isinstance(node, alg.TopK):
        return alg.TopK(children[0], node.keys, node.limit, node.offset)
    if isinstance(node, alg.GraphPattern):
        return alg.GraphPattern(node.graph_uri, children[0])
    if isinstance(node, alg.FilterExists):
        return alg.FilterExists(children[0], children[1], node.negated)
    raise TypeError("cannot rebuild algebra node %r" % node)


def _copy_tree(node: alg.AlgebraNode) -> alg.AlgebraNode:
    """Fresh node objects all the way down (terms and expressions are
    immutable and stay shared)."""
    return _rebuild(node, [_copy_tree(child) for child in node.children()])


def expression_variables(expression: Expression) -> Set[str]:
    """All variable names an expression refers to."""
    return set(expression.variables())


def _split_conjuncts(expression: Expression) -> List[Expression]:
    """Flatten a chain of ``&&`` into its conjuncts.

    Safe for filter placement: a row passes ``FILTER(A && B)`` iff the
    effective boolean value of both conjuncts is true (SPARQL's
    three-valued ``&&`` never turns a non-true pair into true), which is
    exactly when it passes ``FILTER(A)`` and ``FILTER(B)``.
    """
    if isinstance(expression, AndExpr):
        return (_split_conjuncts(expression.left)
                + _split_conjuncts(expression.right))
    return [expression]


# ----------------------------------------------------------------------
# Pass 1: FilterPushdown
# ----------------------------------------------------------------------

def filter_pushdown(node: alg.AlgebraNode) -> PassResult:
    """Push filters toward the data.

    A conjunct moves below a Join (or to the preserved side of a LeftJoin)
    when all its variables are in scope on that side *and none* are in
    scope on the other side — the moved filter then sees exactly the same
    bindings it would have seen above the join, including unbound ones.
    Filters distribute into both branches of a Union unconditionally
    (union rows come from exactly one branch).  A conjunct of a LeftJoin
    condition that names no variable in scope on the preserved side
    becomes a filter on the optional side: no preserved row binds its
    variables, so it tests the optional row alone.
    """
    changes = 0

    def visit(n: alg.AlgebraNode) -> alg.AlgebraNode:
        nonlocal changes
        if isinstance(n, alg.Filter):
            inner = n.pattern
            pushed = _push_condition(n.condition, inner)
            if pushed is not None:
                changes += 1
                return visit(pushed)
            return alg.Filter(n.condition, visit(inner))
        if isinstance(n, alg.LeftJoin) and n.condition is not None:
            left_scope = set(n.left.in_scope())
            keep: List[Expression] = []
            push: List[Expression] = []
            for conjunct in _split_conjuncts(n.condition):
                (keep if expression_variables(conjunct) & left_scope
                 else push).append(conjunct)
            if push:
                changes += 1
                return visit(alg.LeftJoin(
                    n.left, alg.Filter(reduce(AndExpr, push), n.right),
                    reduce(AndExpr, keep) if keep else None))
        children = [visit(child) for child in n.children()]
        return _rebuild(n, children) if children else n

    return visit(node), changes


def _push_condition(condition: Expression,
                    inner: alg.AlgebraNode) -> Optional[alg.AlgebraNode]:
    """One pushdown step for ``Filter(condition, inner)``; ``None`` when the
    filter cannot move."""
    conjuncts = _split_conjuncts(condition)

    if isinstance(inner, alg.Union):
        return alg.Union(alg.Filter(condition, inner.left),
                         alg.Filter(condition, inner.right))

    if isinstance(inner, (alg.Join, alg.LeftJoin)):
        left_scope = set(inner.left.in_scope())
        right_scope = set(inner.right.in_scope())
        stay: List[Expression] = []
        to_left: List[Expression] = []
        to_right: List[Expression] = []
        for conjunct in conjuncts:
            variables = expression_variables(conjunct)
            if variables <= left_scope and not (variables & right_scope):
                to_left.append(conjunct)
            elif (isinstance(inner, alg.Join) and variables <= right_scope
                    and not (variables & left_scope)):
                # Only an inner join admits a push to the right: LeftJoin
                # must preserve every left row regardless of the right side.
                to_right.append(conjunct)
            else:
                stay.append(conjunct)
        if not to_left and not to_right:
            return None
        left = inner.left
        for conjunct in to_left:
            left = alg.Filter(conjunct, left)
        right = inner.right
        for conjunct in to_right:
            right = alg.Filter(conjunct, right)
        if isinstance(inner, alg.LeftJoin):
            node: alg.AlgebraNode = alg.LeftJoin(left, right, inner.condition)
        else:
            node = alg.Join(left, right)
        for conjunct in stay:
            node = alg.Filter(conjunct, node)
        return node

    return None


# ----------------------------------------------------------------------
# Pass 2: ProjectionPruning
# ----------------------------------------------------------------------

def projection_pruning(node: alg.AlgebraNode) -> PassResult:
    """Remove redundant projection work.

    * ``Project(vars)`` over ``Project(cvars)`` with ``vars ⊆ cvars``
      collapses to a single projection (one table copy instead of two).
    * A non-root ``Project`` whose explicit variables equal its child's
      in-scope columns (same order) is a no-op and is dropped — which also
      exposes the pattern below it to ``BGPMerge``.
    * ``Distinct(Distinct(x))`` collapses.

    ``SELECT *`` projections (``variables=None``) are never touched: they
    carry the scope-isolation intent of deliberately nested queries (the
    naive-strategy baseline measures exactly that cost).  The root
    projection is protected because it defines the result column order.
    """
    changes = 0

    def visit(n: alg.AlgebraNode) -> alg.AlgebraNode:
        nonlocal changes
        children = [visit(child) for child in n.children()]
        n = _rebuild(n, children) if children else n
        if isinstance(n, alg.Distinct) and isinstance(n.pattern, alg.Distinct):
            changes += 1
            return n.pattern
        if isinstance(n, alg.Project) and n.variables is not None:
            child = n.pattern
            if (isinstance(child, alg.Project) and child.variables is not None
                    and set(n.variables) <= set(child.variables)):
                changes += 1
                return alg.Project(child.pattern, n.variables)
            if list(n.variables) == child.in_scope():
                changes += 1
                return child
        return n

    def spine(n: alg.AlgebraNode) -> alg.AlgebraNode:
        # The root modifier spine (Slice/OrderBy/Distinct over the root
        # Project) is walked structurally so the root projection itself is
        # never removed — it defines the result column order — while
        # everything below it is pruned by ``visit``.
        nonlocal changes
        if isinstance(n, (alg.Slice, alg.OrderBy, alg.Distinct, alg.TopK)):
            n = _rebuild(n, [spine(n.pattern)])
            if isinstance(n, alg.Distinct) \
                    and isinstance(n.pattern, alg.Distinct):
                changes += 1
                return n.pattern
            return n
        if isinstance(n, alg.Project):
            return alg.Project(visit(n.pattern), n.variables)
        return visit(n)

    return spine(node), changes


# ----------------------------------------------------------------------
# Pass 3: BGPMerge
# ----------------------------------------------------------------------

def bgp_merge(node: alg.AlgebraNode) -> PassResult:
    """Fuse ``Join(BGP, BGP)`` into a single BGP.

    A join of two basic graph patterns over the same active graph is, by
    the SPARQL algebra, the BGP of their combined triples — and one flat
    BGP is what the selectivity optimizer orders best.
    """
    changes = 0

    def visit(n: alg.AlgebraNode) -> alg.AlgebraNode:
        nonlocal changes
        children = [visit(child) for child in n.children()]
        n = _rebuild(n, children) if children else n
        if (isinstance(n, alg.Join) and isinstance(n.left, alg.BGP)
                and isinstance(n.right, alg.BGP)):
            changes += 1
            return alg.BGP(n.left.triples + n.right.triples)
        return n

    return visit(node), changes


# ----------------------------------------------------------------------
# Pass 4: AggregatePushdown
# ----------------------------------------------------------------------

def aggregate_pushdown(node: alg.AlgebraNode) -> PassResult:
    """Shrink the data flowing into aggregations.

    ``Group`` reads only its grouping variables and the variables its
    aggregate expressions mention; everything else its child carries is
    dead weight — columns hashed into no key and folded into no
    accumulator.  When the child is an explicit projection (the shape the
    RDFFrames generator emits for grouped subqueries), the projection is
    narrowed to exactly the needed variables, in their original order.
    Multiplicity is untouched (a projection is a per-row map), so every
    aggregate — including ``COUNT(*)`` — sees the same bag of groups.

    ``HAVING`` needs no extra columns: it is evaluated over the *output*
    row (grouping variables + aggregate aliases), never over the input.

    This narrowing is what lets the hash ``Group`` key on thin
    id tuples.
    """
    changes = 0

    def visit(n: alg.AlgebraNode) -> alg.AlgebraNode:
        nonlocal changes
        children = [visit(child) for child in n.children()]
        n = _rebuild(n, children) if children else n
        if not isinstance(n, alg.Group):
            return n
        child = n.pattern
        if not isinstance(child, alg.Project) or child.variables is None:
            return n
        if any(a.expression is None and a.distinct for a in n.aggregates):
            # COUNT(DISTINCT *) counts distinct whole solutions — every
            # column is semantically significant, nothing can be pruned.
            return n
        needed = set(n.group_vars)
        for aggregate in n.aggregates:
            if aggregate.expression is not None:
                needed |= expression_variables(aggregate.expression)
        keep = [v for v in child.variables if v in needed]
        if len(keep) == len(child.variables):
            return n
        changes += 1
        return alg.Group(alg.Project(child.pattern, keep),
                         n.group_vars, n.aggregates, n.having)

    return visit(node), changes


# ----------------------------------------------------------------------
# Pass 5: LimitPushdown
# ----------------------------------------------------------------------

def limit_pushdown(node: alg.AlgebraNode) -> PassResult:
    """Move row bounds toward the data and fuse bounded sorts.

    Three rewrites, applied bottom-up until the pipeline reaches fixpoint:

    * ``Slice(Slice(p))`` — compose the two windows into one.
    * ``Slice(Project(p))`` — push the slice below the projection.  A
      projection is a per-row map (cardinality- and order-preserving), so
      slicing before or after it selects the same rows; moving the bound
      down lets it meet an ``OrderBy`` (next rewrite) or sit directly on a
      pipelined producer.  This deliberately crosses subquery boundaries:
      a nested SELECT is evaluated independently, but its row order and
      multiplicity are exactly what the outer slice would have seen.
    * ``Slice(OrderBy(p), limit=k)`` — fuse into :class:`~.algebra.TopK`:
      a single bounded-sort operator that keeps only ``offset + k`` rows.
    * ``TopK(Project(p))`` — swap to ``Project(TopK(p))`` when every sort
      variable bound below survives the projection (ordering before or
      after the column cut then ranks identically), so the projection
      copies only the ``offset + k`` rows the bounded heap keeps.

    ``Distinct`` is *not* reordered with a slice (``LIMIT k`` over
    ``DISTINCT`` must dedupe first); the ``Slice`` operator instead stops
    pulling from the dedupe as soon as ``k`` distinct rows exist.  A
    ``LIMIT 0`` slice is left alone — the ``Slice`` operator answers it
    without pulling a single row, so there is nothing to fuse.
    """
    changes = 0

    def visit(n: alg.AlgebraNode) -> alg.AlgebraNode:
        nonlocal changes
        children = [visit(child) for child in n.children()]
        n = _rebuild(n, children) if children else n
        if isinstance(n, alg.TopK):
            inner = n.pattern
            if isinstance(inner, alg.Project):
                scope = set(inner.pattern.in_scope())
                if inner.variables is None:
                    projected = {v for v in scope
                                 if not v.startswith("__agg_")}
                else:
                    projected = set(inner.variables)
                if all(var in projected for var, _ in n.keys
                       if var in scope):
                    changes += 1
                    return alg.Project(
                        alg.TopK(inner.pattern, n.keys, n.limit, n.offset),
                        inner.variables)
            return n
        if not isinstance(n, alg.Slice):
            return n
        inner = n.pattern
        if isinstance(inner, alg.Slice):
            # rows[o2:o2+l2][o1:o1+l1] == rows[o2+o1 : o2+o1+min-window]
            offset = inner.offset + n.offset
            if inner.limit is None:
                limit = n.limit
            else:
                window = max(inner.limit - n.offset, 0)
                limit = window if n.limit is None else min(n.limit, window)
            changes += 1
            return visit(alg.Slice(inner.pattern, limit, offset))
        if isinstance(inner, alg.Project):
            changes += 1
            return alg.Project(visit(alg.Slice(inner.pattern,
                                               n.limit, n.offset)),
                               inner.variables)
        if isinstance(inner, alg.OrderBy) and n.limit:
            changes += 1
            return alg.TopK(inner.pattern, inner.keys, n.limit, n.offset)
        return n

    return visit(node), changes


# ----------------------------------------------------------------------
# Pass 6: JoinOrdering (plan-time selectivity ordering)
# ----------------------------------------------------------------------

def make_join_ordering(graph, dataset=None) -> PassFn:
    """Build the join-ordering pass for a query's resolved default graph.

    Reorders every BGP's triple patterns with the greedy selectivity
    ordering of :func:`~.optimizer.order_patterns`; BGPs under a
    ``GRAPH <uri>`` scope are ordered with that graph's statistics.  This
    is the same decision the evaluator used to make per execution — made
    once here, it is amortized over every plan-cache hit.
    """
    stats_for = statistics_memo()

    def join_ordering(node: alg.AlgebraNode) -> PassResult:
        changes = 0

        def visit(n: alg.AlgebraNode, g) -> alg.AlgebraNode:
            nonlocal changes
            if isinstance(n, alg.BGP):
                if g is None or len(n.triples) < 2:
                    return n
                ordered = order_patterns(n.triples, stats_for(g))
                if ordered != n.triples:
                    changes += 1
                    return alg.BGP(ordered)
                return n
            if isinstance(n, alg.GraphPattern):
                return alg.GraphPattern(n.graph_uri, visit(
                    n.pattern, _scoped_graph(n, g, dataset)))
            children = [visit(child, g) for child in n.children()]
            return _rebuild(n, children) if children else n

        return visit(node, graph), changes

    return join_ordering


# ----------------------------------------------------------------------
# Pass 7: CostBasedJoinStrategy (post-fixpoint annotation pass)
# ----------------------------------------------------------------------

#: Minimum triple count of a probe-side predicate before a join is marked
#: SIP-eligible: filtering a handful of candidates costs more bookkeeping
#: than it saves.
SIP_MIN_PREDICATE_TRIPLES = 32


def _probe_prunable(probe: alg.AlgebraNode, shared: Set[str],
                    stats: GraphStatistics) -> bool:
    """True when the probe subtree contains a BGP pattern that binds a
    shared variable under a constant predicate of non-trivial cardinality
    — the leaf a sideways filter would actually prune."""
    for bgp in alg.collect_bgps(probe):
        for s, p, o in bgp.triples:
            if not is_concrete(p):
                continue
            names = [t.name for t in (s, o) if isinstance(t, Variable)]
            if not any(name in shared for name in names):
                continue
            if stats.predicate_cardinality(p) >= SIP_MIN_PREDICATE_TRIPLES:
                return True
    return False


def _annotate_bgp(bgp: alg.BGP, stats: GraphStatistics) -> int:
    """Annotate one BGP for :func:`make_cost_based_join_strategy`; 1 when
    it chose a strategy, else 0."""
    triples = bgp.triples
    cost_nl, bgp.est_rows = estimate_join(triples, stats)
    if len(triples) < 2:
        return 0
    if len(triples) >= 3 and bgp_is_cyclic(triples):
        order = generic_join_order(triples, stats)
        if order is not None:
            cost_wcoj = estimate_wcoj(triples, order, stats)
            if cost_wcoj * WCOJ_COST_FACTOR <= cost_nl:
                bgp.strategy, bgp.est_cost = "wcoj", cost_wcoj
                bgp.eliminate = tuple(order)
                bgp.program = bgp_program(triples, stats, order)
                return 1
    program = bgp_program(triples, stats)
    if not any(isinstance(step, Intersect) for step in program):
        return 0
    bgp.strategy, bgp.est_cost, bgp.program = "intersect", cost_nl, program
    return 1


class StarArm(NamedTuple):
    """One triple of a star: ``(centre predicate end)`` when ``out``,
    else ``(end predicate centre)``.  ``end`` is a constant or a leaf
    :class:`~repro.rdf.terms.Variable`."""
    predicate: PatternTerm
    end: PatternTerm
    out: bool


class Star(NamedTuple):
    """A ``Group`` the executor counts from the indexes without joining
    its BGP (:func:`star_shape`).  ``keys`` names, per grouping
    variable, the arm it is the leaf of; ``distinct`` tells, per
    aggregate, ``COUNT(DISTINCT ?centre)`` from a row count."""
    centre: str
    arms: Tuple[StarArm, ...]
    keys: Tuple[int, ...]
    distinct: Tuple[bool, ...]


def star_shape(group: alg.Group) -> Optional[Star]:
    """The :class:`Star` a ``Group`` over a BGP is, or ``None``.

    A star's triples all have constant predicates and each contains one
    shared variable, the *centre*, exactly once; the centre is no
    grouping variable.  The other end of each triple (an *arm*) is a
    constant or a *leaf*: a variable in no other triple.  Every grouping
    variable is a leaf, and every aggregate is ``COUNT(*)``,
    ``COUNT(?v)`` over a BGP variable (always bound, so a row count) or
    ``COUNT(DISTINCT ?centre)``.  Each row of such a BGP is one centre
    with one end per arm, so a group's row count is a sum over centres
    of products of index-set sizes (:func:`~.operators.group.star_count`).
    """
    bgp = group.pattern
    if not isinstance(bgp, alg.BGP) or not bgp.triples \
            or len(set(group.group_vars)) != len(group.group_vars):
        return None
    head = bgp.triples[0]
    # The object first: a one-pattern star centred on its object reads
    # only the POS row, as the row path does, so a store-backed graph
    # need not build its SPO index for it.
    for term in (head[2], head[0]):
        if isinstance(term, Variable) and term.name not in group.group_vars:
            star = _star_around(term.name, group)
            if star is not None:
                return star
    return None


def _star_around(centre: str, group: alg.Group) -> Optional[Star]:
    arms: List[StarArm] = []
    for s, p, o in group.pattern.triples:
        at_s = isinstance(s, Variable) and s.name == centre
        at_o = isinstance(o, Variable) and o.name == centre
        if isinstance(p, Variable) or at_s == at_o:
            return None
        arms.append(StarArm(p, o if at_s else s, at_s))
    leaves = [arm.end.name for arm in arms if isinstance(arm.end, Variable)]
    if len(set(leaves)) != len(leaves):
        return None  # a leaf shared by two triples is a join variable
    leaf_arm = {arm.end.name: i for i, arm in enumerate(arms)
                if isinstance(arm.end, Variable)}
    if any(v not in leaf_arm for v in group.group_vars):
        return None
    distinct: List[bool] = []
    for aggregate in group.aggregates:
        expr = aggregate.expression
        if aggregate.function != "count" \
                or (expr is not None and type(expr) is not VarExpr):
            return None
        if aggregate.distinct:
            if expr is None or expr.name != centre:
                return None
        elif expr is not None and expr.name != centre \
                and expr.name not in leaf_arm:
            return None
        distinct.append(aggregate.distinct)
    return Star(centre, tuple(arms),
                tuple(leaf_arm[v] for v in group.group_vars),
                tuple(distinct))


def _scoped_graph(node: alg.GraphPattern, graph, dataset):
    """The graph a ``GRAPH <uri>`` scope plans against: the named graph
    when the dataset holds it, else the enclosing one."""
    if dataset is not None and node.graph_uri in dataset:
        return dataset.graph(node.graph_uri)
    return graph


def make_cost_based_join_strategy(graph, dataset=None) -> PassFn:
    """Build the CostBasedJoinStrategy annotation pass for a resolved
    default graph.

    Unlike the rewrite passes, this one *annotates* nodes and must
    therefore run after the rewrite pipeline reaches fixpoint (rebuilding
    passes would drop the attributes).  It annotates a copy of its input:
    the rewrite passes share every subtree they leave alone with the
    parsed query, which the engine memoises and plans from again after a
    graph mutation.  Per BGP it estimates
    the output cardinality (``est_rows``, from the synopsis-backed
    :class:`~.optimizer.GraphStatistics`) and chooses a join strategy:

    * ``wcoj`` — the BGP's join hypergraph is cyclic
      (:func:`~.optimizer.bgp_is_cyclic`), structurally eligible for
      generic join, and its estimated generic-join cost (``est_cost``)
      beats nested-loop by :data:`~.optimizer.WCOJ_COST_FACTOR`; the
      variable elimination order is annotated as ``eliminate``.
    * ``intersect`` — the head-pattern walk of
      :func:`~.optimizer.bgp_program` takes some intersection step.
    * nested-loop otherwise (no ``strategy`` annotation).

    A BGP with a strategy also gets the step ``program`` that strategy
    runs; one without matches its patterns in order.  Joins additionally
    get ``sip_eligible`` marks, and a ``Group`` over a BGP that
    :func:`star_shape` accepts gets its ``star`` (on a single
    :class:`~repro.rdf.graph.Graph`; a union view's accessors merge
    member sets per probe, so it keeps the row path).  The evaluator
    follows the annotations as they stand, with one run-time decision:
    when a join's sideways filter names a variable of a non-``wcoj`` BGP
    with several patterns, the BGP's patterns are re-ordered by
    filter-discounted estimates, and an ``intersect`` BGP's program is
    rebuilt over the new order (:func:`~.operators.bgp.program_for`).
    """
    stats_for = statistics_memo()

    def join_strategy(node: alg.AlgebraNode) -> PassResult:
        changes = 0

        def mark_sip(n, build, probe, g) -> None:
            nonlocal changes
            if g is None:
                return
            shared = set(build.in_scope()) & set(probe.in_scope())
            if shared and _probe_prunable(probe, shared, stats_for(g)):
                n.sip_eligible = True
                changes += 1

        def visit(n: alg.AlgebraNode, g) -> None:
            nonlocal changes
            if isinstance(n, alg.BGP):
                if g is not None and n.triples:
                    changes += _annotate_bgp(n, stats_for(g))
                return
            if isinstance(n, alg.Group) and isinstance(g, Graph):
                star = star_shape(n)
                if star is not None:
                    n.star = star
                    changes += 1
                    return  # a star reads indexes: its BGP never runs
            if isinstance(n, alg.GraphPattern):
                visit(n.pattern, _scoped_graph(n, g, dataset))
                return
            # Exports flow from the side an operator holds first into
            # the side it evaluates next (LeftJoin holds its preserved
            # side only when no bounded consumer sits above it).
            if isinstance(n, (alg.Join, alg.LeftJoin, alg.Minus)):
                mark_sip(n, n.left, n.right, g)
            elif isinstance(n, alg.FilterExists) and not n.negated:
                mark_sip(n, n.group, n.pattern, g)
            for child in n.children():
                visit(child, g)

        node = _copy_tree(node)
        visit(node, graph)
        return node, changes

    return join_strategy


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------

#: The rewrite passes every plan goes through, in order (JoinOrdering is
#: appended by :func:`optimize_plan` when a graph is resolved).
DEFAULT_PASSES: Tuple[Tuple[str, PassFn], ...] = (
    ("FilterPushdown", filter_pushdown),
    ("ProjectionPruning", projection_pruning),
    ("BGPMerge", bgp_merge),
    ("AggregatePushdown", aggregate_pushdown),
    ("LimitPushdown", limit_pushdown),
)


def optimize_plan(query: alg.Query, key: str = "", graph=None, dataset=None,
                  source: str = "text",
                  passes: Optional[Sequence[Tuple[str, PassFn]]] = None
                  ) -> Plan:
    """Run the pass pipeline over a parsed/compiled query and return a
    :class:`Plan`.

    ``graph`` is the query's resolved default graph (its statistics drive
    ``JoinOrdering`` and ``CostBasedJoinStrategy``; with ``None`` neither
    runs), ``dataset`` resolves ``GRAPH <uri>`` scopes, and ``passes``
    replaces :data:`DEFAULT_PASSES`.  Passes rerun until a full sweep
    changes nothing (earlier passes expose opportunities to later ones),
    capped at :data:`MAX_PIPELINE_ROUNDS` sweeps.
    """
    pipeline = list(DEFAULT_PASSES if passes is None else passes)
    post: List[Tuple[str, PassFn]] = []
    if graph is not None:
        pipeline.append(("JoinOrdering", make_join_ordering(graph, dataset)))
        # CostBasedJoinStrategy only *annotates* (BGP strategy + estimates
        # + elimination orders, per-join SIP eligibility); it runs once
        # after the rewrite fixpoint so the rebuilding passes cannot drop
        # its attributes.
        post.append(("CostBasedJoinStrategy",
                     make_cost_based_join_strategy(graph, dataset)))

    node = query.pattern
    totals: Dict[str, PassStats] = {
        name: PassStats(name, 0, 0.0)
        for name, _ in list(pipeline) + post}
    for _ in range(MAX_PIPELINE_ROUNDS):
        round_changes = 0
        for name, pass_fn in pipeline:
            start = time.perf_counter()
            node, changes = pass_fn(node)
            totals[name].seconds += time.perf_counter() - start
            totals[name].changes += changes
            round_changes += changes
        if not round_changes:
            break
    for name, pass_fn in post:
        start = time.perf_counter()
        node, changes = pass_fn(node)
        totals[name].seconds += time.perf_counter() - start
        totals[name].changes += changes
    optimized = alg.Query(node, from_graphs=list(query.from_graphs),
                          prefixes=dict(query.prefixes))
    return Plan(optimized, key,
                [totals[name] for name, _ in list(pipeline) + post],
                source=source)


# ----------------------------------------------------------------------
# Structural plan keys
# ----------------------------------------------------------------------

def plan_skeleton(query: alg.Query) -> Tuple[str, str]:
    """The state-free part of :func:`plan_key`: the ``FROM`` list and the
    normalized algebra tree.  A pure function of the query, so it can be
    memoised next to the parsed query and survives graph mutations."""
    return repr(tuple(query.from_graphs)), _node_key(query.pattern)


def key_from_skeleton(skeleton: Tuple[str, str],
                      default_graph_uri: Optional[str] = None,
                      fingerprint: Tuple = ()) -> str:
    """Join a :func:`plan_skeleton` with the state prefix (default graph
    + dataset fingerprint) into the full :func:`plan_key` string."""
    from_graphs, pattern = skeleton
    return "|".join([from_graphs, repr(default_graph_uri),
                     repr(fingerprint), pattern])


def plan_key(query: alg.Query, default_graph_uri: Optional[str] = None,
             fingerprint: Tuple = ()) -> str:
    """A normalized structural serialization of a query, for plan caching.

    Two queries with the same algebra — regardless of surface text
    (whitespace, prefixed vs. full IRIs) — map to the same key.
    ``fingerprint`` ties the key to the dataset state so mutations re-plan
    (join ordering depends on graph statistics).
    """
    return key_from_skeleton(plan_skeleton(query), default_graph_uri,
                             fingerprint)


def _term_key(term) -> str:
    if isinstance(term, Variable):
        return "?" + term.name
    return repr(term)


def _node_key(node: alg.AlgebraNode) -> str:
    if isinstance(node, alg.BGP):
        return "BGP[%s]" % ";".join(
            ",".join(_term_key(t) for t in triple) for triple in node.triples)
    if isinstance(node, alg.InlineData):
        return "Values[%s|%s]" % (",".join(node.variables),
                                  ";".join(repr(row) for row in node.rows))
    if isinstance(node, alg.Join):
        return "Join(%s,%s)" % (_node_key(node.left), _node_key(node.right))
    if isinstance(node, alg.LeftJoin):
        condition = node.condition.sparql() if node.condition else ""
        return "LeftJoin(%s,%s,%s)" % (_node_key(node.left),
                                       _node_key(node.right), condition)
    if isinstance(node, alg.Union):
        return "Union(%s,%s)" % (_node_key(node.left), _node_key(node.right))
    if isinstance(node, alg.Minus):
        return "Minus(%s,%s)" % (_node_key(node.left), _node_key(node.right))
    if isinstance(node, alg.Filter):
        return "Filter(%s,%s)" % (node.condition.sparql(),
                                  _node_key(node.pattern))
    if isinstance(node, alg.Extend):
        return "Extend(%s,%s,%s)" % (node.var, node.expression.sparql(),
                                     _node_key(node.pattern))
    if isinstance(node, alg.Group):
        having = node.having.sparql() if node.having is not None else ""
        return "Group(%s|%s|%s|%s)" % (
            ",".join(node.group_vars),
            ",".join(a.sparql() for a in node.aggregates),
            having, _node_key(node.pattern))
    if isinstance(node, alg.Project):
        variables = "*" if node.variables is None else ",".join(node.variables)
        return "Project(%s|%s)" % (variables, _node_key(node.pattern))
    if isinstance(node, alg.Distinct):
        return "Distinct(%s)" % _node_key(node.pattern)
    if isinstance(node, alg.OrderBy):
        return "OrderBy(%s|%s)" % (node.keys, _node_key(node.pattern))
    if isinstance(node, alg.Slice):
        return "Slice(%s,%s|%s)" % (node.limit, node.offset,
                                    _node_key(node.pattern))
    if isinstance(node, alg.TopK):
        return "TopK(%s,%s,%s|%s)" % (node.keys, node.limit, node.offset,
                                      _node_key(node.pattern))
    if isinstance(node, alg.GraphPattern):
        return "Graph(%s|%s)" % (node.graph_uri, _node_key(node.pattern))
    if isinstance(node, alg.FilterExists):
        return "Exists(%s,%s,%s)" % (node.negated, _node_key(node.pattern),
                                     _node_key(node.group))
    raise TypeError("cannot serialize algebra node %r" % node)
