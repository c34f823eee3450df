"""The logical-plan layer: rewrite rules over the SPARQL algebra.

The parser turns SPARQL text into algebra, and this module turns that
algebra into an executable :class:`Plan`.  :data:`RULES` maps each node
type to its rewrite rules, each a pure ``node -> replacement | None``
reported under its pass name:

* ``FilterPushdown``   — move filters below joins/unions toward the data
  (``Filter``, ``LeftJoin``),
* ``ProjectionPruning`` — collapse and remove redundant projections
  (``Project``, ``Distinct``),
* ``BGPMerge``         — fuse adjacent basic graph patterns into one scope
  (``Join``),
* ``AggregatePushdown`` — narrow pre-``Group`` projections to the grouping
  and aggregated variables only, so aggregations consume (and the
  hash ``Group`` keys on) exactly the columns they read (``Group``),
* ``LimitPushdown``    — fuse nested slices, push ``Slice`` bounds below
  projections, fuse ``Slice`` over ``OrderBy`` into a single bounded-sort
  :class:`~.algebra.TopK` node and move it below its projection
  (``Slice``, ``TopK``).

:func:`rewrite` runs the table to its fixpoint in one bottom-up walk: a
node is offered to its rules once its children are finished, and a
replacement is walked again.  Input trees are never mutated, and each
pass name's firings are recorded on the plan, so ablations and tests can
see exactly what fired.  ``JoinOrdering`` (:func:`order_joins`, the
selectivity-greedy triple ordering of :mod:`~repro.sparql.optimizer`)
then runs once over the finished tree, at plan time instead of on every
evaluation; no rule reads the order of a BGP's patterns.

After that, :func:`lower` builds the *physical* tree the
evaluator runs (:mod:`~repro.sparql.physical`), recorded as the
``CostBasedJoinStrategy`` pass.  Each BGP becomes a
:class:`~.physical.Scan` holding its estimated rows, its join strategy
(nested-loop / ``intersect`` / ``wcoj``, the last with a variable
elimination order for cyclic BGPs detected via the join hypergraph) and
its step program (:func:`~.optimizer.bgp_program`); each join becomes a
physical join whose ``sip`` field says whether it filters sideways; a
``Group`` counted straight from the indexes becomes a
:class:`~.physical.StarCount`.  The logical tree is left as the rules
returned it, and :meth:`Plan.explain` prints the physical one.

:class:`~repro.sparql.engine.Engine` keys its plan cache on
:func:`plan_key`, a normalized structural serialization of the algebra
(:meth:`~.algebra.AlgebraNode.key`) — two textually different renderings
of the same query share one cached plan.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import reduce
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

from ..rdf.graph import Graph
from ..rdf.terms import PatternTerm, Variable, is_concrete
from . import algebra as alg
from .expressions import AndExpr, Expression, VarExpr
from .optimizer import (GraphStatistics, Intersect, Match, WCOJ_COST_FACTOR,
                        bgp_is_cyclic, bgp_program, estimate_join,
                        estimate_wcoj, generic_join_order, order_patterns,
                        statistics_memo)
from .physical import (AntiJoin, HashJoin, LeftHashJoin, Scan, SemiJoin,
                       StarCount, explain_lines)

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
    """An optimized, executable plan.

    Holds the rewritten logical :class:`~.algebra.Query` (``query``), the
    physical tree built from it (``root``, see :func:`lower`), the
    structural cache key it was planned under, per-pass statistics, and
    the output column order (``None`` for ``SELECT *``).  Plans are
    immutable once built and safe to execute any number of times.
    """

    def __init__(self, query: alg.Query, root, key: str,
                 pass_stats: Sequence[PassStats], source: str = "text"):
        self.query = query
        self.root = root
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
        self.subqueries = alg.count_nested_selects(query.pattern)

    @property
    def total_changes(self) -> int:
        return sum(s.changes for s in self.pass_stats)

    def explain(self) -> str:
        """Textual rendering of the physical tree plus pass statistics.

        The header line names the ``FROM`` graphs.  Each node renders
        like its logical node; a physical node adds its decisions in a
        trailing ``[...]`` block — a scan's join strategy, estimated
        cardinality and (for ``wcoj``) variable elimination order,
        ``[sip]`` on a join that filters sideways, ``[count=star ?c]``
        on a star ``Group`` (:func:`star_shape`) — and a scan with a
        strategy lists its program steps below it, one per line
        (:func:`~.physical.explain_lines`).

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
        lines = explain_lines(self.query.from_graphs, self.root)
        for stats in self.pass_stats:
            lines.append("-- %s: %d change(s) in %.6fs"
                         % (stats.name, stats.changes, stats.seconds))
        return "\n".join(lines)

    def __repr__(self):
        return "Plan(source=%s, passes=%s)" % (
            self.source, [s.name for s in self.pass_stats])


#: The modifiers above the root projection.
SPINE = (alg.Slice, alg.OrderBy, alg.Distinct, alg.TopK)


def output_variables(query: alg.Query) -> Optional[List[str]]:
    """The projection's column order, or ``None`` for ``SELECT *`` (column
    order then derives from the solutions)."""
    node = query.pattern
    while isinstance(node, SPINE):
        node = node.pattern
    if isinstance(node, alg.Project) and node.variables is not None:
        return list(node.variables)
    return None


# ----------------------------------------------------------------------
# The rewrite rules (each is a pure ``node -> replacement | None``)
# ----------------------------------------------------------------------

#: A rewrite rule: the replacement for a node, or ``None`` to keep it.
Rule = Callable[[alg.AlgebraNode], Optional[alg.AlgebraNode]]


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


def push_filter(n: alg.Filter) -> Optional[alg.AlgebraNode]:
    """FilterPushdown: move a filter toward the data.

    A conjunct moves below a Join (or to the preserved side of a LeftJoin)
    when all its variables are in scope on that side *and none* are in
    scope on the other side — the moved filter then sees exactly the same
    bindings it would have seen above the join, including unbound ones.
    Filters distribute into both branches of a Union unconditionally
    (union rows come from exactly one branch).
    """
    inner = n.pattern
    if isinstance(inner, alg.Union):
        return alg.Union(alg.Filter(n.condition, inner.left),
                         alg.Filter(n.condition, inner.right))
    if not isinstance(inner, (alg.Join, alg.LeftJoin)):
        return None
    left_scope = set(inner.left.in_scope())
    right_scope = set(inner.right.in_scope())
    stay: List[Expression] = []
    to_left: List[Expression] = []
    to_right: List[Expression] = []
    for conjunct in _split_conjuncts(n.condition):
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
    left, right = inner.left, inner.right
    for conjunct in to_left:
        left = alg.Filter(conjunct, left)
    for conjunct in to_right:
        right = alg.Filter(conjunct, right)
    node = inner.replace([left, right])
    for conjunct in stay:
        node = alg.Filter(conjunct, node)
    return node


def push_optional_condition(n: alg.LeftJoin) -> Optional[alg.AlgebraNode]:
    """FilterPushdown: a conjunct of a LeftJoin condition that names no
    variable in scope on the preserved side becomes a filter on the
    optional side — no preserved row binds its variables, so it tests
    the optional row alone."""
    if n.condition is None:
        return None
    left_scope = set(n.left.in_scope())
    keep: List[Expression] = []
    push: List[Expression] = []
    for conjunct in _split_conjuncts(n.condition):
        (keep if expression_variables(conjunct) & left_scope
         else push).append(conjunct)
    if not push:
        return None
    return alg.LeftJoin(n.left, alg.Filter(reduce(AndExpr, push), n.right),
                        reduce(AndExpr, keep) if keep else None)


def prune_projection(n: alg.AlgebraNode) -> Optional[alg.AlgebraNode]:
    """ProjectionPruning: remove redundant projection work.

    * ``Project(vars)`` over ``Project(cvars)`` with ``vars ⊆ cvars``
      collapses to a single projection (one table copy instead of two).
    * A ``Project`` whose explicit variables equal its child's in-scope
      columns (same order) is a no-op and is dropped — which also
      exposes the pattern below it to ``BGPMerge``.
    * ``Distinct(Distinct(x))`` collapses.

    ``SELECT *`` projections (``variables=None``) are never touched: they
    carry the scope-isolation intent of deliberately nested queries (the
    naive-strategy baseline measures exactly that cost).  :func:`rewrite`
    never offers it the root projection, which defines the result
    column order.
    """
    if isinstance(n, alg.Distinct):
        return n.pattern if isinstance(n.pattern, alg.Distinct) else None
    if n.variables is None:
        return None
    child = n.pattern
    if (isinstance(child, alg.Project) and child.variables is not None
            and set(n.variables) <= set(child.variables)):
        return alg.Project(child.pattern, n.variables)
    if list(n.variables) == child.in_scope():
        return child
    return None


def merge_bgps(n: alg.Join) -> Optional[alg.AlgebraNode]:
    """BGPMerge: a join of two basic graph patterns over the same active
    graph is, by the SPARQL algebra, the BGP of their combined triples —
    and one flat BGP is what the selectivity optimizer orders best."""
    if isinstance(n.left, alg.BGP) and isinstance(n.right, alg.BGP):
        return alg.BGP(n.left.triples + n.right.triples)
    return None


def narrow_group_input(n: alg.Group) -> Optional[alg.AlgebraNode]:
    """AggregatePushdown: shrink the data flowing into an aggregation.

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
    This narrowing is what lets the hash ``Group`` key on thin id tuples.
    """
    child = n.pattern
    if not isinstance(child, alg.Project) or child.variables is None:
        return None
    if any(a.expression is None and a.distinct for a in n.aggregates):
        # COUNT(DISTINCT *) counts distinct whole solutions — every
        # column is semantically significant, nothing can be pruned.
        return None
    needed = set(n.group_vars)
    for aggregate in n.aggregates:
        if aggregate.expression is not None:
            needed |= expression_variables(aggregate.expression)
    keep = [v for v in child.variables if v in needed]
    if len(keep) == len(child.variables):
        return None
    return n.replace([alg.Project(child.pattern, keep)])


def push_slice(n: alg.Slice) -> Optional[alg.AlgebraNode]:
    """LimitPushdown: move a row bound toward the data.

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

    ``Distinct`` is *not* reordered with a slice (``LIMIT k`` over
    ``DISTINCT`` must dedupe first); the ``Slice`` operator instead stops
    pulling from the dedupe as soon as ``k`` distinct rows exist.  A
    ``LIMIT 0`` slice is left alone — the ``Slice`` operator answers it
    without pulling a single row, so there is nothing to fuse.
    """
    inner = n.pattern
    if isinstance(inner, alg.Slice):
        # rows[o2:o2+l2][o1:o1+l1] == rows[o2+o1 : o2+o1+min-window]
        offset = inner.offset + n.offset
        if inner.limit is None:
            limit = n.limit
        else:
            window = max(inner.limit - n.offset, 0)
            limit = window if n.limit is None else min(n.limit, window)
        return alg.Slice(inner.pattern, limit, offset)
    if isinstance(inner, alg.Project):
        return inner.replace([n.replace([inner.pattern])])
    if isinstance(inner, alg.OrderBy) and n.limit:
        return alg.TopK(inner.pattern, inner.keys, n.limit, n.offset)
    return None


def swap_topk(n: alg.TopK) -> Optional[alg.AlgebraNode]:
    """LimitPushdown: ``TopK(Project(p))`` becomes ``Project(TopK(p))``
    when every sort variable bound below survives the projection
    (ordering before or after the column cut then ranks identically), so
    the projection copies only the ``offset + k`` rows the bounded heap
    keeps."""
    inner = n.pattern
    if not isinstance(inner, alg.Project):
        return None
    scope = set(inner.pattern.in_scope())
    if inner.variables is None:
        projected = {v for v in scope if not v.startswith("__agg_")}
    else:
        projected = set(inner.variables)
    if all(var in projected for var, _ in n.keys if var in scope):
        return inner.replace([n.replace([inner.pattern])])
    return None


# ----------------------------------------------------------------------
# The rule table and its walker
# ----------------------------------------------------------------------

#: Each node type's rules, in the order they are tried, each with the
#: pass name its firings are reported under.
RULES: Dict[type, List[Tuple[str, Rule]]] = {
    alg.Filter: [("FilterPushdown", push_filter)],
    alg.LeftJoin: [("FilterPushdown", push_optional_condition)],
    alg.Project: [("ProjectionPruning", prune_projection)],
    alg.Distinct: [("ProjectionPruning", prune_projection)],
    alg.Join: [("BGPMerge", merge_bgps)],
    alg.Group: [("AggregatePushdown", narrow_group_input)],
    alg.Slice: [("LimitPushdown", push_slice)],
    alg.TopK: [("LimitPushdown", swap_topk)],
}


def rewrite(node: alg.AlgebraNode, rules=RULES
            ) -> Tuple[alg.AlgebraNode, Dict[str, PassStats]]:
    """Rewrite ``node``'s tree to a fixpoint of ``rules`` in one walk.

    Children first: each node is rebuilt over its finished children
    (:meth:`~.algebra.AlgebraNode.replace`), then offered to its type's
    rules in order; when one fires, the replacement is walked the same
    way.  A memo maps every node walked to its finished node, so the
    parts of a replacement that were already finished are not walked
    again.  The root projection — the first ``Project`` below the root's
    ``Slice``/``OrderBy``/``Distinct``/``TopK`` spine — is offered to no
    rule: it defines the result column order.  ``node`` is not changed.
    Returns the rewritten tree and, per pass name in ``rules``, its
    :class:`PassStats`.
    """
    stats = {name: PassStats(name, 0, 0.0)
             for entries in rules.values() for name, _ in entries}
    # Keyed on the nodes themselves (they hash by identity): holding a
    # node keeps it alive, so no new node can take its key.
    done: Dict[alg.AlgebraNode, alg.AlgebraNode] = {}

    def walk(n: alg.AlgebraNode, root: bool) -> alg.AlgebraNode:
        out = done.get(n)
        if out is not None:
            return out
        below = root and isinstance(n, SPINE)
        out = n.replace([walk(child, below) for child in n.children()])
        if not (root and type(out) is alg.Project):
            for name, rule in rules.get(type(out), ()):
                start = time.perf_counter()
                replacement = rule(out)
                stats[name].seconds += time.perf_counter() - start
                if replacement is not None:
                    stats[name].changes += 1
                    out = walk(replacement, root)
                    break
        done[n] = done[out] = out
        return out

    return walk(node, True), stats


def order_joins(node: alg.AlgebraNode, graph, dataset=None,
                stats_for=None) -> Tuple[alg.AlgebraNode, int]:
    """JoinOrdering: reorder every BGP's triple patterns with the greedy
    selectivity ordering of :func:`~.optimizer.order_patterns`; returns
    ``(node, changes)``.

    BGPs under a ``GRAPH <uri>`` scope are ordered with that graph's
    statistics.  This is the same decision the evaluator used to make
    per execution — made once here, it is amortized over every
    plan-cache hit.  ``stats_for`` is the plan's
    :func:`~.optimizer.statistics_memo` (a fresh one when omitted).
    """
    stats_for = stats_for or statistics_memo()
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
            g = _scoped_graph(n, g, dataset)
        return n.replace([visit(child, g) for child in n.children()])

    return visit(node, graph), changes


# ----------------------------------------------------------------------
# Lowering: the physical plan (the CostBasedJoinStrategy pass)
# ----------------------------------------------------------------------

#: Minimum triple count of a probe-side predicate before a join gets
#: ``sip``: filtering a handful of candidates costs more bookkeeping than
#: it saves.
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


#: The physical join each binary logical join is lowered to.
JOINS = {alg.Join: HashJoin, alg.LeftJoin: LeftHashJoin, alg.Minus: AntiJoin}


def lower(node: alg.AlgebraNode, graph=None, dataset=None,
          stats_for=None) -> Tuple[object, int]:
    """Build the physical tree (:mod:`~repro.sparql.physical`) for the
    optimized logical tree ``node``; returns ``(root, changes)``, where
    ``changes`` counts the decisions made.  ``node`` is not changed.

    With ``graph``, the query's resolved default graph, and
    ``stats_for``, the plan's :func:`~.optimizer.statistics_memo`
    (shared with :func:`order_joins`), each BGP becomes
    a :class:`~.physical.Scan` with its output cardinality estimate
    (``est_rows``, from the synopsis-backed
    :class:`~.optimizer.GraphStatistics`) and a join strategy:

    * ``wcoj`` — the BGP's join hypergraph is cyclic
      (:func:`~.optimizer.bgp_is_cyclic`), structurally eligible for
      generic join, and its estimated generic-join cost beats
      nested-loop by :data:`~.optimizer.WCOJ_COST_FACTOR`; the variable
      elimination order is the scan's ``eliminate``.
    * ``intersect`` — the head-pattern walk of
      :func:`~.optimizer.bgp_program` takes some intersection step.
    * nested-loop otherwise (``strategy`` is ``None``).

    The scan's ``program`` is what that strategy runs; a nested-loop
    scan matches its patterns in order.  Each join's ``sip`` says
    whether its build side's key sets can prune a probe-side leaf
    (:func:`_probe_prunable`), and a ``Group`` over a BGP that
    :func:`star_shape` accepts becomes a :class:`~.physical.StarCount`
    (on a single :class:`~repro.rdf.graph.Graph`; a union view's
    accessors merge member sets per probe, so it keeps the row path).
    ``GRAPH <uri>`` scopes are planned with that graph's statistics.

    Without ``graph`` (unplanned algebra) nothing is estimated: every
    BGP scans in order, no join filters sideways, no ``Group`` is a
    star.  Either way a BGP whose pattern set occurs more than once in
    the tree is ``shared``: matched once per execution and replayed.
    """
    bgps = [bgp.triples for bgp in alg.collect_bgps(node) if bgp.triples]
    repeated = {key for key, n in Counter(map(frozenset, bgps)).items()
                if n > 1} if len(bgps) > 1 else ()
    changes = 0

    def scan(bgp: alg.BGP, g) -> Scan:
        nonlocal changes
        triples = bgp.triples
        shared = bool(repeated) and frozenset(triples) in repeated
        if g is None or not triples:
            return Scan(bgp, tuple(map(Match, triples)), shared=shared)
        stats = stats_for(g)
        cost_nl, est_rows = estimate_join(triples, stats)
        if len(triples) >= 3 and bgp_is_cyclic(triples):
            order = generic_join_order(triples, stats)
            if order is not None and estimate_wcoj(
                    triples, order, stats) * WCOJ_COST_FACTOR <= cost_nl:
                changes += 1
                return Scan(bgp, bgp_program(triples, stats, order), "wcoj",
                            est_rows, tuple(order), shared)
        if len(triples) >= 2:
            program = bgp_program(triples, stats)
            if any(isinstance(step, Intersect) for step in program):
                changes += 1
                return Scan(bgp, program, "intersect", est_rows,
                            shared=shared)
        return Scan(bgp, tuple(map(Match, triples)), est_rows=est_rows,
                    shared=shared)

    def sip(build: alg.AlgebraNode, probe: alg.AlgebraNode, g) -> bool:
        # Exports flow from the side an operator holds first into the
        # side it evaluates next (LeftJoin holds its preserved side only
        # when no bounded consumer sits above it).
        nonlocal changes
        if g is None:
            return False
        shared = set(build.in_scope()) & set(probe.in_scope())
        if shared and _probe_prunable(probe, shared, stats_for(g)):
            changes += 1
            return True
        return False

    def visit(n: alg.AlgebraNode, g):
        nonlocal changes
        kind = type(n)
        if kind is alg.BGP:
            return scan(n, g)
        join = JOINS.get(kind)
        if join is not None:
            return join(n, visit(n.left, g), visit(n.right, g),
                        sip(n.left, n.right, g))
        if kind is alg.FilterExists:
            return SemiJoin(n, visit(n.pattern, g), visit(n.group, g),
                            not n.negated and sip(n.group, n.pattern, g))
        if kind is alg.Group and isinstance(g, Graph):
            star = star_shape(n)
            if star is not None:
                changes += 1  # a star reads indexes: its BGP never runs
                return StarCount(n, scan(n.pattern, None), star)
        if kind is alg.GraphPattern and g is not None:
            g = _scoped_graph(n, g, dataset)
        return n.replace([visit(child, g) for child in n.children()])

    return visit(node, graph), changes


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------

def optimize_plan(query: alg.Query, key: str = "", graph=None, dataset=None,
                  source: str = "text", passes: Optional[Sequence[str]] = None
                  ) -> Plan:
    """Rewrite a parsed/compiled query to its fixpoint (:func:`rewrite`),
    order its joins (:func:`order_joins`), lower the result
    (:func:`lower`) and return a :class:`Plan`.

    ``graph`` is the query's resolved default graph (its statistics drive
    ``JoinOrdering`` and the lowering's ``CostBasedJoinStrategy``; with
    ``None`` neither runs and the plan is lowered without statistics),
    ``dataset`` resolves ``GRAPH <uri>`` scopes, and ``passes`` keeps
    only the :data:`RULES` reported under those pass names.
    """
    rules = RULES if passes is None else {
        kind: [rule for rule in entries if rule[0] in passes]
        for kind, entries in RULES.items()}
    node, stats = rewrite(query.pattern, rules)
    totals = list(stats.values())
    # One statistics object per graph for the whole plan: the ordering
    # and the lowering read the same figures.
    stats_for = statistics_memo()
    if graph is not None:
        start = time.perf_counter()
        node, changes = order_joins(node, graph, dataset, stats_for)
        totals.append(PassStats("JoinOrdering", changes,
                                time.perf_counter() - start))
        start = time.perf_counter()
    root, changes = lower(node, graph, dataset, stats_for)
    if graph is not None:
        totals.append(PassStats("CostBasedJoinStrategy", changes,
                                time.perf_counter() - start))
    optimized = alg.Query(node, from_graphs=list(query.from_graphs),
                          prefixes=dict(query.prefixes))
    return Plan(optimized, root, key, totals, source=source)


# ----------------------------------------------------------------------
# Structural plan keys
# ----------------------------------------------------------------------

def plan_skeleton(query: alg.Query) -> Tuple[str, str]:
    """The state-free part of :func:`plan_key`: the ``FROM`` list and the
    normalized algebra tree.  A pure function of the query, so it can be
    memoised next to the parsed query and survives graph mutations."""
    return repr(tuple(query.from_graphs)), query.pattern.key()


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
