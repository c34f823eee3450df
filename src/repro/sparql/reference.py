"""The original dict-based evaluator, kept as the executable reference.

This is the seed engine's data plane: solution multisets are lists of
``{variable name: Term}`` dicts and every operator pays a dict allocation
plus term-object hashing per row.  The production evaluator
(:class:`~.evaluator.Evaluator`) replaced it with dictionary-encoded
columnar tables; this copy is retained for two jobs:

* **Differential testing** — the columnar operators are asserted equal to
  these semantics on the same fixtures (``tests/sparql/test_solution_table``,
  the engine-level equivalence corpus, the fuzz suite and crash matrix),
  and the performance ledger checks every op's digest against it.
* **Perf trajectory** — the ``engine`` section of
  ``benchmarks/perf_report.py`` times both data planes.

``Engine(..., columnar=False)`` selects this evaluator.  It always orders
BGP patterns by selectivity and shares repeated BGPs; it runs no plan, so
such an engine answers ``query`` and ``stream`` and refuses
``evaluate_plan``.

Behavior must not drift: change the columnar evaluator, not this file,
unless a *semantic* bug is found (then fix both and add a fixture).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..rdf.terms import XSD_DOUBLE, XSD_INTEGER, Literal, Node, Variable
from . import algebra as alg
from .evaluator import EvaluationError, EvaluationStats, resolve_graph
from .expressions import ExpressionError, ebv
from .operators.group import numeric_literal
from .operators.order import sort_key
from .optimizer import GraphStatistics, order_patterns
from .solution import (Mapping, Multiset, distinct, hash_join, left_join,
                       minus, project)


class ReferenceEvaluator:
    """Evaluates an algebra tree against a dataset (dict-based multisets)."""

    def __init__(self, dataset, max_rows: Optional[int] = None):
        self.dataset = dataset
        self.max_rows = max_rows  # safety valve for runaway queries
        self.stats = EvaluationStats()
        self._stats_cache: Dict[int, GraphStatistics] = {}
        # Common-subexpression cache: identical BGPs (e.g. the repeated
        # pattern inside a full-outer-join's UNION branches) are evaluated
        # once per query.  Cached mappings are never mutated downstream
        # (every operator builds fresh dicts), so sharing is safe.
        self._bgp_cache: Dict[Tuple, Multiset] = {}

    # ------------------------------------------------------------------
    def evaluate_query(self, query: alg.Query,
                       default_graph_uri: Optional[str] = None) -> Multiset:
        graph = resolve_graph(self.dataset, query.from_graphs,
                              default_graph_uri)
        return self.evaluate(query.pattern, graph, top=True)

    # ------------------------------------------------------------------
    def evaluate(self, node: alg.AlgebraNode, graph, top: bool = False) -> Multiset:
        method = getattr(self, "_eval_%s" % type(node).__name__.lower(), None)
        if method is None:
            raise EvaluationError("cannot evaluate %r" % node)
        if isinstance(node, alg.Project) and not top:
            self.stats.materialized_subqueries += 1
        result = method(node, graph)
        self.stats.intermediate_rows += len(result)
        if self.max_rows is not None and len(result) > self.max_rows:
            raise EvaluationError("intermediate result exceeds max_rows=%d"
                                  % self.max_rows)
        return result

    # ------------------------------------------------------------------
    # Pattern evaluation
    # ------------------------------------------------------------------
    def _graph_stats(self, graph) -> GraphStatistics:
        key = id(graph)
        stats = self._stats_cache.get(key)
        if stats is None:
            stats = GraphStatistics(graph)
            self._stats_cache[key] = stats
        return stats

    def _eval_bgp(self, node: alg.BGP, graph) -> Multiset:
        self.stats.bgp_count += 1
        patterns = node.triples
        if not patterns:
            return [{}]
        cache_key = (id(graph), tuple(sorted(patterns, key=lambda t: repr(t))))
        cached = self._bgp_cache.get(cache_key)
        if cached is not None:
            self.stats.bgp_cache_hits += 1
            return cached
        if len(patterns) > 1:
            patterns = order_patterns(patterns, self._graph_stats(graph))
        solutions: Multiset = [{}]
        for pattern in patterns:
            solutions = self._match_pattern(pattern, solutions, graph)
            if not solutions:
                break
        self._bgp_cache[cache_key] = solutions
        return solutions

    def _match_pattern(self, pattern, solutions: Multiset, graph) -> Multiset:
        """Extend each solution with matches of one triple pattern."""
        s_term, p_term, o_term = pattern
        out: Multiset = []
        for mu in solutions:
            s = self._ground(s_term, mu)
            p = self._ground(p_term, mu)
            o = self._ground(o_term, mu)
            for ts, tp, to in graph.triples(s, p, o):
                self.stats.pattern_matches += 1
                new = dict(mu)
                ok = True
                for term, value in ((s_term, ts), (p_term, tp), (o_term, to)):
                    if isinstance(term, Variable):
                        existing = new.get(term.name)
                        if existing is None:
                            new[term.name] = value
                        elif existing != value:
                            # Repeated variable in the pattern must agree.
                            ok = False
                            break
                if ok:
                    out.append(new)
        return out

    @staticmethod
    def _ground(term, mu: Mapping) -> Optional[Node]:
        if isinstance(term, Variable):
            return mu.get(term.name)
        return term

    # ------------------------------------------------------------------
    def _eval_join(self, node: alg.Join, graph) -> Multiset:
        left = self.evaluate(node.left, graph)
        if not left:
            return []
        right = self.evaluate(node.right, graph)
        if not right:
            return []
        self.stats.joins += 1
        common = _common_vars(node.left, node.right)
        return hash_join(left, right, common)

    def _eval_leftjoin(self, node: alg.LeftJoin, graph) -> Multiset:
        left = self.evaluate(node.left, graph)
        if not left:
            return []
        right = self.evaluate(node.right, graph)
        self.stats.joins += 1
        common = _common_vars(node.left, node.right)
        if node.condition is None:
            return left_join(left, right, common)
        # LeftJoin with condition: extend when compatible AND condition holds.
        out: Multiset = []
        for mu in left:
            matched = False
            for other in right:
                if _compatible(mu, other):
                    merged = dict(mu)
                    merged.update(other)
                    try:
                        if ebv(node.condition.evaluate(merged)):
                            out.append(merged)
                            matched = True
                    except ExpressionError:
                        pass
            if not matched:
                out.append(mu)
        return out

    def _eval_union(self, node: alg.Union, graph) -> Multiset:
        return self.evaluate(node.left, graph) + self.evaluate(node.right, graph)

    def _eval_filter(self, node: alg.Filter, graph) -> Multiset:
        solutions = self.evaluate(node.pattern, graph)
        out = []
        condition = node.condition
        for mu in solutions:
            try:
                if ebv(condition.evaluate(mu)):
                    out.append(mu)
            except ExpressionError:
                continue  # errors eliminate the solution
        return out

    def _eval_extend(self, node: alg.Extend, graph) -> Multiset:
        solutions = self.evaluate(node.pattern, graph)
        out = []
        for mu in solutions:
            new = dict(mu)
            try:
                value = node.expression.evaluate(mu)
                new[node.var] = value
            except ExpressionError:
                pass  # leave unbound (SPARQL Extend error semantics)
            out.append(new)
        return out

    def _eval_group(self, node: alg.Group, graph) -> Multiset:
        solutions = self.evaluate(node.pattern, graph)
        group_vars = node.group_vars
        groups: Dict[Tuple, Multiset] = {}
        if group_vars:
            for mu in solutions:
                key = tuple(mu.get(v) for v in group_vars)
                groups.setdefault(key, []).append(mu)
        else:
            # Implicit single group; COUNT over an empty pattern is 0.
            groups[()] = solutions

        out: Multiset = []
        for key, members in groups.items():
            if not members and not group_vars:
                members = []
            row: Mapping = {}
            for var, value in zip(group_vars, key):
                if value is not None:
                    row[var] = value
            for aggregate in node.aggregates:
                value = _apply_aggregate(aggregate, members)
                if value is not None:
                    row[aggregate.alias] = value
            if node.having is not None:
                try:
                    if not ebv(node.having.evaluate(row)):
                        continue
                except ExpressionError:
                    continue
            out.append(row)
        return out

    def _eval_project(self, node: alg.Project, graph) -> Multiset:
        solutions = self.evaluate(node.pattern, graph)
        if node.variables is None:
            # SELECT *: drop synthetic aggregate helper variables.
            return [
                {k: v for k, v in mu.items() if not k.startswith("__agg_")}
                for mu in solutions
            ]
        return project(solutions, node.variables)

    def _eval_distinct(self, node: alg.Distinct, graph) -> Multiset:
        return distinct(self.evaluate(node.pattern, graph))

    def _eval_orderby(self, node: alg.OrderBy, graph) -> Multiset:
        solutions = self.evaluate(node.pattern, graph)
        for var, direction in reversed(node.keys):
            solutions = sorted(solutions, key=lambda mu: sort_key(mu.get(var)),
                               reverse=(direction == "desc"))
        return list(solutions)

    def _eval_slice(self, node: alg.Slice, graph) -> Multiset:
        solutions = self.evaluate(node.pattern, graph)
        start = node.offset
        end = None if node.limit is None else start + node.limit
        return solutions[start:end]

    def _eval_graphpattern(self, node: alg.GraphPattern, graph) -> Multiset:
        target = self.dataset.graph(node.graph_uri)
        return self.evaluate(node.pattern, target)

    def _eval_inlinedata(self, node: alg.InlineData, graph) -> Multiset:
        out: Multiset = []
        for row in node.rows:
            mapping = {var: value
                       for var, value in zip(node.variables, row)
                       if value is not None}
            out.append(mapping)
        return out

    def _eval_minus(self, node: alg.Minus, graph) -> Multiset:
        left = self.evaluate(node.left, graph)
        if not left:
            return []
        right = self.evaluate(node.right, graph)
        common = _common_vars(node.left, node.right)
        return minus(left, right, common)

    def _eval_filterexists(self, node: alg.FilterExists, graph) -> Multiset:
        solutions = self.evaluate(node.pattern, graph)
        if not solutions:
            return []
        inner = self.evaluate(node.group, graph)
        common = _common_vars(node.pattern, node.group)
        out: Multiset = []
        for mu in solutions:
            exists = any(_compatible_on(mu, other, common) for other in inner)
            if exists != node.negated:
                out.append(mu)
        return out


def _apply_aggregate(aggregate: alg.Aggregate, members):
    """Apply one aggregate over a group's members (dict mappings) — the
    reference plane's own batch aggregate, independent of the production
    accumulators it is checked against."""
    values = []
    if aggregate.expression is None:  # COUNT(*)
        if aggregate.function != "count":
            raise EvaluationError("only COUNT supports *")
        if aggregate.distinct:
            # COUNT(DISTINCT *): count distinct solutions.  Mappings are
            # keyed by their sorted (variable, term) items; sorting never
            # compares terms because dict keys are unique.
            return Literal(len({tuple(sorted(mu.items()))
                                for mu in members}))
        return Literal(len(members))
    for mu in members:
        try:
            values.append(aggregate.expression.evaluate(mu))
        except ExpressionError:
            continue
    if aggregate.distinct:
        seen = set()
        unique = []
        for value in values:
            if value not in seen:
                seen.add(value)
                unique.append(value)
        values = unique
    return _finish_aggregate(aggregate.function, values, aggregate.separator)


def _finish_aggregate(function: str, values, separator: Optional[str] = None):
    if function == "count":
        return Literal(len(values))
    if function == "sample":
        return values[0] if values else None
    if function == "group_concat":
        parts = [v.lexical if isinstance(v, Literal) else str(v) for v in values]
        return Literal((" " if separator is None else separator).join(parts))
    if function in ("min", "max"):
        # The winning input term in ORDER BY order, ties broken by n3().
        if not values:
            return None
        pick = min if function == "min" else max
        return pick(values, key=lambda v: (sort_key(v), v.n3()))
    numbers = []
    saw_double = saw_non_integer = False
    for value in values:
        if isinstance(value, Literal) and value.is_numeric:
            numbers.append(value.value)
            if value.datatype == XSD_DOUBLE:
                saw_double = True
            elif value.datatype != XSD_INTEGER:
                saw_non_integer = True
        else:
            return None  # type error -> aggregate is an error -> unbound
    if function == "sum":
        if not numbers:
            return Literal(0)
        return numeric_literal(sum(numbers), saw_double, saw_non_integer)
    if not numbers:
        return None
    if function == "avg":
        return numeric_literal(sum(numbers) / len(numbers), saw_double,
                                True)
    raise EvaluationError("unknown aggregate %r" % function)


def _compatible_on(mu1: Mapping, mu2: Mapping, variables) -> bool:
    for var in variables:
        v1 = mu1.get(var)
        if v1 is None:
            continue
        v2 = mu2.get(var)
        if v2 is not None and v1 != v2:
            return False
    return True


def _compatible(mu1: Mapping, mu2: Mapping) -> bool:
    for var, value in mu1.items():
        other = mu2.get(var)
        if other is not None and other != value:
            return False
    return True


def _common_vars(left: alg.AlgebraNode, right: alg.AlgebraNode) -> List[str]:
    left_vars = set(left.in_scope())
    return [v for v in right.in_scope() if v in left_vars]
