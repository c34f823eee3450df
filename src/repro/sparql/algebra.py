"""SPARQL algebra nodes.

The parser produces a tree of these nodes; the evaluator interprets them
bottom-up with bag semantics.  The node set matches the fragment defined in
Section 5.1 of the paper: triple patterns (grouped into BGPs), Join,
LeftJoin (OPTIONAL), Union, Filter, Extend (BIND / AS), Project, Distinct,
Group/aggregation with HAVING, OrderBy, Slice (LIMIT/OFFSET), GraphPattern
(GRAPH <uri> { ... }) and nested SELECT (any Project node below the root).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..rdf.terms import TriplePattern, Variable, is_concrete
from .expressions import Expression

AGGREGATE_FUNCTIONS = ("count", "sum", "min", "max", "avg", "sample",
                       "group_concat")


class AlgebraNode:
    """Base class for algebra nodes."""

    def in_scope(self) -> List[str]:
        """Variable names potentially bound by this pattern."""
        raise NotImplementedError

    def children(self) -> List["AlgebraNode"]:
        return []


class BGP(AlgebraNode):
    """A basic graph pattern: a conjunction of triple patterns."""

    def __init__(self, triples: Sequence[TriplePattern]):
        self.triples = list(triples)

    def in_scope(self) -> List[str]:
        out, seen = [], set()
        for triple in self.triples:
            for term in triple:
                if isinstance(term, Variable) and term.name not in seen:
                    seen.add(term.name)
                    out.append(term.name)
        return out

    def __repr__(self):
        return "BGP(%d triples)" % len(self.triples)


class Join(AlgebraNode):
    def __init__(self, left: AlgebraNode, right: AlgebraNode):
        self.left, self.right = left, right

    def in_scope(self):
        return _union(self.left.in_scope(), self.right.in_scope())

    def children(self):
        return [self.left, self.right]

    def __repr__(self):
        return "Join(%r, %r)" % (self.left, self.right)


class LeftJoin(AlgebraNode):
    """OPTIONAL: keep every left solution, extend when compatible."""

    def __init__(self, left: AlgebraNode, right: AlgebraNode,
                 condition: Optional[Expression] = None):
        self.left, self.right, self.condition = left, right, condition

    def in_scope(self):
        return _union(self.left.in_scope(), self.right.in_scope())

    def children(self):
        return [self.left, self.right]

    def __repr__(self):
        if self.condition is None:
            return "LeftJoin(%r, %r)" % (self.left, self.right)
        return "LeftJoin(%r, %r, %s)" % (self.left, self.right,
                                         self.condition.sparql())


class Union(AlgebraNode):
    def __init__(self, left: AlgebraNode, right: AlgebraNode):
        self.left, self.right = left, right

    def in_scope(self):
        return _union(self.left.in_scope(), self.right.in_scope())

    def children(self):
        return [self.left, self.right]

    def __repr__(self):
        return "Union(%r, %r)" % (self.left, self.right)


class Filter(AlgebraNode):
    def __init__(self, condition: Expression, pattern: AlgebraNode):
        self.condition, self.pattern = condition, pattern

    def in_scope(self):
        return self.pattern.in_scope()

    def children(self):
        return [self.pattern]

    def __repr__(self):
        return "Filter(%s, %r)" % (self.condition.sparql(), self.pattern)


class Extend(AlgebraNode):
    """BIND(expr AS ?var) / SELECT (expr AS ?var)."""

    def __init__(self, pattern: AlgebraNode, var: str, expression: Expression):
        self.pattern = pattern
        self.var = var.lstrip("?$")
        self.expression = expression

    def in_scope(self):
        return _union(self.pattern.in_scope(), [self.var])

    def children(self):
        return [self.pattern]

    def __repr__(self):
        return "Extend(?%s := %s)" % (self.var, self.expression.sparql())


class Aggregate:
    """One aggregate in a GROUP BY query: ``fn([DISTINCT] expr) AS alias``.

    ``separator`` applies to ``GROUP_CONCAT`` only (the ``SEPARATOR=".."``
    modifier); ``None`` means the SPARQL default, a single space.
    """

    def __init__(self, function: str, expression: Optional[Expression],
                 alias: str, distinct: bool = False,
                 separator: Optional[str] = None):
        function = function.lower()
        if function not in AGGREGATE_FUNCTIONS:
            raise ValueError("unknown aggregate %r" % function)
        if separator is not None and function != "group_concat":
            raise ValueError("SEPARATOR only applies to GROUP_CONCAT")
        self.function = function
        self.expression = expression  # None means COUNT(*)
        self.alias = alias.lstrip("?$")
        self.distinct = distinct
        self.separator = separator

    def sparql(self) -> str:
        inner = "*" if self.expression is None else self.expression.sparql()
        if self.distinct:
            inner = "DISTINCT " + inner
        if self.separator is not None:
            # The escape set mirrors what the parser's string literal
            # unescapes, so render -> parse round-trips exactly.  A raw
            # newline would break the tokenizer's STRING rule.
            escaped = (self.separator.replace("\\", "\\\\")
                       .replace('"', '\\"').replace("\n", "\\n")
                       .replace("\r", "\\r").replace("\t", "\\t")
                       .replace("\b", "\\b").replace("\f", "\\f"))
            inner += ' ; SEPARATOR="%s"' % escaped
        return "(%s(%s) AS ?%s)" % (self.function.upper(), inner, self.alias)

    def __repr__(self):
        return "Aggregate(%s)" % self.sparql()


class Group(AlgebraNode):
    """GROUP BY + aggregates + HAVING."""

    def __init__(self, pattern: AlgebraNode, group_vars: Sequence[str],
                 aggregates: Sequence[Aggregate],
                 having: Optional[Expression] = None):
        self.pattern = pattern
        self.group_vars = [v.lstrip("?$") for v in group_vars]
        self.aggregates = list(aggregates)
        self.having = having

    def in_scope(self):
        return self.group_vars + [agg.alias for agg in self.aggregates]

    def children(self):
        return [self.pattern]

    def __repr__(self):
        return "Group(by=%s, aggs=%r)" % (self.group_vars, self.aggregates)


class Project(AlgebraNode):
    """SELECT projection.  ``variables=None`` means ``SELECT *``.

    A Project node appearing below another Project is a nested subquery:
    the evaluator materializes it independently (the behaviour whose cost
    the paper's naive-vs-optimized experiments measure).
    """

    def __init__(self, pattern: AlgebraNode,
                 variables: Optional[Sequence[str]] = None):
        self.pattern = pattern
        self.variables = ([v.lstrip("?$") for v in variables]
                          if variables is not None else None)

    def in_scope(self):
        if self.variables is None:
            return self.pattern.in_scope()
        return list(self.variables)

    def children(self):
        return [self.pattern]

    def __repr__(self):
        return "Project(%s)" % ("*" if self.variables is None else self.variables)


class Distinct(AlgebraNode):
    def __init__(self, pattern: AlgebraNode):
        self.pattern = pattern

    def in_scope(self):
        return self.pattern.in_scope()

    def children(self):
        return [self.pattern]

    def __repr__(self):
        return "Distinct(%r)" % (self.pattern,)


class OrderBy(AlgebraNode):
    """ORDER BY; keys are ``(variable_name, 'asc'|'desc')`` pairs."""

    def __init__(self, pattern: AlgebraNode, keys: Sequence[Tuple[str, str]]):
        self.pattern = pattern
        self.keys = [(v.lstrip("?$"), order.lower()) for v, order in keys]

    def in_scope(self):
        return self.pattern.in_scope()

    def children(self):
        return [self.pattern]

    def __repr__(self):
        return "OrderBy(%s)" % self.keys


class Slice(AlgebraNode):
    """LIMIT / OFFSET."""

    def __init__(self, pattern: AlgebraNode, limit: Optional[int] = None,
                 offset: int = 0):
        self.pattern = pattern
        self.limit = limit
        self.offset = offset

    def in_scope(self):
        return self.pattern.in_scope()

    def children(self):
        return [self.pattern]

    def __repr__(self):
        return "Slice(limit=%s, offset=%s)" % (self.limit, self.offset)


class TopK(AlgebraNode):
    """Fused ``ORDER BY ... LIMIT k [OFFSET o]`` — a bounded sort.

    Produced by the planner's ``LimitPushdown`` pass from
    ``Slice(OrderBy(p))`` when a limit is present; never built by the
    parser.  The evaluator answers it with a single heap pass
    (``heapq.nsmallest`` under a composite, direction-aware key) instead
    of a full sort followed by a slice, keeping only ``offset + limit``
    rows in memory while consuming its child.
    """

    def __init__(self, pattern: AlgebraNode, keys: Sequence[Tuple[str, str]],
                 limit: int, offset: int = 0):
        self.pattern = pattern
        self.keys = [(v.lstrip("?$"), order.lower()) for v, order in keys]
        self.limit = limit
        self.offset = offset

    def in_scope(self):
        return self.pattern.in_scope()

    def children(self):
        return [self.pattern]

    def __repr__(self):
        return "TopK(%s, limit=%s, offset=%s)" % (self.keys, self.limit,
                                                  self.offset)


class InlineData(AlgebraNode):
    """VALUES: an inline table of bindings joined into the pattern.

    ``rows`` contain RDF terms or ``None`` for UNDEF.
    """

    def __init__(self, variables: Sequence[str], rows):
        self.variables = [v.lstrip("?$") for v in variables]
        self.rows = [tuple(row) for row in rows]

    def in_scope(self):
        return list(self.variables)

    def __repr__(self):
        return "InlineData(%s, %d rows)" % (self.variables, len(self.rows))


class Minus(AlgebraNode):
    """MINUS: remove left solutions with a compatible, domain-overlapping
    solution on the right."""

    def __init__(self, left: AlgebraNode, right: AlgebraNode):
        self.left, self.right = left, right

    def in_scope(self):
        return self.left.in_scope()

    def children(self):
        return [self.left, self.right]

    def __repr__(self):
        return "Minus(%r, %r)" % (self.left, self.right)


class FilterExists(AlgebraNode):
    """FILTER EXISTS { ... } / FILTER NOT EXISTS { ... }."""

    def __init__(self, pattern: AlgebraNode, group: AlgebraNode,
                 negated: bool = False):
        self.pattern = pattern
        self.group = group
        self.negated = negated

    def in_scope(self):
        return self.pattern.in_scope()

    def children(self):
        return [self.pattern, self.group]

    def __repr__(self):
        return "FilterExists(negated=%s)" % self.negated


class GraphPattern(AlgebraNode):
    """GRAPH <uri> { pattern } — scope matching to a named graph."""

    def __init__(self, graph_uri: str, pattern: AlgebraNode):
        self.graph_uri = graph_uri
        self.pattern = pattern

    def in_scope(self):
        return self.pattern.in_scope()

    def children(self):
        return [self.pattern]

    def __repr__(self):
        return "GraphPattern(%r, %r)" % (self.graph_uri, self.pattern)


class Query:
    """A complete parsed SELECT query."""

    def __init__(self, pattern: AlgebraNode,
                 from_graphs: Optional[List[str]] = None,
                 prefixes: Optional[dict] = None):
        self.pattern = pattern
        self.from_graphs = from_graphs or []
        self.prefixes = prefixes or {}

    def in_scope(self):
        return self.pattern.in_scope()

    def __repr__(self):
        return "Query(from=%s, %r)" % (self.from_graphs, self.pattern)


def _union(a: Sequence[str], b: Sequence[str]) -> List[str]:
    out = list(a)
    seen = set(a)
    for name in b:
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def count_nested_selects(node: AlgebraNode) -> int:
    """Number of nested Project nodes (subqueries) below ``node``."""
    total = 0
    for child in node.children():
        if isinstance(child, Project):
            total += 1
        total += count_nested_selects(child)
    return total


def collect_bgps(node: AlgebraNode) -> List[BGP]:
    """All BGP nodes in the tree, in preorder."""
    out = []
    if isinstance(node, BGP):
        out.append(node)
    for child in node.children():
        out.extend(collect_bgps(child))
    return out
