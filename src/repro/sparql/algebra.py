"""SPARQL algebra nodes.

The parser produces a tree of these nodes; the evaluator interprets them
bottom-up with bag semantics.  The node set matches the fragment defined in
Section 5.1 of the paper: triple patterns (grouped into BGPs), Join,
LeftJoin (OPTIONAL), Union, Filter, Extend (BIND / AS), Project, Distinct,
Group/aggregation with HAVING, OrderBy, Slice (LIMIT/OFFSET), GraphPattern
(GRAPH <uri> { ... }) and nested SELECT (any Project node below the root).

Each node type declares its fields once: ``__slots__`` lists them (a node
takes no other attribute) and ``CHILDREN`` names those that hold
subtrees.  :class:`AlgebraNode` derives the rest from the two:
:meth:`~AlgebraNode.children`, :meth:`~AlgebraNode.replace` (the one way
a planner pass rebuilds a node) and :meth:`~AlgebraNode.key` (the plan
cache's serialization).  A constructor parameter has the name of the
field it sets.  To add a node type, declare its ``__slots__`` and
``CHILDREN``; write its ``__repr__`` (``explain()`` prints it) and, when
it binds other variables than its children do together, its
``in_scope``; give it an entry in ``evaluator.OPERATORS`` (or a physical
node that :func:`~.plan.lower` builds for it) and an ``_eval_<name>``
method on the reference evaluator (:mod:`~repro.sparql.reference`).
"""

from __future__ import annotations

from functools import reduce
from operator import is_
from typing import List, Optional, Sequence, Tuple

from ..rdf.terms import Term, TriplePattern, Variable, escape
from .expressions import Expression

AGGREGATE_FUNCTIONS = ("count", "sum", "min", "max", "avg", "sample",
                       "group_concat")


class AlgebraNode:
    """Base class for algebra nodes: everything that follows from a node
    type's ``__slots__`` and ``CHILDREN``."""

    __slots__ = ()
    #: The fields that hold child nodes, in child order.
    CHILDREN: Tuple[str, ...] = ()

    def in_scope(self) -> List[str]:
        """Variable names potentially bound by this pattern: by default,
        those of its children, in order."""
        return reduce(_union, [child.in_scope() for child in self.children()])

    def children(self) -> List["AlgebraNode"]:
        return [getattr(self, name) for name in self.CHILDREN]

    def replace(self, children: Sequence["AlgebraNode"]) -> "AlgebraNode":
        """This node over ``children`` (in :meth:`children` order), every
        other field kept; ``self`` when each child is the same object."""
        if all(map(is_, children, self.children())):
            return self
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(zip(self.CHILDREN, children))
        return type(self)(**fields)

    def key(self) -> str:
        """A structural serialization of the tree: the type name and
        every declared field (see :func:`_key`)."""
        return "%s(%s)" % (type(self).__name__, ",".join([
            _key(getattr(self, name)) for name in self.__slots__]))


def _key(value) -> str:
    """A field's part of :meth:`AlgebraNode.key`: ``?name`` for a
    variable, the items of a list or tuple, the SPARQL text of an
    expression or aggregate, ``repr`` for any other value."""
    if isinstance(value, Variable):
        return "?" + value.name
    if isinstance(value, Term):  # the bulk of a key: BGP triples
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[%s]" % ",".join(map(_key, value))
    if isinstance(value, AlgebraNode):
        return value.key()
    if isinstance(value, (Expression, Aggregate)):
        return value.sparql()
    return repr(value)


class BGP(AlgebraNode):
    """A basic graph pattern: a conjunction of triple patterns."""

    __slots__ = ("triples",)

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
    __slots__ = ("left", "right")
    CHILDREN = ("left", "right")

    def __init__(self, left: AlgebraNode, right: AlgebraNode):
        self.left, self.right = left, right

    def __repr__(self):
        return "Join(%r, %r)" % (self.left, self.right)


class LeftJoin(AlgebraNode):
    """OPTIONAL: keep every left solution, extend when compatible."""

    __slots__ = ("left", "right", "condition")
    CHILDREN = ("left", "right")

    def __init__(self, left: AlgebraNode, right: AlgebraNode,
                 condition: Optional[Expression] = None):
        self.left, self.right, self.condition = left, right, condition

    def __repr__(self):
        if self.condition is None:
            return "LeftJoin(%r, %r)" % (self.left, self.right)
        return "LeftJoin(%r, %r, %s)" % (self.left, self.right,
                                         self.condition.sparql())


class Union(AlgebraNode):
    __slots__ = ("left", "right")
    CHILDREN = ("left", "right")

    def __init__(self, left: AlgebraNode, right: AlgebraNode):
        self.left, self.right = left, right

    def __repr__(self):
        return "Union(%r, %r)" % (self.left, self.right)


class Filter(AlgebraNode):
    __slots__ = ("condition", "pattern")
    CHILDREN = ("pattern",)

    def __init__(self, condition: Expression, pattern: AlgebraNode):
        self.condition, self.pattern = condition, pattern

    def __repr__(self):
        return "Filter(%s, %r)" % (self.condition.sparql(), self.pattern)


class Extend(AlgebraNode):
    """BIND(expr AS ?var) / SELECT (expr AS ?var)."""

    __slots__ = ("pattern", "var", "expression")
    CHILDREN = ("pattern",)

    def __init__(self, pattern: AlgebraNode, var: str, expression: Expression):
        self.pattern = pattern
        self.var = var.lstrip("?$")
        self.expression = expression

    def in_scope(self):
        return _union(self.pattern.in_scope(), [self.var])

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
            inner += ' ; SEPARATOR="%s"' % escape(self.separator)
        return "(%s(%s) AS ?%s)" % (self.function.upper(), inner, self.alias)

    def __repr__(self):
        return "Aggregate(%s)" % self.sparql()


class Group(AlgebraNode):
    """GROUP BY + aggregates + HAVING."""

    __slots__ = ("pattern", "group_vars", "aggregates", "having")
    CHILDREN = ("pattern",)

    def __init__(self, pattern: AlgebraNode, group_vars: Sequence[str],
                 aggregates: Sequence[Aggregate],
                 having: Optional[Expression] = None):
        self.pattern = pattern
        self.group_vars = [v.lstrip("?$") for v in group_vars]
        self.aggregates = list(aggregates)
        self.having = having

    def in_scope(self):
        return self.group_vars + [agg.alias for agg in self.aggregates]

    def __repr__(self):
        return "Group(by=%s, aggs=%r)" % (self.group_vars, self.aggregates)


class Project(AlgebraNode):
    """SELECT projection.  ``variables=None`` means ``SELECT *``.

    A Project node appearing below another Project is a nested subquery:
    the evaluator materializes it independently (the behaviour whose cost
    the paper's naive-vs-optimized experiments measure).
    """

    __slots__ = ("pattern", "variables")
    CHILDREN = ("pattern",)

    def __init__(self, pattern: AlgebraNode,
                 variables: Optional[Sequence[str]] = None):
        self.pattern = pattern
        self.variables = ([v.lstrip("?$") for v in variables]
                          if variables is not None else None)

    def in_scope(self):
        if self.variables is None:
            return self.pattern.in_scope()
        return list(self.variables)

    def __repr__(self):
        return "Project(%s)" % ("*" if self.variables is None else self.variables)


class Distinct(AlgebraNode):
    __slots__ = ("pattern",)
    CHILDREN = ("pattern",)

    def __init__(self, pattern: AlgebraNode):
        self.pattern = pattern

    def __repr__(self):
        return "Distinct(%r)" % (self.pattern,)


class OrderBy(AlgebraNode):
    """ORDER BY; keys are ``(variable_name, 'asc'|'desc')`` pairs."""

    __slots__ = ("pattern", "keys")
    CHILDREN = ("pattern",)

    def __init__(self, pattern: AlgebraNode, keys: Sequence[Tuple[str, str]]):
        self.pattern = pattern
        self.keys = [(v.lstrip("?$"), order.lower()) for v, order in keys]

    def __repr__(self):
        return "OrderBy(%s)" % self.keys


class Slice(AlgebraNode):
    """LIMIT / OFFSET."""

    __slots__ = ("pattern", "limit", "offset")
    CHILDREN = ("pattern",)

    def __init__(self, pattern: AlgebraNode, limit: Optional[int] = None,
                 offset: int = 0):
        self.pattern = pattern
        self.limit = limit
        self.offset = offset

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

    __slots__ = ("pattern", "keys", "limit", "offset")
    CHILDREN = ("pattern",)

    def __init__(self, pattern: AlgebraNode, keys: Sequence[Tuple[str, str]],
                 limit: int, offset: int = 0):
        self.pattern = pattern
        self.keys = [(v.lstrip("?$"), order.lower()) for v, order in keys]
        self.limit = limit
        self.offset = offset

    def __repr__(self):
        return "TopK(%s, limit=%s, offset=%s)" % (self.keys, self.limit,
                                                  self.offset)


class InlineData(AlgebraNode):
    """VALUES: an inline table of bindings joined into the pattern.

    ``rows`` contain RDF terms or ``None`` for UNDEF.
    """

    __slots__ = ("variables", "rows")

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

    __slots__ = ("left", "right")
    CHILDREN = ("left", "right")

    def __init__(self, left: AlgebraNode, right: AlgebraNode):
        self.left, self.right = left, right

    def in_scope(self):
        return self.left.in_scope()

    def __repr__(self):
        return "Minus(%r, %r)" % (self.left, self.right)


class FilterExists(AlgebraNode):
    """FILTER EXISTS { ... } / FILTER NOT EXISTS { ... }."""

    __slots__ = ("pattern", "group", "negated")
    CHILDREN = ("pattern", "group")

    def __init__(self, pattern: AlgebraNode, group: AlgebraNode,
                 negated: bool = False):
        self.pattern = pattern
        self.group = group
        self.negated = negated

    def in_scope(self):
        return self.pattern.in_scope()

    def __repr__(self):
        return "FilterExists(negated=%s)" % self.negated


class GraphPattern(AlgebraNode):
    """GRAPH <uri> { pattern } — scope matching to a named graph."""

    __slots__ = ("graph_uri", "pattern")
    CHILDREN = ("pattern",)

    def __init__(self, graph_uri: str, pattern: AlgebraNode):
        self.graph_uri = graph_uri
        self.pattern = pattern

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
