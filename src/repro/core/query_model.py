"""The query model: RDFFrames' intermediate representation for SPARQL.

Section 4.1 of the paper describes the query model (inspired by the Query
Graph Model) as the container for every component of a SPARQL query: graph
matching patterns (triples, filters, optional blocks, subquery references,
unions), aggregation constructs (group-by columns, aggregates, having), and
query modifiers (limit, offset, sort), plus graph URIs, prefixes, and the
variables in scope.  Query models nest where nested subqueries are needed.

Terms inside the model are stored as rendered SPARQL strings
(``'?movie'``, ``'dbpp:starring'``, ``'dbpr:United_States'``), which keeps
the generator simple and makes translation to SPARQL text direct.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from .conditions import rename_variable

TripleText = Tuple[str, str, str]


def variable_name(term: str) -> str:
    return term[1:] if term.startswith("?") else term


class Aggregation:
    """One aggregate in the SELECT clause of a query model."""

    def __init__(self, function: str, src_column: Optional[str],
                 alias: str, distinct: bool = False):
        self.function = function.lower()
        self.src_column = src_column  # None means COUNT(*)
        self.alias = alias
        self.distinct = distinct

    _SPARQL_NAMES = {"count": "COUNT", "sum": "SUM", "min": "MIN",
                     "max": "MAX", "average": "AVG", "sample": "SAMPLE",
                     "distinct_count": "COUNT", "count_star": "COUNT"}

    def call_sparql(self) -> str:
        """The bare aggregate call, e.g. ``COUNT(DISTINCT ?movie)``."""
        name = self._SPARQL_NAMES[self.function]
        inner = "*" if self.src_column is None else "?" + self.src_column
        if self.distinct and self.src_column is not None:
            inner = "DISTINCT " + inner
        return "%s(%s)" % (name, inner)

    def to_sparql(self) -> str:
        return "(%s AS ?%s)" % (self.call_sparql(), self.alias)

    def copy(self) -> "Aggregation":
        return Aggregation(self.function, self.src_column, self.alias,
                           self.distinct)

    def __repr__(self):
        return "Aggregation(%s)" % self.to_sparql()


class OptionalBlock:
    """An OPTIONAL { ... } group: triples, filters, nested optionals, and
    subqueries, possibly scoped to a named graph."""

    def __init__(self, graph_uri: Optional[str] = None):
        self.graph_uri = graph_uri
        self.triples: List[TripleText] = []
        self.filters: List[str] = []
        self.optionals: List["OptionalBlock"] = []
        self.subqueries: List["QueryModel"] = []

    def is_empty(self) -> bool:
        return not (self.triples or self.filters or self.optionals
                    or self.subqueries)

    def copy(self) -> "OptionalBlock":
        block = OptionalBlock(self.graph_uri)
        block.triples = list(self.triples)
        block.filters = list(self.filters)
        block.optionals = [o.copy() for o in self.optionals]
        block.subqueries = [s.copy() for s in self.subqueries]
        return block

    def rename_column(self, old: str, new: str) -> None:
        self.triples = [_rename_triple(t, old, new) for t in self.triples]
        self.filters = [rename_variable(f, old, new) for f in self.filters]
        for optional in self.optionals:
            optional.rename_column(old, new)
        for subquery in self.subqueries:
            subquery.rename_column(old, new)

    def variables(self) -> List[str]:
        out: List[str] = []
        _collect_triple_vars(self.triples, out)
        for optional in self.optionals:
            _extend_unique(out, optional.variables())
        for subquery in self.subqueries:
            _extend_unique(out, subquery.visible_columns())
        return out

    def __repr__(self):
        return "OptionalBlock(%d triples, %d filters)" % (
            len(self.triples), len(self.filters))


class QueryModel:
    """One (possibly nested) SPARQL query under construction."""

    def __init__(self):
        self.prefixes: Dict[str, str] = {}
        self.from_graphs: List[str] = []
        self.select_columns: Optional[List[str]] = None  # None -> SELECT *
        self.distinct = False
        self.triples: List[TripleText] = []
        self.scoped_triples: List[Tuple[str, str, str, str]] = []  # (graph,s,p,o)
        self.filters: List[str] = []
        self.optionals: List[OptionalBlock] = []
        self.subqueries: List["QueryModel"] = []
        self.optional_subqueries: List["QueryModel"] = []
        self.union_models: List["QueryModel"] = []
        self.group_columns: List[str] = []
        self.aggregations: List[Aggregation] = []
        self.having: List[str] = []
        self.order_keys: List[Tuple[str, str]] = []
        self.limit: Optional[int] = None
        self.offset: Optional[int] = None

    # ------------------------------------------------------------------
    # Construction helpers used by the generator
    # ------------------------------------------------------------------
    def add_prefixes(self, prefixes: Dict[str, str]) -> None:
        self.prefixes.update(prefixes)

    def add_graph(self, graph_uri: str) -> None:
        if graph_uri and graph_uri not in self.from_graphs:
            self.from_graphs.append(graph_uri)

    def add_triple(self, subject: str, predicate: str, obj: str,
                   graph_uri: Optional[str] = None) -> None:
        if graph_uri is None:
            self.triples.append((subject, predicate, obj))
        else:
            self.scoped_triples.append((graph_uri, subject, predicate, obj))

    def add_filter(self, expression: str) -> None:
        self.filters.append(expression)

    def add_having(self, expression: str) -> None:
        self.having.append(expression)

    def add_optional(self, block: OptionalBlock) -> None:
        if not block.is_empty():
            self.optionals.append(block)

    def add_subquery(self, model: "QueryModel") -> None:
        self.subqueries.append(model)
        self.add_prefixes(model.prefixes)

    def add_optional_subquery(self, model: "QueryModel") -> None:
        self.optional_subqueries.append(model)
        self.add_prefixes(model.prefixes)

    def set_aggregation(self, group_columns: Sequence[str],
                        aggregation: Aggregation) -> None:
        self.group_columns = list(group_columns)
        self.aggregations.append(aggregation)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_grouped(self) -> bool:
        return bool(self.group_columns or self.aggregations)

    @property
    def has_modifiers(self) -> bool:
        return bool(self.order_keys or self.limit is not None
                    or self.offset is not None)

    def pattern_variables(self) -> List[str]:
        """All variables bound by the graph patterns of this model."""
        out: List[str] = []
        _collect_triple_vars(self.triples, out)
        _collect_triple_vars([t[1:] for t in self.scoped_triples], out)
        for optional in self.optionals:
            _extend_unique(out, optional.variables())
        for subquery in self.subqueries + self.optional_subqueries:
            _extend_unique(out, subquery.visible_columns())
        for union in self.union_models:
            _extend_unique(out, union.visible_columns())
        return out

    def visible_columns(self) -> List[str]:
        """The columns this query exposes to an enclosing scope."""
        if self.is_grouped:
            return list(self.group_columns) + [a.alias for a in self.aggregations]
        if self.select_columns is not None:
            return list(self.select_columns)
        return self.pattern_variables()

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def copy(self) -> "QueryModel":
        model = QueryModel()
        model.prefixes = dict(self.prefixes)
        model.from_graphs = list(self.from_graphs)
        model.select_columns = (list(self.select_columns)
                                if self.select_columns is not None else None)
        model.distinct = self.distinct
        model.triples = list(self.triples)
        model.scoped_triples = list(self.scoped_triples)
        model.filters = list(self.filters)
        model.optionals = [o.copy() for o in self.optionals]
        model.subqueries = [s.copy() for s in self.subqueries]
        model.optional_subqueries = [s.copy() for s in self.optional_subqueries]
        model.union_models = [u.copy() for u in self.union_models]
        model.group_columns = list(self.group_columns)
        model.aggregations = [a.copy() for a in self.aggregations]
        model.having = list(self.having)
        model.order_keys = list(self.order_keys)
        model.limit = self.limit
        model.offset = self.offset
        return model

    def rename_column(self, old: str, new: str) -> None:
        """Rename a column everywhere in this model (recursively)."""
        if old == new:
            return
        self.triples = [_rename_triple(t, old, new) for t in self.triples]
        self.scoped_triples = [
            (g,) + _rename_triple((s, p, o), old, new)
            for g, s, p, o in self.scoped_triples]
        self.filters = [rename_variable(f, old, new) for f in self.filters]
        self.having = [rename_variable(h, old, new) for h in self.having]
        for optional in self.optionals:
            optional.rename_column(old, new)
        for subquery in self.subqueries + self.optional_subqueries:
            subquery.rename_column(old, new)
        for union in self.union_models:
            union.rename_column(old, new)
        if self.select_columns is not None:
            self.select_columns = [new if c == old else c
                                   for c in self.select_columns]
        self.group_columns = [new if c == old else c
                              for c in self.group_columns]
        for aggregation in self.aggregations:
            if aggregation.src_column == old:
                aggregation.src_column = new
            if aggregation.alias == old:
                aggregation.alias = new
        self.order_keys = [(new if c == old else c, d)
                           for c, d in self.order_keys]

    def wrap(self) -> "QueryModel":
        """Wrap this model as the subquery of a fresh outer model.

        Used when further operators must apply *after* grouping/modifiers
        (the paper's nesting Case 1) — the current model becomes an inner
        query and the returned outer model receives subsequent patterns.
        """
        outer = QueryModel()
        outer.prefixes = dict(self.prefixes)
        outer.from_graphs = list(self.from_graphs)
        inner = self.copy()
        # FROM clauses belong to the outermost query only.
        inner.from_graphs = []
        outer.add_subquery(inner)
        return outer

    def merge_pattern(self, other: "QueryModel",
                      scope_graphs: bool = False) -> None:
        """Merge another non-grouped, modifier-free model's graph patterns
        into this one (used for inner joins of compatible frames)."""
        if scope_graphs:
            self._scope_to_graph()
            other = other.copy()
            other._scope_to_graph()
        # Deduplicate identical triple/filter patterns: a repeated triple
        # pattern is a semantic no-op in SPARQL but costs the engine a join.
        for triple in other.triples:
            if triple not in self.triples:
                self.triples.append(triple)
        for scoped in other.scoped_triples:
            if scoped not in self.scoped_triples:
                self.scoped_triples.append(scoped)
        for expression in other.filters:
            if expression not in self.filters:
                self.filters.append(expression)
        self.optionals.extend(o.copy() for o in other.optionals)
        self.subqueries.extend(s.copy() for s in other.subqueries)
        self.optional_subqueries.extend(
            s.copy() for s in other.optional_subqueries)
        self.union_models.extend(u.copy() for u in other.union_models)
        self.add_prefixes(other.prefixes)
        for graph in other.from_graphs:
            self.add_graph(graph)

    def _scope_to_graph(self) -> None:
        """Move default-scope triples under this model's (single) graph, so
        a multi-graph join keeps each pattern bound to its source graph."""
        if len(self.from_graphs) != 1:
            return
        graph = self.from_graphs[0]
        for s, p, o in self.triples:
            self.scoped_triples.append((graph, s, p, o))
        self.triples = []
        for optional in self.optionals:
            if optional.graph_uri is None:
                optional.graph_uri = graph

    def as_optional_block(self) -> OptionalBlock:
        """Repackage this model's patterns as one OPTIONAL block (used for
        left outer joins of non-grouped frames)."""
        if self.is_grouped or self.has_modifiers or self.union_models:
            raise ValueError("cannot inline a grouped/modified model into "
                             "an OPTIONAL block; wrap it as a subquery")
        block = OptionalBlock()
        block.triples = list(self.triples)
        block.filters = list(self.filters)
        block.optionals = [o.copy() for o in self.optionals]
        block.subqueries = [s.copy() for s in self.subqueries]
        for s in self.optional_subqueries:
            inner = OptionalBlock()
            inner.subqueries = [s.copy()]
            block.optionals.append(inner)
        return block

    def __repr__(self):
        return ("QueryModel(triples=%d, filters=%d, optionals=%d, "
                "subqueries=%d, grouped=%s)" % (
                    len(self.triples) + len(self.scoped_triples),
                    len(self.filters), len(self.optionals),
                    len(self.subqueries) + len(self.optional_subqueries),
                    self.is_grouped))


def _rename_triple(triple: TripleText, old: str, new: str) -> TripleText:
    target = "?" + old
    replacement = "?" + new
    return tuple(replacement if part == target else part for part in triple)


def _collect_triple_vars(triples, out: List[str]) -> None:
    seen = set(out)
    for triple in triples:
        for part in triple:
            if part.startswith("?"):
                name = part[1:]
                if name not in seen:
                    seen.add(name)
                    out.append(name)


def _extend_unique(target: List[str], items) -> None:
    seen = set(target)
    for item in items:
        if item not in seen:
            seen.add(item)
            target.append(item)
