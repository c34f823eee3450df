"""Direct compilation of RDFFrames query models to engine algebra.

The local execution path used to be ``QueryModel -> SPARQL text ->
tokenizer -> parser -> algebra``: the model was serialized only to be
immediately re-parsed.  This module compiles a
:class:`~repro.core.query_model.QueryModel` *straight* to the engine's
:mod:`~repro.sparql.algebra`, producing the same tree the
translate-then-parse round trip would — component by component, in the
same order the translator renders and the parser folds them:

    triples -> BGP, GRAPH-scoped triples -> GraphPattern, subqueries ->
    nested Project (joined in), OPTIONAL blocks / optional subqueries ->
    LeftJoin (an OPTIONAL block's filters are its condition), UNION
    branches -> Union (joined in), filters wrap the group; then Group
    (+HAVING) -> Project -> Distinct -> OrderBy -> Slice.

Terms and filter expressions inside a model are stored as rendered SPARQL
fragments (``'?movie'``, ``'dbpp:starring'``, ``'?year >= 2000'``), so the
compiler leans on the engine's own tokenizer/parser for those *fragments*
only — orders of magnitude less text than a full query, and the results
are memoized per compiler.

SPARQL text remains the wire format for HTTP endpoints; this path is for
the in-process engine (:meth:`Engine.plan` accepts a model directly).
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, List, Optional, Tuple

from ..rdf.namespaces import DEFAULT_PREFIXES
from ..sparql import algebra as alg
from ..sparql.expressions import AndExpr, Expression, VarExpr
from ..sparql.parser import ParseError, Parser
from .query_model import Aggregation, OptionalBlock, QueryModel


class CompilationError(ValueError):
    """Raised when a query model cannot be compiled to algebra."""


#: Model aggregation function -> algebra aggregate function.
_AGG_FUNCTIONS = {
    "count": "count",
    "sum": "sum",
    "min": "min",
    "max": "max",
    "average": "avg",
    "avg": "avg",
    "sample": "sample",
    "group_concat": "group_concat",
    "count_star": "count",
    "distinct_count": "count",
}


class ModelCompiler:
    """Compiles one query model (and its nested models) to algebra."""

    def __init__(self, prefixes: Optional[Dict[str, str]] = None):
        self.prefixes = dict(DEFAULT_PREFIXES)
        if prefixes:
            self.prefixes.update(prefixes)
        self._term_cache: Dict[str, object] = {}
        self._expression_cache: Dict[str, Expression] = {}

    # ------------------------------------------------------------------
    def compile(self, model: QueryModel) -> alg.Query:
        """Compile a top-level model to a complete algebra query."""
        self.prefixes.update(model.prefixes)
        node = self._compile_select(model)
        return alg.Query(node, from_graphs=list(model.from_graphs),
                         prefixes=dict(self.prefixes))

    # ------------------------------------------------------------------
    # SELECT assembly (mirrors translator._render_query + the parser's
    # _parse_select_query modifier order: Group -> Project -> Distinct ->
    # OrderBy -> Slice)
    # ------------------------------------------------------------------
    def _compile_select(self, model: QueryModel) -> alg.AlgebraNode:
        self.prefixes.update(model.prefixes)
        pattern = self._compile_body(model)
        if model.is_grouped:
            aggregates = [self._compile_aggregation(a)
                          for a in model.aggregations]
            having = self._compile_having(model)
            pattern = alg.Group(pattern, model.group_columns, aggregates,
                                having)
            variables: Optional[List[str]] = (
                list(model.group_columns)
                + [a.alias for a in model.aggregations])
            node: alg.AlgebraNode = alg.Project(pattern, variables)
        elif model.select_columns is not None:
            node = alg.Project(pattern, list(model.select_columns))
        else:
            node = alg.Project(pattern, None)  # SELECT *
        if model.distinct:
            node = alg.Distinct(node)
        if model.order_keys:
            node = alg.OrderBy(node, list(model.order_keys))
        if model.limit is not None or model.offset:
            node = alg.Slice(node, model.limit, model.offset or 0)
        return node

    def _compile_aggregation(self, aggregation: Aggregation) -> alg.Aggregate:
        function = _AGG_FUNCTIONS.get(aggregation.function)
        if function is None:
            raise CompilationError("unknown aggregate function %r"
                                   % aggregation.function)
        # Mirror Aggregation.call_sparql exactly: '*' iff src_column is
        # None, DISTINCT only for an explicit column.
        if aggregation.src_column is None:
            expression: Optional[Expression] = None
        else:
            expression = VarExpr(aggregation.src_column)
        return alg.Aggregate(function, expression, aggregation.alias,
                             aggregation.distinct and expression is not None)

    def _compile_having(self, model: QueryModel) -> Optional[Expression]:
        """HAVING over the aggregate *aliases* — the evaluator's Group
        operator exposes them, so no synthetic aggregate rewriting (the
        text round trip's alias-to-call substitution) is needed here."""
        if not model.having:
            return None
        condition = self._expression(model.having[0])
        for text in model.having[1:]:
            condition = AndExpr(condition, self._expression(text))
        return condition

    # ------------------------------------------------------------------
    # Graph pattern body (mirrors translator._render_pattern_body + the
    # parser's group-graph-pattern fold)
    # ------------------------------------------------------------------
    def _compile_body(self, model: QueryModel) -> alg.AlgebraNode:
        node: Optional[alg.AlgebraNode] = None
        if model.triples:
            node = alg.BGP([self._triple(t) for t in model.triples])
        by_graph: Dict[str, List] = {}
        for graph_uri, s, p, o in model.scoped_triples:
            by_graph.setdefault(graph_uri, []).append((s, p, o))
        for graph_uri, triples in by_graph.items():
            scoped = alg.GraphPattern(
                graph_uri, alg.BGP([self._triple(t) for t in triples]))
            node = self._join(node, scoped)
        for subquery in model.subqueries:
            node = self._join(node, self._compile_select(subquery))
        for block in model.optionals:
            node = alg.LeftJoin(node or alg.BGP([]),
                                *self._compile_optional(block))
        for subquery in model.optional_subqueries:
            node = alg.LeftJoin(node or alg.BGP([]),
                                self._compile_select(subquery))
        if model.union_models:
            union: alg.AlgebraNode = self._compile_select(
                model.union_models[0])
            for member in model.union_models[1:]:
                union = alg.Union(union, self._compile_select(member))
            node = self._join(node, union)
        for expression in model.filters:
            node = alg.Filter(self._expression(expression),
                              node or alg.BGP([]))
        return node if node is not None else alg.BGP([])

    def _compile_optional(self, block: OptionalBlock
                          ) -> Tuple[alg.AlgebraNode, Optional[Expression]]:
        """An OPTIONAL block as its LeftJoin's ``(pattern, condition)``.

        The block's filters sit at the top of the OPTIONAL group, so they
        are the condition (SPARQL 1.1 §18.2.2) and see both sides' bindings
        — except in a GRAPH-scoped block, whose filters are rendered
        inside the GRAPH group and filter it."""
        node: Optional[alg.AlgebraNode] = None
        if block.triples:
            node = alg.BGP([self._triple(t) for t in block.triples])
        for subquery in block.subqueries:
            node = self._join(node, self._compile_select(subquery))
        for nested in block.optionals:
            node = alg.LeftJoin(node or alg.BGP([]),
                                *self._compile_optional(nested))
        node = node if node is not None else alg.BGP([])
        filters = [self._expression(text) for text in block.filters]
        if block.graph_uri is None:
            return node, reduce(AndExpr, filters) if filters else None
        for condition in filters:
            node = alg.Filter(condition, node)
        return alg.GraphPattern(block.graph_uri, node), None

    @staticmethod
    def _join(left: Optional[alg.AlgebraNode],
              right: alg.AlgebraNode) -> alg.AlgebraNode:
        if left is None:
            return right
        if isinstance(left, alg.BGP) and isinstance(right, alg.BGP):
            # Same adjacent-BGP fusion the parser applies.
            return alg.BGP(left.triples + right.triples)
        return alg.Join(left, right)

    # ------------------------------------------------------------------
    # Term / expression fragments (memoized)
    # ------------------------------------------------------------------
    def _triple(self, triple):
        s, p, o = triple
        return (self._term(s), self._term(p), self._term(o))

    def _fragment_parser(self, text: str) -> Parser:
        parser = Parser(text)
        parser.prefixes = self.prefixes
        return parser

    def _term(self, text: str):
        term = self._term_cache.get(text)
        if term is None:
            try:
                parser = self._fragment_parser(text)
                term = parser._parse_term(position="query model")
                parser.expect("EOF")
            except (ParseError, ValueError) as exc:
                raise CompilationError(
                    "cannot compile model term %r: %s" % (text, exc))
            self._term_cache[text] = term
        return term

    def _expression(self, text: str) -> Expression:
        expression = self._expression_cache.get(text)
        if expression is None:
            try:
                parser = self._fragment_parser(text)
                expression = parser._parse_expression()
                parser.expect("EOF")
            except (ParseError, ValueError) as exc:
                raise CompilationError(
                    "cannot compile model expression %r: %s" % (text, exc))
            self._expression_cache[text] = expression
        return expression


def compile_model(model: QueryModel,
                  prefixes: Optional[Dict[str, str]] = None) -> alg.Query:
    """Compile a query model directly to an algebra :class:`~.algebra.Query`
    (no SPARQL text round trip)."""
    if not isinstance(model, QueryModel):
        raise CompilationError("expected a QueryModel, got %r" % (model,))
    return ModelCompiler(prefixes).compile(model)
