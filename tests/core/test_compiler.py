"""Tests for ``compile_model``: a query model as the engine's algebra.

SPARQL text is the one contract between RDFFrames and the engine, so a
model's algebra is the parse of its rendered text.  Executing that text
on the production operators must return the reference evaluator's bag.
"""

import pytest

from repro.core import (InnerJoin, KnowledgeGraph, LeftOuterJoin, OPTIONAL,
                        OuterJoin, QueryModel, compile_model, translate)
from repro.core.query_model import Aggregation
from repro.rdf import Graph, Literal, URIRef
from repro.sparql import Engine, ParseError, algebra as alg
from repro.sparql.expressions import VarExpr


def uri(name):
    return URIRef("http://x/" + name)


@pytest.fixture(scope="module")
def engine():
    g = Graph("http://g")
    for i in range(12):
        g.add(uri("m%d" % i), uri("type"), uri("Film"))
        g.add(uri("m%d" % i), uri("starring"), uri("a%d" % (i % 4)))
        g.add(uri("m%d" % i), uri("year"), Literal(2000 + i))
    for i in range(4):
        if i != 2:
            g.add(uri("a%d" % i), uri("born"), uri("c%d" % (i % 2)))
        g.add(uri("a%d" % i), uri("label"), Literal("Actor %d" % i))
    return Engine(g)


@pytest.fixture
def kg():
    return KnowledgeGraph(graph_uri="http://g",
                          prefixes={"x": "http://x/"})


def assert_roundtrip_identical(engine, model):
    """The model's text, run on the production operators, equals the
    reference evaluator's bag, and ``compile_model`` is that text's
    algebra (same plan key)."""
    text = translate(model)
    planned = engine.query(text)
    reference = Engine(engine.dataset, columnar=False).query(text)
    assert planned.to_dataframe().equals_bag(reference.to_dataframe())
    assert engine.plan(compile_model(model)).key == engine.last_plan.key
    return planned


# ----------------------------------------------------------------------
# Structural compilation
# ----------------------------------------------------------------------
class TestStructure:
    def test_triples_become_bgp(self):
        model = QueryModel()
        model.add_prefixes({"x": "http://x/"})
        model.add_triple("?m", "x:starring", "?a")
        query = compile_model(model)
        assert isinstance(query, alg.Query)
        node = query.pattern
        assert isinstance(node, alg.Project) and node.variables is None
        assert isinstance(node.pattern, alg.BGP)
        s, p, o = node.pattern.triples[0]
        assert p == uri("starring")

    def test_scoped_triples_become_graph_pattern(self):
        model = QueryModel()
        model.add_prefixes({"x": "http://x/"})
        model.add_triple("?m", "x:starring", "?a", graph_uri="http://g2")
        node = compile_model(model).pattern.pattern
        assert isinstance(node, alg.GraphPattern)
        assert node.graph_uri == "http://g2"

    def test_aggregation_function_mapping(self):
        model = QueryModel()
        model.add_triple("?m", "<http://x/year>", "?y")
        model.set_aggregation(["m"], Aggregation("average", "y", "mean"))
        node = compile_model(model).pattern
        assert isinstance(node, alg.Project)
        assert node.variables == ["m", "mean"]
        group = node.pattern
        assert isinstance(group, alg.Group)
        agg = group.aggregates[0]
        assert agg.function == "avg"
        assert isinstance(agg.expression, VarExpr)

    def test_count_star(self):
        model = QueryModel()
        model.add_triple("?m", "<http://x/year>", "?y")
        model.set_aggregation([], Aggregation("count", None, "n"))
        group = compile_model(model).pattern.pattern
        assert group.aggregates[0].expression is None

    def test_having_compiles_against_alias(self):
        model = QueryModel()
        model.add_triple("?m", "<http://x/starring>", "?a")
        model.set_aggregation(["a"], Aggregation("count", "m", "n"))
        model.add_having("?n >= 3")
        group = compile_model(model).pattern.pattern
        assert group.having is not None
        assert "n" in group.having.variables()

    def test_modifier_order_matches_parser(self):
        model = QueryModel()
        model.add_triple("?m", "<http://x/year>", "?y")
        model.distinct = True
        model.order_keys = [("y", "desc")]
        model.limit = 5
        model.offset = 2
        node = compile_model(model).pattern
        assert isinstance(node, alg.Slice)
        assert isinstance(node.pattern, alg.OrderBy)
        assert isinstance(node.pattern.pattern, alg.Distinct)

    def test_from_graphs_carried(self):
        model = QueryModel()
        model.add_graph("http://g")
        model.add_triple("?s", "?p", "?o")
        assert compile_model(model).from_graphs == ["http://g"]

    def test_bad_term_raises(self):
        model = QueryModel()
        model.add_triple("?m", "nosuchprefix:oops", "?a")
        with pytest.raises(ParseError):
            compile_model(model)

    def test_bad_expression_raises(self):
        model = QueryModel()
        model.add_triple("?m", "<http://x/year>", "?y")
        model.add_filter("?y >=")
        with pytest.raises(ParseError):
            compile_model(model)


# ----------------------------------------------------------------------
# Round-trip equivalence on real pipelines
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_seed_and_expand(self, engine, kg):
        frame = kg.feature_domain_range("x:starring", "m", "a") \
            .expand("a", [("x:born", "c"), ("x:label", "l", OPTIONAL)])
        assert_roundtrip_identical(engine, frame.query_model())

    def test_filters(self, engine, kg):
        frame = kg.feature_domain_range("x:starring", "m", "a") \
            .expand("m", [("x:year", "y")]) \
            .filter({"y": [">=2005"], "a": ["=<http://x/a1>"]})
        assert_roundtrip_identical(engine, frame.query_model())

    def test_group_having(self, engine, kg):
        frame = kg.feature_domain_range("x:starring", "m", "a") \
            .group_by(["a"]).count("m", "n", unique=True) \
            .filter({"n": [">=3"]})
        assert_roundtrip_identical(engine, frame.query_model())

    def test_inner_join_of_grouped(self, engine, kg):
        movies = kg.feature_domain_range("x:starring", "m", "a")
        counts = movies.group_by(["a"]).count("m", "n")
        assert_roundtrip_identical(
            engine, movies.join(counts, "a", InnerJoin).query_model())

    def test_left_outer_join(self, engine, kg):
        movies = kg.feature_domain_range("x:starring", "m", "a")
        births = kg.seed("a", "x:born", "c")
        assert_roundtrip_identical(
            engine, movies.join(births, "a", LeftOuterJoin).query_model())

    def test_full_outer_join(self, engine, kg):
        movies = kg.feature_domain_range("x:starring", "m", "a")
        births = kg.seed("a", "x:born", "c")
        assert_roundtrip_identical(
            engine, movies.join(births, "a", OuterJoin).query_model())

    def test_modifiers(self, engine, kg):
        frame = kg.feature_domain_range("x:starring", "m", "a") \
            .expand("m", [("x:year", "y")]) \
            .sort({"y": "desc"}).head(5, 2)
        assert_roundtrip_identical(engine, frame.query_model())

    def test_naive_strategy_models(self, engine, kg):
        from repro.core import NaiveGenerator
        frame = kg.feature_domain_range("x:starring", "m", "a") \
            .expand("a", [("x:born", "c")]).filter({"c": ["=<http://x/c0>"]})
        model = NaiveGenerator(kg.prefixes).generate(frame)
        assert_roundtrip_identical(engine, model)
