"""FILTER at the top of an ``OPTIONAL { }`` group is the LeftJoin condition.

SPARQL 1.1 §18.2.2 translates ``OPTIONAL { P FILTER(F) }`` into
``LeftJoin(G, P, F)``: the filter sees the bindings of *both* sides, so
it may name a variable only the required side binds.  Wrapping it as
``Filter(F, P)`` on the optional side instead leaves that variable
unbound, the filter errors, and every extension is dropped.  The parser
and the model compiler did exactly that, and the reference agreed (it
shares the parser), so these tests pin expected *values*, not agreement
between planes.
"""

import pytest

from repro.core import QueryModel, translate
from repro.core.query_model import OptionalBlock
from repro.rdf import Graph, Literal, URIRef
from repro.sparql import Engine, algebra as alg, parse
from repro.sparql.expressions import AndExpr
from repro.sparql.plan import RULES, optimize_plan

from plan_variants import nodes

PFX = "PREFIX x: <http://x/>\n"


def uri(name):
    return URIRef("http://x/" + name)


@pytest.fixture(scope="module")
def graph():
    g = Graph("http://g")
    for name, limit, score in (("a", 1, 2), ("b", 5, 2), ("c", 2, 9)):
        g.add(uri(name), uri("limit"), Literal(limit))
        g.add(uri(name), uri("score"), Literal(score))
    g.add(uri("d"), uri("limit"), Literal(0))  # no score at all
    return g


@pytest.fixture(scope="module", params=["production", "reference"])
def engine(request, graph):
    return Engine(graph, columnar=request.param == "production")


def bag(engine, text):
    result = engine.query(PFX + text)
    return sorted((str(row[0]), None if row[1] is None else row[1].value)
                  for row in result.rows)


class TestExpectedBags:
    def test_shrunk_reproducer(self):
        # Two subjects, one optional extension each; the filter names the
        # required side's ?x.  a (x=1) keeps its extension, b (x=5) loses
        # it.  Filtering the optional side alone unbinds ?x and drops both.
        g = Graph("http://g")
        g.add(uri("a"), uri("p"), Literal(1))
        g.add(uri("a"), uri("q"), Literal(2))
        g.add(uri("b"), uri("p"), Literal(5))
        g.add(uri("b"), uri("q"), Literal(2))
        text = ("SELECT ?s ?o WHERE { ?s x:p ?x "
                "OPTIONAL { ?s x:q ?o FILTER(?x < 3) } }")
        for engine in (Engine(g), Engine(g, columnar=False)):
            assert bag(engine, text) == [("http://x/a", 2),
                                         ("http://x/b", None)]

    def test_filter_on_required_side_variable(self, engine):
        text = ("SELECT ?s ?score WHERE { ?s x:limit ?limit "
                "OPTIONAL { ?s x:score ?score FILTER(?score > ?limit) } }")
        assert bag(engine, text) == [("http://x/a", 2), ("http://x/b", None),
                                     ("http://x/c", 9), ("http://x/d", None)]

    def test_two_filters_are_one_condition(self, engine):
        text = ("SELECT ?s ?score WHERE { ?s x:limit ?limit "
                "OPTIONAL { ?s x:score ?score "
                "FILTER(?score > ?limit) FILTER(?score < 5) } }")
        assert bag(engine, text) == [("http://x/a", 2), ("http://x/b", None),
                                     ("http://x/c", None),
                                     ("http://x/d", None)]

    def test_filter_on_optional_side_variable_only(self, engine):
        # Unchanged by the fix: the condition tests the optional row alone.
        text = ("SELECT ?s ?score WHERE { ?s x:limit ?limit "
                "OPTIONAL { ?s x:score ?score FILTER(?score > 5) } }")
        assert bag(engine, text) == [("http://x/a", None),
                                     ("http://x/b", None),
                                     ("http://x/c", 9), ("http://x/d", None)]

    def test_filter_in_nested_group_stays_inside(self, engine):
        # Only the OPTIONAL group's own top-level filters become the
        # condition; a nested group's filter still sees only its group,
        # where ?limit is unbound, so it drops every extension.
        text = ("SELECT ?s ?score WHERE { ?s x:limit ?limit "
                "OPTIONAL { { ?s x:score ?score FILTER(?score > ?limit) } } }")
        assert bag(engine, text) == [("http://x/a", None),
                                     ("http://x/b", None),
                                     ("http://x/c", None),
                                     ("http://x/d", None)]

    def test_filter_in_subquery_stays_inside(self, engine):
        text = ("SELECT ?s ?score WHERE { ?s x:limit ?limit "
                "OPTIONAL { SELECT ?s ?score WHERE { ?s x:score ?score "
                "FILTER(bound(?limit)) } } }")
        assert bag(engine, text) == [("http://x/a", None),
                                     ("http://x/b", None),
                                     ("http://x/c", None),
                                     ("http://x/d", None)]


class TestAlgebra:
    def leftjoin(self, text):
        found = [n for n in nodes(parse(PFX + text).pattern)
                 if isinstance(n, alg.LeftJoin)]
        assert len(found) == 1
        return found[0]

    def test_filters_become_the_condition(self):
        node = self.leftjoin("SELECT * WHERE { ?s x:p ?x OPTIONAL { "
                             "?s x:q ?o FILTER(?x < 3) FILTER(?o > 1) } }")
        assert isinstance(node.right, alg.BGP)
        assert isinstance(node.condition, AndExpr)
        assert node.condition.sparql() == "( ( ?x < 3 ) && ( ?o > 1 ) )"

    def test_exists_stays_on_the_optional_pattern(self):
        node = self.leftjoin(
            "SELECT * WHERE { ?s x:p ?x OPTIONAL { ?s x:q ?o FILTER(?x < 3) "
            "FILTER NOT EXISTS { ?o x:r ?r } } }")
        assert isinstance(node.right, alg.FilterExists)
        assert node.condition.sparql() == "( ?x < 3 )"

    def test_unfiltered_optional_has_no_condition(self):
        node = self.leftjoin("SELECT * WHERE { ?s x:p ?x "
                             "OPTIONAL { ?s x:q ?o } }")
        assert node.condition is None

    def test_model_optional_blocks_render_conditions(self):
        model = QueryModel()
        model.add_prefixes({"x": "http://x/"})
        model.add_triple("?s", "x:p", "?x")
        block = OptionalBlock()
        block.triples.append(("?s", "x:q", "?o"))
        block.filters += ["?x < 3", "?o > 1"]
        model.add_optional(block)
        scoped = OptionalBlock("http://g")
        scoped.triples.append(("?s", "x:r", "?r"))
        scoped.filters.append("?r > ?x")
        model.add_optional(scoped)
        parsed = parse(translate(model))
        outer, inner = [n for n in nodes(parsed.pattern)
                        if isinstance(n, alg.LeftJoin)]
        assert inner.condition.sparql() == "( ( ?x < 3 ) && ( ?o > 1 ) )"
        # The GRAPH-scoped block renders its filter inside GRAPH { }.
        assert outer.condition is None
        assert isinstance(outer.right.pattern, alg.Filter)


CONDITIONED = [
    "SELECT ?s WHERE { ?s x:limit ?limit "
    "OPTIONAL { ?s x:score ?score FILTER(?score > ?limit) } }",
    "SELECT ?s ?score WHERE { ?s x:limit ?limit OPTIONAL { ?s x:score "
    "?score FILTER(?score > ?limit && ?score > 1) } }",
    "SELECT ?s (COUNT(?score) AS ?n) WHERE { ?s x:limit ?limit . "
    "?s x:limit ?l2 OPTIONAL { ?s x:score ?score . ?s x:limit ?l3 "
    "FILTER(?score > ?limit) } } GROUP BY ?s",
    "SELECT ?s WHERE { { SELECT ?s ?limit WHERE { ?s x:limit ?limit } } "
    "OPTIONAL { ?s x:score ?score FILTER(?score > ?limit) } } LIMIT 2",
    # AggregatePushdown narrows the projection above the LeftJoin.
    "SELECT ?s (COUNT(?score) AS ?n) WHERE { { SELECT ?s ?score ?limit "
    "WHERE { ?s x:limit ?limit OPTIONAL { ?s x:score ?score "
    "FILTER(?score > ?limit) } } } } GROUP BY ?s",
]


class TestPlanPasses:
    @pytest.mark.parametrize("text", CONDITIONED)
    @pytest.mark.parametrize("name", sorted({
        name for entries in RULES.values() for name, _ in entries}) + [None])
    def test_every_pass_keeps_the_condition_in_scope(self, graph, name,
                                                     text):
        if name is None:  # every rule, JoinOrdering and the lowering
            plan = optimize_plan(parse(PFX + text), graph=graph)
        else:
            plan = optimize_plan(parse(PFX + text), passes=[name])
        for node in nodes(plan.query.pattern):
            if isinstance(node, alg.LeftJoin) and node.condition is not None:
                scope = set(node.left.in_scope()) | set(node.right.in_scope())
                assert set(node.condition.variables()) <= scope, name

    def test_optional_side_conjuncts_move_into_the_optional_side(self):
        plan = optimize_plan(parse(PFX + CONDITIONED[1]))
        node = next(n for n in nodes(plan.query.pattern)
                    if isinstance(n, alg.LeftJoin))
        assert node.condition.sparql() == "( ?score > ?limit )"
        assert isinstance(node.right, alg.Filter)
        assert node.right.condition.sparql() == "( ?score > 1 )"
        assert "LeftJoin(BGP(1 triples), Filter(( ?score > 1 ), " \
            "BGP(1 triples)), ( ?score > ?limit ))" in plan.explain()

    @pytest.mark.parametrize("text", CONDITIONED)
    def test_planned_equals_reference(self, graph, text):
        def rows(engine):
            return sorted(map(repr, engine.query(PFX + text).rows))
        assert rows(Engine(graph)) == rows(Engine(graph, columnar=False))
