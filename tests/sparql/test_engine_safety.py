"""Engine safety valves on the columnar plane.

Both valves must trip *mid-query* — while an exploding cross product is
still producing rows — not after the damage is done:

* ``max_intermediate_rows`` aborts inside the pattern matcher as soon as
  an intermediate table crosses the budget,
* a query ``timeout`` arms a deadline that the evaluator checks between
  operators and during row production.
"""

import time

import pytest

from repro.rdf import Graph, URIRef
from repro.sparql import Engine, EvaluationError, QueryTimeout

PFX = "PREFIX x: <http://x/>\n"

#: A deliberate Cartesian product: ?a/?b and ?c/?d share no variable.
CROSS_PRODUCT = PFX + """
    SELECT ?a ?b ?c ?d WHERE {
        ?a x:p ?b .
        ?c x:q ?d .
    }"""


def uri(name):
    return URIRef("http://x/" + name)


def cross_graph(n):
    """A graph whose CROSS_PRODUCT query yields n*n rows."""
    g = Graph("http://g")
    for i in range(n):
        g.add(uri("s%d" % i), uri("p"), uri("o%d" % i))
        g.add(uri("t%d" % i), uri("q"), uri("u%d" % i))
    return g


class TestMaxIntermediateRows:
    def test_trips_on_exploding_cross_product(self):
        engine = Engine(cross_graph(200), max_intermediate_rows=1000)
        with pytest.raises(EvaluationError, match="max_rows"):
            engine.query(CROSS_PRODUCT)

    def test_trips_mid_pattern_not_after(self):
        # 200x200 = 40k candidate rows.  Tripping mid-pattern means the
        # matcher stopped right after the budget was crossed, so the
        # observed match count stays near the budget — far below 40k.
        from repro.sparql import Evaluator, parse
        engine = Engine(cross_graph(200), max_intermediate_rows=1000)
        evaluator = Evaluator(engine.dataset, max_rows=1000)
        with pytest.raises(EvaluationError):
            evaluator.evaluate_query_stream(parse(CROSS_PRODUCT)).to_table()
        assert evaluator.stats.pattern_matches < 5000

    def test_small_queries_unaffected(self):
        engine = Engine(cross_graph(10), max_intermediate_rows=1000)
        result = engine.query(CROSS_PRODUCT)
        assert len(result) == 100

    def test_budget_boundary_is_inclusive(self):
        engine = Engine(cross_graph(10), max_intermediate_rows=100)
        assert len(engine.query(CROSS_PRODUCT)) == 100
        engine = Engine(cross_graph(10), max_intermediate_rows=99)
        with pytest.raises(EvaluationError):
            engine.query(CROSS_PRODUCT)


class TestQueryTimeout:
    def test_trips_mid_query(self):
        # Large enough that full evaluation takes well over the budget;
        # the deadline must abandon it long before completion.
        engine = Engine(cross_graph(1500))
        start = time.perf_counter()
        with pytest.raises(QueryTimeout):
            engine.query(CROSS_PRODUCT, timeout=0.02)
        elapsed = time.perf_counter() - start
        # 1500x1500 = 2.25M tuples would take far longer than this.
        assert elapsed < 1.0

    def test_no_timeout_completes(self):
        engine = Engine(cross_graph(20))
        assert len(engine.query(CROSS_PRODUCT, timeout=30.0)) == 400

    def test_deadline_checked_between_operators(self):
        from repro.sparql import Evaluator, parse
        engine = Engine(cross_graph(5))
        evaluator = Evaluator(engine.dataset,
                              deadline=time.perf_counter() - 1.0)
        with pytest.raises(QueryTimeout):
            evaluator.evaluate_query_stream(parse(CROSS_PRODUCT)).to_table()

    def test_timeout_importable_from_engine_module(self):
        # QueryTimeout moved to the evaluator (where the deadline trips);
        # the engine-level import path must keep working.
        from repro.sparql.engine import QueryTimeout as FromEngine
        assert FromEngine is QueryTimeout
