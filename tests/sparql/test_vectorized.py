"""Behavioral + property suite for the vectorized columnar data plane.

Three planes answer the differential queries here:

* ``vectorized`` — ``Engine(vectorize=True)``: the production operators
  with column-at-a-time batches forced on,
* ``rows``       — ``Engine(vectorize=False)``: the same operators on
  row-tuple batches,
* ``reference``  — ``Engine(columnar=False)``: the seed evaluator.

All three must agree as bags of named bindings.  The vectorized plane
must additionally *prove* its execution shape through the
``vector_batches`` / ``selection_vector_hits`` / ``row_fallbacks``
counters, keep ``TableStream.total_rows`` in lockstep with
``rows_pulled``, and honor the batch-granular safety valves
(``max_rows`` and a re-armed ``deadline`` both trip mid-query).

The ColumnBatch representation itself is covered by property tests:
round-tripping any row batch — nulls, empty schema, single column —
through columnar form and back is the identity, and ``stream_distinct``
carries one ``seen`` set across columnar and row batches alike.
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.data import DBPEDIA_URI, build_dataset
from repro.sparql import Engine, Evaluator
from repro.sparql import algebra as alg
from repro.sparql.evaluator import QueryTimeout, RowBudgetExceeded
from repro.sparql.parser import parse
from repro.sparql.solution import (ColumnBatch, SolutionTable, batched,
                                   stream_distinct)
from repro.sparql.vector import predicate_compilable

PFX = """
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX dbpo: <http://dbpedia.org/ontology/>
"""

COSTAR = PFX + """
SELECT ?a ?b WHERE { ?film dbpp:starring ?a . ?film dbpp:starring ?b }"""

BGP3 = PFX + """
SELECT ?film ?actor ?place WHERE {
    ?film rdf:type dbpo:Film .
    ?film dbpp:starring ?actor .
    ?actor dbpp:birthPlace ?place .
}"""

FILTER_EQ = PFX + """
SELECT ?film ?actor WHERE {
    ?film dbpp:starring ?actor .
    ?film dbpp:country ?country .
    FILTER(?country = <http://dbpedia.org/resource/United_States>)
}"""

DISTINCT_ACTORS = PFX + """
SELECT DISTINCT ?actor WHERE { ?film dbpp:starring ?actor }"""

GROUP_COUNT = PFX + """
SELECT ?actor (COUNT(?film) AS ?n) WHERE {
    ?film dbpp:starring ?actor .
} GROUP BY ?actor"""

# Extend's three shapes on columnar batches: a variable copy, a constant
# (both column-at-a-time), and a computed value (row detour).
BIND_SHAPES = PFX + """
SELECT ?film ?copy ?one ?label WHERE {
    ?film dbpp:starring ?actor .
    BIND(?actor AS ?copy) BIND(1 AS ?one) BIND(STR(?actor) AS ?label)
}"""

DIFFERENTIAL = [COSTAR, BGP3, FILTER_EQ, DISTINCT_ACTORS, GROUP_COUNT,
                BIND_SHAPES]


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(scale=0.05)


@pytest.fixture(scope="module")
def planes(dataset):
    return {
        "vectorized": Engine(dataset, vectorize=True),
        "rows": Engine(dataset, vectorize=False),
        "reference": Engine(dataset, columnar=False),
    }


def named_bag(result):
    return sorted(
        tuple(sorted((v, repr(val)) for v, val in zip(result.variables, row)))
        for row in result.rows)


def drain_vectorized(dataset, query, **kwargs):
    """A forced-vectorized evaluator plus its fully drained stream."""
    plan = Engine(dataset).plan(query)
    evaluator = Evaluator(dataset, optimize=False, multiway=False,
                          vectorize=True, **kwargs)
    stream = evaluator.evaluate_query_stream(plan.query, DBPEDIA_URI)
    rows = []
    for batch in stream.batches:
        rows.extend(batch)
    return evaluator, stream, rows


# ----------------------------------------------------------------------
# ColumnBatch <-> rows round-trips (property tests)
# ----------------------------------------------------------------------

_cells = st.one_of(st.none(), st.integers(min_value=0, max_value=7))


@st.composite
def row_batches(draw):
    width = draw(st.integers(min_value=0, max_value=4))
    n = draw(st.integers(min_value=0, max_value=12))
    return [tuple(draw(_cells) for _ in range(width)) for _ in range(n)], width


@given(row_batches())
@settings(max_examples=200, deadline=None)
def test_roundtrip_is_identity(batch_width):
    rows, width = batch_width
    cb = ColumnBatch.from_rows(rows, width)
    assert len(cb) == len(rows)
    assert cb.width == width
    assert cb.to_rows() == rows
    assert list(cb) == rows  # iteration is the row view
    assert [cb[i] for i in range(len(rows))] == rows  # and so is indexing


@given(row_batches(), st.integers(min_value=-13, max_value=13),
       st.integers(min_value=-13, max_value=13))
@settings(max_examples=200, deadline=None)
def test_slicing_commutes_with_row_view(batch_width, start, stop):
    rows, width = batch_width
    cb = ColumnBatch.from_rows(rows, width)
    assert cb[start:stop].to_rows() == rows[start:stop]


def test_roundtrip_edge_shapes():
    # Empty schema: ColumnBatch still tracks multiplicity without columns.
    unit = SolutionTable.unit()
    cb = ColumnBatch.from_rows(unit.rows, len(unit.variables))
    assert cb.width == 0 and len(cb) == 1
    assert cb.to_rows() == [()]
    # Single column, with and without nulls.
    assert ColumnBatch.from_rows([(3,), (5,)], 1).to_rows() == [(3,), (5,)]
    cb = ColumnBatch.from_rows([(3,), (None,)], 1)
    assert cb.mask(0) == bytearray((0, 1))
    assert cb.to_rows() == [(3,), (None,)]
    # Zero rows.
    assert ColumnBatch.from_rows([], 2).to_rows() == []


@given(st.lists(st.tuples(_cells, _cells), max_size=16),
       st.lists(st.tuples(_cells, _cells), max_size=16),
       st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_stream_distinct_shares_seen_across_batch_kinds(
        rows_a, rows_b, a_columnar, b_columnar):
    batch_a = ColumnBatch.from_rows(rows_a, 2) if a_columnar else rows_a
    batch_b = ColumnBatch.from_rows(rows_b, 2) if b_columnar else rows_b
    out = []
    for batch in stream_distinct(iter([batch_a, batch_b])):
        out.extend(batch)
    expected, seen = [], set()
    for row in rows_a + rows_b:
        if row not in seen:
            seen.add(row)
            expected.append(row)
    assert out == expected


@given(st.lists(st.one_of(st.none(),
                          st.integers(min_value=0, max_value=9)),
                max_size=24),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_stream_distinct_single_column_matches_row_semantics(cells, columnar):
    rows = [(c,) for c in cells]
    batch = ColumnBatch.from_rows(rows, 1) if columnar else rows
    out = []
    for b in stream_distinct(iter([batch])):
        out.extend(b)
    expected, seen = [], set()
    for row in rows:
        if row[0] not in seen:
            seen.add(row[0])
            expected.append(row)
    assert out == expected


def test_stream_distinct_seen_carries_across_calls():
    seen = set()
    first = list(stream_distinct(iter([ColumnBatch.from_rows([(1,), (2,)],
                                                             1)]), seen))
    second = list(stream_distinct(iter([[(2,), (3,)]]), seen))
    assert [r for b in first for r in b] == [(1,), (2,)]
    assert [r for b in second for r in b] == [(3,)]


# ----------------------------------------------------------------------
# Plane differential + execution-shape counters
# ----------------------------------------------------------------------

class TestPlaneIdentity:
    @pytest.mark.parametrize("query", DIFFERENTIAL)
    def test_bag_identical_across_planes(self, planes, query):
        bags = {name: named_bag(engine.query(
            query, default_graph_uri=DBPEDIA_URI))
            for name, engine in planes.items()}
        for name in ("vectorized", "rows"):
            assert bags[name] == bags["reference"], name

    def test_pure_id_plans_never_fall_back(self, dataset):
        for query in (COSTAR, BGP3, FILTER_EQ, DISTINCT_ACTORS):
            evaluator, _, _ = drain_vectorized(dataset, query)
            assert evaluator.stats.row_fallbacks == 0, query
            assert evaluator.stats.vector_batches > 0, query

    def test_compiled_filter_counts_selection_hits(self, dataset):
        evaluator, _, rows = drain_vectorized(dataset, FILTER_EQ)
        assert rows
        assert evaluator.stats.selection_vector_hits > 0
        assert evaluator.stats.row_fallbacks == 0

    def test_total_rows_matches_drained_stream(self, dataset):
        evaluator, stream, rows = drain_vectorized(dataset, COSTAR)
        assert stream.total_rows == len(rows)
        # Every produced row crossed at least this stream's boundary.
        assert evaluator.stats.rows_pulled >= stream.total_rows

    def test_auto_routing_is_equivalent(self, dataset):
        auto = Engine(dataset, vectorize="auto")
        off = Engine(dataset, vectorize=False)
        for query in DIFFERENTIAL:
            assert named_bag(auto.query(query,
                                        default_graph_uri=DBPEDIA_URI)) == \
                named_bag(off.query(query, default_graph_uri=DBPEDIA_URI))


# ----------------------------------------------------------------------
# Batch-granular safety valves under vectorize=True
# ----------------------------------------------------------------------

class TestVectorizedValves:
    def test_max_rows_trips_mid_query(self, dataset):
        plan = Engine(dataset).plan(COSTAR)
        evaluator = Evaluator(dataset, optimize=False, multiway=False,
                              vectorize=True, max_rows=600)
        stream = evaluator.evaluate_query_stream(plan.query, DBPEDIA_URI)
        pulled = 0
        with pytest.raises(RowBudgetExceeded):
            for batch in stream.batches:
                pulled += len(batch)
        # The valve tripped *mid-query*: pattern matching had already
        # produced rows (the batch that broke the budget) when the
        # boundary check fired, and the drain stopped short of the
        # query's 1879 rows.
        assert pulled < 1879
        assert evaluator.stats.pattern_matches > 0

    def test_rearmed_deadline_trips_at_next_batch(self, dataset):
        plan = Engine(dataset).plan(COSTAR)
        evaluator = Evaluator(dataset, optimize=False, multiway=False,
                              vectorize=True)
        stream = evaluator.evaluate_query_stream(plan.query, DBPEDIA_URI)
        batches = stream.batches
        first = next(batches)
        assert len(first) > 0
        # Arm an already-expired deadline between pulls: _check_valves
        # reads self.deadline per batch, so the very next pull must trip.
        evaluator.deadline = time.perf_counter() - 1.0
        with pytest.raises(QueryTimeout):
            next(batches)

    def test_valves_off_by_default(self, dataset):
        evaluator, _, rows = drain_vectorized(dataset, COSTAR)
        assert len(rows) == 1879


# ----------------------------------------------------------------------
# Planner annotation / predicate compilability
# ----------------------------------------------------------------------

class TestVectorizedAnnotation:
    def test_bgp_heavy_plans_are_annotated(self, dataset):
        engine = Engine(dataset)
        for query in (COSTAR, FILTER_EQ, DISTINCT_ACTORS):
            assert engine.plan(query).vectorized, query

    def test_intersect_strategy_is_not_annotated(self, dataset):
        # The optimizer marks BGP3's join as multiway-intersection;
        # intersect steps have no columnar form, so the annotation (and
        # with it 'auto' routing) excludes the plan — forcing
        # vectorize=True past the gate still answers it correctly via
        # the row detour (see TestPlaneIdentity).
        assert not Engine(dataset).plan(BGP3).vectorized

    def test_general_matcher_shapes_are_not_annotated(self, dataset):
        engine = Engine(dataset)
        # A variable in predicate position needs the slot-interpreting
        # matcher, which has no columnar form.
        var_pred = PFX + "SELECT ?p WHERE { ?film ?p ?actor }"
        assert not engine.plan(var_pred).vectorized
        # OrderBy is row-comparison heavy: the columnar plane would
        # transpose everything it produced and win nothing.
        ordered = COSTAR + " ORDER BY ?a"
        assert not engine.plan(ordered).vectorized

    def test_uncompilable_filter_stays_annotated(self, dataset):
        # Non-id filters take the bounded row detour, so the plan as a
        # whole remains columnar-eligible.
        query = PFX + """
        SELECT ?film ?actor WHERE {
            ?film dbpp:starring ?actor .
            FILTER(REGEX(STR(?actor), "a"))
        }"""
        assert Engine(dataset).plan(query).vectorized

    @staticmethod
    def _find_filter(node):
        if isinstance(node, alg.Filter):
            return node
        for child in node.children():
            found = TestVectorizedAnnotation._find_filter(child)
            if found is not None:
                return found
        return None

    @pytest.mark.parametrize("condition,compilable", [
        ("?c = <http://example.org/x>", True),
        ("<http://example.org/x> != ?c", True),
        ("?c IN (<http://example.org/x>, <http://example.org/y>)", True),
        ("BOUND(?c)", True),
        ("!BOUND(?c)", True),
        ("?c = <http://example.org/x> && BOUND(?c)", True),
        ("?c = \"literal\"", False),   # value-equal ids need row view
        ("?c < <http://example.org/x>", False),
        ("STR(?c) = \"x\"", False),
    ])
    def test_predicate_compilable_subset(self, condition, compilable):
        query = parse("SELECT ?s WHERE { ?s ?p ?c . FILTER(%s) }"
                      % condition)
        node = self._find_filter(query.pattern)
        assert node is not None
        assert predicate_compilable(node.condition) is compilable


def test_batched_yields_the_list_itself_when_it_fits():
    rows = [(1,), (2,), (3,)]
    chunks = list(batched(rows, 512))
    assert len(chunks) == 1
    assert chunks[0] is rows  # no defensive copy on the fast path
