"""Differential + behavioral suite for the pipelined batch-stream operators.

Two planes answer every query here:

* ``default``   — ``Engine(dataset)``: the production operators,
* ``reference`` — ``Engine(columnar=False)``: the seed dict-based
  evaluator, the oracle.

They must agree on every workload case study and on the LIMIT/OFFSET
edges (as bags; row for row only under a total ``ORDER BY``); the
production operators must additionally *prove* their short-circuiting
through the ``rows_pulled`` / ``early_exits`` / ``peak_batch_rows``
counters, keep ``TableStream.total_rows`` in lockstep with
``rows_pulled``, and honor the safety valves mid-query.
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.client import EngineClient
from repro.data import DBPEDIA_URI, build_dataset
from repro.rdf import Graph, Literal, URIRef, Variable
from repro.sparql import Endpoint, Engine, Evaluator, ResultSet
from repro.sparql import algebra as alg
from repro.sparql.evaluator import (STREAM_BATCH_ROWS, QueryTimeout,
                                    RowBudgetExceeded)
from repro.sparql.optimizer import Intersect
from repro.sparql.physical import Scan
from repro.sparql.solution import batched, stream_distinct
from repro.workload import CASE_STUDIES, get_case_study

from plan_variants import UNPUSHED, nodes, plan_variant

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


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(scale=0.05)


@pytest.fixture(scope="module")
def engines(dataset):
    return {
        "default": Engine(dataset),
        "reference": Engine(dataset, columnar=False),
    }


@pytest.fixture(params=[cs.key for cs in CASE_STUDIES])
def case_study(request):
    return get_case_study(request.param)


def row_bag(result):
    """Order-insensitive fingerprint: rows as bags, columns keyed by
    variable name (SELECT * column *order* is plane-specific)."""
    order = sorted(range(len(result.variables)),
                   key=lambda i: result.variables[i])
    return sorted(tuple(repr(row[i]) for i in order) for row in result.rows)


def run_frame(engines, frame):
    """Execute one RDFFrame on both planes -> {plane: ResultSet}."""
    text = frame.to_sparql()
    return {plane: engine.query(text) for plane, engine in engines.items()}


class TestCaseStudyPlanes:
    def test_full_results_identical(self, engines, case_study):
        results = run_frame(engines, case_study.frame())
        assert row_bag(results["default"]) == row_bag(results["reference"])

    def test_limited_results_agree(self, engines, case_study):
        frame = case_study.frame().head(7, 3)
        full_bag = row_bag(run_frame(engines, case_study.frame())["reference"])
        results = run_frame(engines, frame)
        total = len(full_bag)
        expect = max(0, min(7, total - 3))
        for plane, result in results.items():
            assert len(result) == expect, plane
            # A LIMIT window must be a sub-bag of the full result.
            for key in row_bag(result):
                assert key in full_bag, plane

    def test_limit_zero_is_empty_everywhere(self, engines, case_study):
        frame = case_study.frame().head(0)
        for plane, result in run_frame(engines, frame).items():
            assert len(result) == 0, plane

    def test_offset_only_agrees(self, engines, case_study):
        frame = case_study.frame().head(None, 5)
        full = len(run_frame(engines, case_study.frame())["reference"])
        for plane, result in run_frame(engines, frame).items():
            assert len(result) == max(0, full - 5), plane


class TestLimitEdgesOnText:
    """LIMIT/OFFSET edge cases on a BGP-spine query."""

    @pytest.mark.parametrize("suffix", [
        " LIMIT 10", " LIMIT 0", " OFFSET 7", " LIMIT 5 OFFSET 3",
        " ORDER BY ?a LIMIT 6", " ORDER BY ?a DESC(?b) LIMIT 4 OFFSET 2",
        " ORDER BY ?b OFFSET 5",
    ])
    def test_costar_windows_identical(self, engines, suffix):
        query = COSTAR + suffix
        got = engines["default"].query(
            query, default_graph_uri=DBPEDIA_URI).rows
        reference = engines["reference"].query(
            query, default_graph_uri=DBPEDIA_URI).rows
        if "DESC(?b)" in suffix:
            # (?a, ?b) is the whole row: the order is total, so the
            # window is the same rows in the same order.
            assert got == reference
        # Otherwise the reference plane may produce rows in a different
        # base order (a LIMIT window is then a different-but-valid
        # answer): hold it to the window size and to drawing from the
        # same result bag.
        assert len(reference) == len(got)
        full_bag = row_bag(engines["reference"].query(
            COSTAR, default_graph_uri=DBPEDIA_URI))
        for row in got + reference:
            assert tuple(map(repr, row)) in full_bag

    def test_offset_past_end(self, engines):
        query = COSTAR + " OFFSET 1000000"
        for plane, engine in engines.items():
            assert len(engine.query(query,
                                    default_graph_uri=DBPEDIA_URI)) == 0


class TestOrderByComposite:
    """The repeated-full-sort fix: one composite key, per-key direction,
    stability preserved — pinned against the reference evaluator, which
    still sorts the seed way (one stable pass per key, reversed)."""

    QUERY = """
    SELECT ?x ?y ?z WHERE {
        VALUES (?x ?y ?z) {
            (2 "b" 1) (1 "b" 2) (2 "a" 3) (1 "a" 4)
            (2 "b" 5) (1 "b" 6) (UNDEF "c" 7) (2 UNDEF 8)
        }
    } ORDER BY ?x DESC(?y) ?z
    """

    def test_three_key_mixed_directions(self):
        graph = Graph("http://t")
        engines = {
            "default": Engine(graph),
            "reference": Engine(graph, columnar=False),
        }
        want = None
        for plane, engine in engines.items():
            got = engine.query(self.QUERY).rows
            if want is None:
                want = got
            else:
                assert got == want, plane
        # And the order itself is right: ?x asc (unbound first), then ?y
        # desc, then ?z asc.
        values = [tuple(None if t is None else t.value for t in row)
                  for row in want]
        assert values == [
            (None, "c", 7),
            (1, "b", 2), (1, "b", 6), (1, "a", 4),
            (2, "b", 1), (2, "b", 5), (2, "a", 3), (2, None, 8),
        ]

    def test_stability_with_tied_keys(self):
        graph = Graph("http://t")
        query = """
        SELECT ?x ?tag WHERE {
            VALUES (?x ?tag) { (1 "first") (1 "second") (1 "third") }
        } ORDER BY ?x
        """
        for engine in (Engine(graph), Engine(graph, columnar=False)):
            tags = [row[1].value for row in engine.query(query).rows]
            assert tags == ["first", "second", "third"]


class TestTopK:
    def test_plan_fuses_slice_orderby_through_project(self, engines):
        engine = engines["default"]
        plan = engine.plan(COSTAR + " ORDER BY ?a LIMIT 10",
                           default_graph_uri=DBPEDIA_URI)
        assert isinstance(plan.query.pattern, alg.Project)
        topk = plan.query.pattern.pattern
        assert isinstance(topk, alg.TopK)
        assert isinstance(topk.pattern, alg.BGP)
        assert topk.limit == 10

    def test_limit_pushdown_disabled_keeps_slice(self, engines):
        plan = plan_variant(engines["default"],
                            COSTAR + " ORDER BY ?a LIMIT 10", DBPEDIA_URI,
                            passes=UNPUSHED)
        assert isinstance(plan.query.pattern, alg.Slice)
        assert isinstance(plan.query.pattern.pattern, alg.OrderBy)

    def test_slice_fusion_arithmetic(self):
        from repro.sparql.plan import rewrite

        inner = alg.Slice(alg.BGP([]), limit=10, offset=3)
        node, stats = rewrite(alg.Slice(inner, limit=5, offset=2))
        assert stats["LimitPushdown"].changes == 1
        assert isinstance(node, alg.Slice)
        assert (node.limit, node.offset) == (5, 5)
        # Outer window larger than what the inner slice leaves.
        node, _ = rewrite(
            alg.Slice(alg.Slice(alg.BGP([]), limit=4, offset=0),
                      limit=10, offset=3))
        assert (node.limit, node.offset) == (1, 3)

    def test_topk_not_pushed_past_projected_away_key(self, engines):
        # ORDER BY on a variable the SELECT clause drops: this engine's
        # algebra sorts *above* the projection, so the key is a no-op —
        # and LimitPushdown must not swap TopK below the Project (where
        # the key would suddenly bind and change the result).
        query = COSTAR.replace("?a ?b", "?a") + " ORDER BY ?b LIMIT 5"
        engine = engines["default"]
        plan = engine.plan(query, default_graph_uri=DBPEDIA_URI)
        topk = plan.query.pattern
        assert isinstance(topk, alg.TopK)          # stayed above Project
        assert isinstance(topk.pattern, alg.Project)
        # The no-op key leaves the input order alone: the window is the
        # first five rows of the unordered query.
        got = engine.query(query, default_graph_uri=DBPEDIA_URI).rows
        assert got == engine.query(
            COSTAR.replace("?a ?b", "?a"),
            default_graph_uri=DBPEDIA_URI).rows[:5]
        assert len(engines["reference"].query(
            query, default_graph_uri=DBPEDIA_URI)) == len(got)

    #: ``TopK`` over a BGP; each window must be the unfused plan's.
    WINDOWS = {
        "tie_heavy": (COSTAR + " ORDER BY ?a LIMIT 10", "a"),
        "desc": (COSTAR + " ORDER BY DESC(?b) LIMIT 10", "b"),
        "two_keys": (COSTAR + " ORDER BY ?a DESC(?b) LIMIT 10", "a"),
        "second_pattern_key": (BGP3 + " ORDER BY ?place LIMIT 10",
                               "place"),
        "absent_key": (COSTAR + " ORDER BY ?nowhere LIMIT 10", None),
        "offset": (COSTAR + " ORDER BY ?a LIMIT 10 OFFSET 25", "a"),
    }

    @pytest.mark.parametrize("case", sorted(WINDOWS))
    def test_topk_over_bgp_equals_unpushed_plan(self, dataset, case):
        """``TopK`` is a bounded heap over its child's stream: the window
        over a BGP is row for row the ``Slice(OrderBy(...))`` plan's,
        whatever the stream hint."""
        query, key = self.WINDOWS[case]
        engine = Engine(dataset)
        fused = engine.plan(query, DBPEDIA_URI)
        topk = [node for node in nodes(fused.root)
                if isinstance(node, alg.TopK)]
        assert len(topk) == 1 and isinstance(topk[0].pattern, Scan)
        if case == "second_pattern_key":
            # The key is bound by a later step, not the program's first.
            first = topk[0].pattern.program[0]
            bound = {first.var} if isinstance(first, Intersect) else {
                term.name for term in first.pattern
                if isinstance(term, Variable)}
            assert key not in bound
        unfused = plan_variant(engine, query, DBPEDIA_URI, passes=UNPUSHED)
        for hint in (None, 1, 7):
            got = Evaluator(dataset).evaluate_plan_stream(
                fused, DBPEDIA_URI, hint).to_table().rows
            want = Evaluator(dataset).evaluate_plan_stream(
                unfused, DBPEDIA_URI, hint).to_table().rows
            assert len(got) == 10
            assert got == want, hint


class TestEarlyExit:
    def test_limit_pulls_small_multiple_of_limit(self, dataset):
        engine = Engine(dataset)
        full = engine.query(COSTAR, default_graph_uri=DBPEDIA_URI)
        assert len(full) > 1000  # the intermediate result is genuinely big

        result = engine.query(COSTAR + " LIMIT 10",
                              default_graph_uri=DBPEDIA_URI)
        stats = engine.last_stats
        assert len(result) == 10
        assert result.rows == full.rows[:10]
        # The acceptance bar: a LIMIT 10 query pulls a small multiple of
        # 10 rows through the pipeline, not the full cardinality.
        assert stats.rows_pulled <= 100
        assert stats.rows_pulled < len(full)
        assert stats.early_exits >= 1
        assert 0 < stats.peak_batch_rows <= STREAM_BATCH_ROWS

    def test_offset_only_plan_is_not_bounded(self, dataset):
        # Only a LIMIT cuts production short: an OFFSET alone drains the
        # whole input, exits nothing early and keeps the base order.
        engine = Engine(dataset)
        full = engine.query(COSTAR, default_graph_uri=DBPEDIA_URI)
        result = engine.query(COSTAR + " OFFSET 5",
                              default_graph_uri=DBPEDIA_URI)
        stats = engine.last_stats
        assert result.rows == full.rows[5:]
        assert stats.early_exits == 0
        assert stats.rows_pulled >= len(full)

    def test_limit_zero_pulls_nothing(self, dataset):
        engine = Engine(dataset)
        result = engine.query(COSTAR + " LIMIT 0",
                              default_graph_uri=DBPEDIA_URI)
        assert len(result) == 0
        assert list(result.variables) == ["a", "b"]
        assert engine.last_stats.rows_pulled == 0
        assert engine.last_stats.early_exits >= 1

    def test_distinct_limit_stops_after_k_distinct(self, dataset):
        engine = Engine(dataset)
        distinct_q = COSTAR.replace("SELECT ?a", "SELECT DISTINCT ?a") \
                           .replace(" ?b WHERE", " WHERE")
        full = engine.query(distinct_q, default_graph_uri=DBPEDIA_URI)
        # What the dedup would consume without the bound: the whole BGP.
        dedup_input = len(engine.query(COSTAR,
                                       default_graph_uri=DBPEDIA_URI))

        limited = engine.query(distinct_q + " LIMIT 3",
                               default_graph_uri=DBPEDIA_URI)
        stats = engine.last_stats
        assert limited.rows == full.rows[:3]
        assert len(set(limited.rows)) == 3
        assert stats.early_exits >= 1
        # Dedup + slice stream: production stops once 3 distinct rows
        # exist, instead of deduplicating the whole input.
        assert stats.rows_pulled < dedup_input / 2


def planned_stream(dataset, query, **valves):
    """A fresh evaluator (``valves``: its ``max_rows`` / ``deadline``) and
    the stream of the engine's plan for ``query``."""
    plan = Engine(dataset).plan(query, DBPEDIA_URI)
    evaluator = Evaluator(dataset, **valves)
    return evaluator, evaluator.evaluate_plan_stream(plan, DBPEDIA_URI)


class TestValves:
    """The safety valves trip while a query runs, not after it.

    COSTAR's first pattern yields 423 rows; its second expands them into
    the 1879-row result in one breadth-first level, which then leaves the
    BGP in batches of :data:`STREAM_BATCH_ROWS`.
    """

    def test_max_rows_trips_mid_pattern(self, dataset):
        evaluator, stream = planned_stream(dataset, COSTAR, max_rows=600)
        pulled = 0
        # The row sink trips while the second pattern is expanding — the
        # 1879-row level is never completed, let alone streamed.
        with pytest.raises(RowBudgetExceeded, match="mid-pattern"):
            for batch in stream.batches:
                pulled += len(batch)
        assert pulled == 0
        assert evaluator.stats.pattern_matches == 423  # first level only

    def test_rearmed_deadline_trips_at_next_batch(self, dataset):
        evaluator, stream = planned_stream(dataset, COSTAR)
        batches = stream.batches
        assert len(next(batches)) == STREAM_BATCH_ROWS
        # The rest of the level is already matched, so only the stream
        # boundary can notice an expired deadline armed between pulls.
        evaluator.deadline = time.perf_counter() - 1.0
        with pytest.raises(QueryTimeout, match="streamed rows"):
            next(batches)

    def test_group_emit_trips_every_1024_groups(self):
        # 1500 groups answered from the index: no pattern row is produced,
        # so only the emit loop's own check can see the budget pass.
        g = Graph("http://valve")
        for i in range(1500):
            g.add(URIRef("http://x/s%d" % i), URIRef("http://x/p"),
                  URIRef("http://x/o%d" % i))
        engine = Engine(g, max_intermediate_rows=1000)
        with pytest.raises(RowBudgetExceeded, match="batch boundary"):
            engine.query("SELECT ?s (COUNT(?o) AS ?n) "
                         "WHERE { ?s <http://x/p> ?o } GROUP BY ?s")

    def test_valves_off_by_default(self, dataset):
        evaluator, stream = planned_stream(dataset, COSTAR)
        assert (evaluator.max_rows, evaluator.deadline,
                evaluator.cancel) == (None, None, None)
        assert len(stream.to_table()) == 1879

    @pytest.mark.parametrize("query, size", [
        (COSTAR, 1879),
        (BGP3, 423),
        (PFX + """SELECT ?film ?actor WHERE {
            ?film dbpp:starring ?actor . ?film dbpp:country ?country .
            FILTER(?country = <http://dbpedia.org/resource/United_States>)
        }""", 145),
        (PFX + "SELECT DISTINCT ?actor WHERE { ?film dbpp:starring ?actor }",
         54),
        (PFX + """SELECT ?actor (COUNT(?film) AS ?n) WHERE {
            ?film dbpp:starring ?actor } GROUP BY ?actor""", 54),
        (PFX + """SELECT ?film ?copy ?one ?label WHERE {
            ?film dbpp:starring ?actor .
            BIND(?actor AS ?copy) BIND(1 AS ?one) BIND(STR(?actor) AS ?label)
        }""", 423),
    ], ids=["costar", "bgp3", "filter", "distinct", "group", "bind"])
    def test_total_rows_matches_drained_stream(self, dataset, query, size):
        evaluator, stream = planned_stream(dataset, query)
        rows = [row for batch in stream.batches for row in batch]
        assert stream.total_rows == len(rows) == size
        # Every produced row crossed at least this stream's boundary.
        assert evaluator.stats.rows_pulled >= stream.total_rows


class TestBatchedHelper:
    def test_fitting_list_is_yielded_as_is(self):
        # Re-chunking must not copy a table that already fits in one
        # batch: the chunk is the row list *itself*, not a slice of it.
        rows = [(i,) for i in range(10)]
        chunks = list(batched(rows, STREAM_BATCH_ROWS))
        assert len(chunks) == 1 and chunks[0] is rows

    def test_oversized_list_is_rechunked_into_slices(self):
        rows = [(i,) for i in range(STREAM_BATCH_ROWS + 5)]
        chunks = list(batched(rows, STREAM_BATCH_ROWS))
        assert [len(c) for c in chunks] == [STREAM_BATCH_ROWS, 5]
        assert [r for c in chunks for r in c] == rows

    def test_empty_list_yields_nothing(self):
        assert list(batched([], STREAM_BATCH_ROWS)) == []


class TestStreamDistinctHelper:
    def test_dedup_preserves_first_seen_order(self):
        batches = iter([[(1,), (2,), (1,)], [(3,), (2,)], [(1,)], [(4,)]])
        out = [row for batch in stream_distinct(batches) for row in batch]
        assert out == [(1,), (2,), (3,), (4,)]

    def test_shared_seen_carries_across_streams(self):
        seen = set()
        first = [r for b in stream_distinct(iter([[(1,), (2,)]]), seen)
                 for r in b]
        second = [r for b in stream_distinct(iter([[(2,), (3,)]]), seen)
                  for r in b]
        assert first == [(1,), (2,)]
        assert second == [(3,)]

    @pytest.mark.parametrize("width", [1, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_batching_matches_one_pass_dedup(self, width, data):
        # Width 1 dedups on the bare cell, wider rows on the tuple; both
        # must equal one first-seen pass over the concatenated batches,
        # however the rows are cut, and never yield an empty batch.
        cell = st.one_of(st.none(), st.integers(min_value=0, max_value=4))
        batches = data.draw(st.lists(st.lists(
            st.tuples(*[cell] * width), max_size=8), max_size=5))
        out = list(stream_distinct(iter(batches)))
        assert all(out)
        expected, seen = [], set()
        for row in (row for batch in batches for row in batch):
            if row not in seen:
                seen.add(row)
                expected.append(row)
        assert [row for batch in out for row in batch] == expected

    def test_resultset_distinct_uses_same_semantics(self):
        result = ResultSet(["v"], [(Literal(1),), (Literal(2),),
                                   (Literal(1),)])
        assert [row[0].value for row in result.distinct().rows] == [1, 2]


class TestCursorPagination:
    def test_engine_stream_page_is_incremental(self, dataset):
        engine = Engine(dataset)
        full = engine.query(COSTAR, default_graph_uri=DBPEDIA_URI)
        cursor = engine.stream(COSTAR, default_graph_uri=DBPEDIA_URI)
        page = cursor.page(0, 20)
        stats = engine.last_stats
        assert page.rows == full.rows[:20]
        # O(offset + n): ~20 rows crossed each operator boundary, not the
        # thousands in the full result.
        assert stats.rows_pulled <= 200
        assert stats.rows_pulled < len(full)
        # Draining the cursor completes the exact same result.
        assert cursor.result().rows == full.rows

    def test_page_of_five_pulls_at_most_two_chunks(self, dataset):
        # Endpoint and EngineClient.execute_page ride a cursor whose BGPs
        # expand in 64-row chunks: a page of 5 moves a chunk or two
        # through the pipeline, not the 1879-row join.
        engine = Engine(dataset)
        full = engine.query(COSTAR, default_graph_uri=DBPEDIA_URI)
        response = Endpoint(engine, max_rows=5).request(COSTAR.replace(
            " WHERE", " FROM <%s> WHERE" % DBPEDIA_URI))
        assert response.result.rows == full.rows[:5]
        assert engine.last_stats.rows_pulled <= 2 * 64
        client = EngineClient(engine, default_graph_uri=DBPEDIA_URI)
        page = client.execute_page(COSTAR, offset=0, limit=5)
        assert page.to_records() == \
            full.slice(0, 5).to_dataframe().to_records()
        assert client.last_stats.rows_pulled <= 2 * 64

    def test_engine_stream_reference_plane_falls_back(self, dataset):
        engine = Engine(dataset, columnar=False)
        cursor = engine.stream(COSTAR, default_graph_uri=DBPEDIA_URI)
        want = engine.query(COSTAR, default_graph_uri=DBPEDIA_URI)
        assert cursor.page(3, 5).rows == want.rows[3:8]

    def test_rdfframe_execute_page_plans_a_row_bound(self, dataset):
        kg_frame = get_case_study("movie_genre").frame()
        engine = Engine(dataset)
        client = EngineClient(engine)
        df_full = kg_frame.execute(client)
        df_page = kg_frame.execute(client, limit=5, offset=2)
        assert any(isinstance(node, alg.TopK)
                   or (isinstance(node, alg.Slice) and node.limit == 5)
                   for node in nodes(engine.last_plan.query.pattern))
        assert len(df_page) == max(0, min(5, len(df_full) - 2))
