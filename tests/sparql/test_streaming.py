"""Differential + behavioral suite for the pipelined batch-stream operators.

Two planes answer every query here:

* ``default``   — ``Engine(dataset)``: the production operators,
* ``reference`` — ``Engine(columnar=False)``: the seed dict-based
  evaluator, the oracle.

They must agree on every workload case study and on the LIMIT/OFFSET
edges (as bags; row for row only under a total ``ORDER BY``); the
production operators must additionally *prove* their short-circuiting
through the ``rows_pulled`` / ``early_exits`` / ``peak_batch_rows``
counters.
"""

import pytest

from repro.client import EngineClient
from repro.data import DBPEDIA_URI, build_dataset
from repro.rdf import Graph, Literal, URIRef
from repro.sparql import Engine, ResultSet
from repro.sparql.evaluator import STREAM_BATCH_ROWS
from repro.sparql.solution import batched, stream_distinct
from repro.workload import CASE_STUDIES, get_case_study

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
    out = {}
    for plane, engine in engines.items():
        if engine.columnar:
            out[plane] = engine.query_model(frame.query_model())
        else:
            out[plane] = engine.query(frame.to_sparql())
    return out


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
        from repro.sparql import algebra as alg

        engine = engines["default"]
        plan = engine.plan(COSTAR + " ORDER BY ?a LIMIT 10",
                           default_graph_uri=DBPEDIA_URI)
        assert plan.bounded_or_grouped
        assert isinstance(plan.query.pattern, alg.Project)
        topk = plan.query.pattern.pattern
        assert isinstance(topk, alg.TopK)
        assert isinstance(topk.pattern, alg.BGP)
        assert topk.limit == 10

    def test_offset_only_plan_is_not_bounded(self, engines):
        plan = engines["default"].plan(COSTAR + " OFFSET 5",
                                       default_graph_uri=DBPEDIA_URI)
        assert not plan.bounded_or_grouped

    def test_limit_pushdown_disabled_keeps_slice(self, dataset):
        from repro.sparql import algebra as alg

        engine = Engine(dataset, limit_pushdown=False)
        plan = engine.plan(COSTAR + " ORDER BY ?a LIMIT 10",
                           default_graph_uri=DBPEDIA_URI)
        assert isinstance(plan.query.pattern, alg.Slice)
        assert isinstance(plan.query.pattern.pattern, alg.OrderBy)

    def test_slice_fusion_arithmetic(self):
        from repro.sparql import algebra as alg
        from repro.sparql.plan import limit_pushdown

        inner = alg.Slice(alg.BGP([]), limit=10, offset=3)
        node, changes = limit_pushdown(alg.Slice(inner, limit=5, offset=2))
        assert changes == 1
        assert isinstance(node, alg.Slice)
        assert (node.limit, node.offset) == (5, 5)
        # Outer window larger than what the inner slice leaves.
        node, _ = limit_pushdown(
            alg.Slice(alg.Slice(alg.BGP([]), limit=4, offset=0),
                      limit=10, offset=3))
        assert (node.limit, node.offset) == (1, 3)

    def test_topk_not_pushed_past_projected_away_key(self, engines):
        # ORDER BY on a variable the SELECT clause drops: this engine's
        # algebra sorts *above* the projection, so the key is a no-op —
        # and LimitPushdown must not swap TopK below the Project (where
        # the key would suddenly bind and change the result).
        from repro.sparql import algebra as alg

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

    def test_threshold_pruning_skips_fanout(self, dataset):
        query = COSTAR + " ORDER BY ?a LIMIT 10"
        fused = Engine(dataset)
        baseline = Engine(dataset, limit_pushdown=False)
        got = fused.query(query, default_graph_uri=DBPEDIA_URI)
        want = baseline.query(query, default_graph_uri=DBPEDIA_URI)
        assert got.rows == want.rows
        # The bounded sort pruned join fan-out: far fewer index matches.
        assert fused.last_stats.pattern_matches \
            < baseline.last_stats.pattern_matches / 2
        assert fused.last_stats.early_exits >= 1


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
        assert engine.last_plan.bounded_or_grouped
        assert len(df_page) == max(0, min(5, len(df_full) - 2))
