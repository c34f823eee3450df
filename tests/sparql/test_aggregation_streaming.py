"""Differential + behavioral suite for streaming hash aggregation.

Two planes answer every grouped query here:

* ``production`` — ``Engine(source)``: ``Group`` folds row batches (or
  counts a star ``Group`` from the indexes),
* ``reference``  — ``Engine(columnar=False)``: the seed dict-based
  evaluator, the oracle.

They must agree on the case studies and on a synthetic grouped workload
covering every aggregate function, DISTINCT variants, HAVING, implicit
groups, and unbound inputs.  The production operators must additionally
*prove* their behavior through the ``groups_built`` / ``accumulator_rows``
/ ``rows_pulled`` counters — in particular that a star COUNT touches no
rows at all, and that every other shape still folds them.

The regression classes pin the GROUP_CONCAT separator, AVG/SUM numeric
promotion and MIN/MAX over any term (the winning input term, in ORDER BY
order) on both planes.
"""

import pytest

from repro.client import EngineClient
from repro.core import KnowledgeGraph
from repro.data import DBLP_URI, DBPEDIA_URI, build_dataset
from repro.rdf import (Dataset, Graph, Literal, TermDictionary, URIRef)
from repro.rdf.namespaces import DC, DCTERMS, RDF, SWRC
from repro.rdf.terms import XSD_DATE, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER
from repro.sparql import Engine, algebra as alg, parse
from repro.workload import CASE_STUDIES, get_case_study

PFX = """
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX dbpo: <http://dbpedia.org/ontology/>
PREFIX x: <http://x/>
"""

COUNT_FILMS = PFX + """
SELECT ?actor (COUNT(?film) AS ?n) WHERE {
    ?film dbpp:starring ?actor .
} GROUP BY ?actor"""

AVG_RUNTIME = PFX + """
SELECT ?country (AVG(?rt) AS ?mean) WHERE {
    ?film dbpp:country ?country .
    ?film dbpo:runtime ?rt .
} GROUP BY ?country"""


def uri(name):
    return URIRef("http://x/" + name)


def planes(source):
    """The two planes over one graph or dataset."""
    return {
        "production": Engine(source),
        "reference": Engine(source, columnar=False),
    }


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(scale=0.05)


@pytest.fixture(scope="module")
def engines(dataset):
    return planes(dataset)


@pytest.fixture(scope="module")
def small_dataset():
    """A handcrafted graph exercising aggregation edge cases: unbound
    cells (OPTIONAL), duplicate values over a multi-valued predicate,
    mixed numeric datatypes, and non-numeric values."""
    d = TermDictionary()
    ds = Dataset()
    g = Graph("http://g", dictionary=d)
    for i in range(12):
        g.add(uri("m%d" % i), uri("type"), uri("Film"))
        g.add(uri("m%d" % i), uri("starring"), uri("a%d" % (i % 4)))
        g.add(uri("m%d" % i), uri("year"), Literal(1990 + i))
    # A second starring edge for some films: multi-valued fan-out.
    for i in range(0, 12, 3):
        g.add(uri("m%d" % i), uri("starring"), uri("a%d" % ((i + 1) % 4)))
    # Mixed numeric datatypes on one predicate.
    g.add(uri("m0"), uri("score"), Literal(7))                      # integer
    g.add(uri("m1"), uri("score"), Literal("7.5", XSD_DECIMAL))     # decimal
    g.add(uri("m2"), uri("score"), Literal(8.0))                    # double
    # A predicate whose objects are not numeric (poisons SUM/AVG).
    g.add(uri("m0"), uri("tag"), Literal("good"))
    g.add(uri("m1"), uri("tag"), Literal("bad"))
    for i in range(4):
        if i != 3:  # a3 has no birthplace: OPTIONAL leaves it unbound
            g.add(uri("a%d" % i), uri("born"), uri("c%d" % (i % 2)))
        g.add(uri("a%d" % i), uri("label"), Literal("Actor %d" % i))
    # A cyclic relation: a transitive tournament, so every three of
    # a0..a3 form a triangle.
    for a, b in ((0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3)):
        g.add(uri("a%d" % a), uri("knows"), uri("a%d" % b))
    ds.add_graph(g)
    return ds


def small_engines(small_dataset):
    return planes(small_dataset)


def row_bag(result):
    """Order-insensitive fingerprint with columns keyed by name."""
    order = sorted(range(len(result.variables)),
                   key=lambda i: result.variables[i])
    return sorted(tuple(repr(row[i]) for i in order) for row in result.rows)


GROUPED_CORPUS = [
    # Index-backed COUNT shapes (single pattern, constant predicate)
    "SELECT ?a (COUNT(?m) AS ?n) WHERE { ?m x:starring ?a } GROUP BY ?a",
    "SELECT ?a (COUNT(DISTINCT ?m) AS ?n) WHERE { ?m x:starring ?a } GROUP BY ?a",
    "SELECT ?m (COUNT(?a) AS ?n) WHERE { ?m x:starring ?a } GROUP BY ?m",
    "SELECT ?a (COUNT(*) AS ?n) WHERE { ?m x:starring ?a } GROUP BY ?a",
    """SELECT ?a (COUNT(?m) AS ?n) WHERE { ?m x:starring ?a }
        GROUP BY ?a HAVING (COUNT(?m) >= 3)""",
    # General streaming hash aggregation over multi-pattern BGPs
    """SELECT ?a (COUNT(?m) AS ?n) (MIN(?y) AS ?lo) (MAX(?y) AS ?hi)
        WHERE { ?m x:starring ?a . ?m x:year ?y } GROUP BY ?a""",
    """SELECT ?a (SUM(?y) AS ?s) (AVG(?y) AS ?mean)
        WHERE { ?m x:starring ?a . ?m x:year ?y } GROUP BY ?a""",
    """SELECT ?a (SAMPLE(?y) AS ?one)
        WHERE { ?m x:starring ?a . ?m x:year ?y } GROUP BY ?a""",
    """SELECT ?a (GROUP_CONCAT(?l) AS ?labels)
        WHERE { ?m x:starring ?a . ?a x:label ?l } GROUP BY ?a""",
    # DISTINCT value aggregates
    """SELECT ?c (COUNT(DISTINCT ?a) AS ?n) (SUM(?y) AS ?s)
        WHERE { ?m x:starring ?a . ?a x:born ?c . ?m x:year ?y }
        GROUP BY ?c""",
    """SELECT ?a (SUM(DISTINCT ?y) AS ?s)
        WHERE { ?m x:starring ?a . ?m x:year ?y } GROUP BY ?a""",
    # Multi-variable grouping keys
    """SELECT ?a ?c (COUNT(?m) AS ?n)
        WHERE { ?m x:starring ?a . ?a x:born ?c } GROUP BY ?a ?c""",
    # Group over OPTIONAL: unbound key and unbound aggregated column
    """SELECT ?c (COUNT(?a) AS ?n)
        WHERE { ?m x:starring ?a OPTIONAL { ?a x:born ?c } } GROUP BY ?c""",
    """SELECT ?a (COUNT(?c) AS ?n) (SAMPLE(?c) AS ?any)
        WHERE { ?m x:starring ?a OPTIONAL { ?a x:born ?c } } GROUP BY ?a""",
    # Complex aggregate expressions (per-row evaluation path)
    """SELECT ?a (SUM(?y - 1990) AS ?s)
        WHERE { ?m x:starring ?a . ?m x:year ?y } GROUP BY ?a""",
    # Implicit single group
    "SELECT (COUNT(*) AS ?n) WHERE { ?m x:starring ?a }",
    "SELECT (COUNT(*) AS ?n) (SUM(?y) AS ?s) WHERE { ?m x:nope ?y }",
    "SELECT (AVG(?y) AS ?mean) WHERE { ?m x:nope ?y }",
    # Poisoned numeric aggregates (non-numeric values -> unbound)
    "SELECT ?m (SUM(?t) AS ?s) WHERE { ?m x:tag ?t } GROUP BY ?m",
    "SELECT (AVG(?t) AS ?mean) WHERE { ?m x:tag ?t }",
    # Aggregation over a subquery (projection narrowing applies)
    """SELECT ?a (COUNT(?m) AS ?n) WHERE {
        { SELECT ?m ?a ?y WHERE { ?m x:starring ?a . ?m x:year ?y } }
    } GROUP BY ?a""",
    # Grouped cyclic BGP (the generic-join shape): keyed and implicit
    """SELECT ?a (COUNT(*) AS ?n) WHERE {
        ?a x:knows ?b . ?b x:knows ?c . ?a x:knows ?c } GROUP BY ?a""",
    """SELECT (COUNT(*) AS ?n) WHERE {
        ?a x:knows ?b . ?b x:knows ?c . ?a x:knows ?c }""",
    # MIN / MAX over IRIs and strings, not only numbers
    """SELECT ?m (MIN(?a) AS ?lo) (MAX(?a) AS ?hi)
        WHERE { ?m x:starring ?a } GROUP BY ?m""",
    """SELECT (MIN(?l) AS ?lo) (MAX(DISTINCT ?l) AS ?hi)
        WHERE { ?a x:label ?l }""",
    # Bounded grouped query: TopK over Group
    """SELECT ?a (COUNT(?m) AS ?n) WHERE { ?m x:starring ?a }
        GROUP BY ?a ORDER BY DESC(?n) ?a LIMIT 3""",
]


@pytest.mark.parametrize("query", GROUPED_CORPUS,
                         ids=range(len(GROUPED_CORPUS)))
def test_grouped_corpus_identical_across_planes(small_dataset, query):
    engines = small_engines(small_dataset)
    results = {plane: engine.query(PFX + query,
                                   default_graph_uri="http://g")
               for plane, engine in engines.items()}
    assert row_bag(results["production"]) == row_bag(results["reference"])


class TestCaseStudyPlanes:
    """The paper's case-study pipelines (which all aggregate) on the
    default engine match the reference plane."""

    @pytest.fixture(params=[cs.key for cs in CASE_STUDIES])
    def case_study(self, request):
        return get_case_study(request.param)

    def test_auto_routing_matches_reference(self, dataset, case_study):
        auto = Engine(dataset)
        reference = Engine(dataset, columnar=False)
        frame = case_study.frame()
        got = auto.query(frame.to_sparql())
        want = reference.query(frame.to_sparql())
        assert row_bag(got) == row_bag(want)


class TestGroupAnnotation:
    def test_default_engine_folds_groups_from_batches(self, dataset):
        engine = Engine(dataset)
        engine.query(COUNT_FILMS, default_graph_uri=DBPEDIA_URI)
        stats = engine.last_stats
        assert stats.groups_built > 0
        assert stats.rows_pulled > 0


class TestIndexBackedCount:
    def test_predicate_objects_hook(self):
        d = TermDictionary()
        g = Graph("http://h", dictionary=d)
        p = uri("p")
        for i in range(3):
            g.add(uri("s"), p, uri("o%d" % i))
        g.add(uri("s2"), p, uri("o0"))
        pid = d.lookup(p)
        name = d.decode
        row = g.predicate_objects(pid)
        assert {str(name(o)): sorted(str(name(s)) for s in subjects)
                for o, subjects in row.items()} \
            == {"http://x/o0": ["http://x/s", "http://x/s2"],
                "http://x/o1": ["http://x/s"], "http://x/o2": ["http://x/s"]}
        # Keys in the first-seen object order of the so_pairs scan.
        assert list(row) == list(dict.fromkeys(o for _, o in g.so_pairs(pid)))
        assert g.predicate_objects(999999) == {}

    @pytest.mark.parametrize("key", ["?s", "?o"])
    def test_union_view_takes_the_general_path(self, key):
        """Over ``FROM <g1> FROM <g2>`` (a union view, no group-count
        index) the COUNT shape folds rows on the general Group path; a
        triple in both graphs counts once, in the reference's order."""
        d = TermDictionary()
        ds = Dataset()
        g1 = Graph("http://u1", dictionary=d)
        g2 = Graph("http://u2", dictionary=d)
        for s, o in [("s1", "o1"), ("s1", "o2"), ("s2", "o1")]:
            g1.add(uri(s), uri("p"), uri(o))
        for s, o in [("s1", "o2"), ("s2", "o3"), ("s3", "o1")]:
            g2.add(uri(s), uri("p"), uri(o))  # (s1 p o2) is in both
        ds.add_graph(g1)
        ds.add_graph(g2)
        engines = planes(ds)
        query = PFX + """SELECT %s (COUNT(*) AS ?n)
            FROM <http://u1> FROM <http://u2>
            WHERE { ?s x:p ?o } GROUP BY %s""" % (key, key)
        rows = {plane: [(str(g), n.value) for g, n in e.query(query).rows]
                for plane, e in engines.items()}
        assert rows["production"] == rows["reference"]
        expected = {"?s": {"http://x/s1": 2, "http://x/s2": 2,
                           "http://x/s3": 1},
                    "?o": {"http://x/o1": 3, "http://x/o2": 1,
                           "http://x/o3": 1}}[key]
        assert dict(rows["production"]) == expected
        assert engines["production"].last_stats.accumulator_rows == 5

    def test_fast_path_touches_no_rows(self, dataset):
        engine = Engine(dataset)
        result = engine.query(COUNT_FILMS, default_graph_uri=DBPEDIA_URI)
        stats = engine.last_stats
        groups = len(result)
        assert groups > 10
        assert stats.pattern_matches == 0      # no index-nested-loop rows
        assert stats.accumulator_rows == 0     # nothing folded
        assert stats.groups_built == groups
        # Only the finished group rows cross stream boundaries
        # (Group output + root projection).
        assert stats.rows_pulled <= 2 * groups

    def test_fast_path_and_general_path_agree_exactly(self, dataset):
        # The same query routed through the fast path (single pattern) and
        # the general hash path (forced by an extra pattern that matches
        # everything the first one does; its variable predicate is no
        # star arm) must name identical counts.
        fast_engine = Engine(dataset)
        fast = fast_engine.query(COUNT_FILMS, default_graph_uri=DBPEDIA_URI)
        assert fast_engine.last_stats.accumulator_rows == 0
        general_q = PFX + """
        SELECT ?actor (COUNT(DISTINCT ?film) AS ?n) WHERE {
            ?film dbpp:starring ?actor .
            ?film ?p ?o .
        } GROUP BY ?actor"""
        general_engine = Engine(dataset)
        general = general_engine.query(general_q,
                                       default_graph_uri=DBPEDIA_URI)
        assert general_engine.last_stats.accumulator_rows > 0
        fast_counts = {repr(a): n.value for a, n in fast.rows}
        general_counts = {repr(a): n.value for a, n in general.rows}
        assert fast_counts == general_counts

    def test_fast_path_disabled_for_repeated_variable(self, small_dataset):
        # ?x p ?x must not take the index shortcut.
        engines = small_engines(small_dataset)
        query = PFX + """SELECT ?x (COUNT(*) AS ?n)
            WHERE { ?x x:starring ?x } GROUP BY ?x"""
        bags = {plane: row_bag(e.query(query, default_graph_uri="http://g"))
                for plane, e in engines.items()}
        assert bags["production"] == bags["reference"]


class TestStarFallback:
    """Every ``Group`` that is not a star keeps the row fold: the shape
    test rejects it at plan time, rows are folded, and the answer is
    the reference's."""

    @pytest.fixture(scope="class")
    def papers(self):
        g = Graph("http://papers", dictionary=TermDictionary())
        for i in range(12):
            paper = uri("paper%d" % i)
            g.add(paper, uri("series"), uri("venue%d" % (i % 3)))
            g.add(paper, uri("year"), Literal(2000 + i % 4))
            for j in range(1 + i % 3):
                g.add(paper, uri("creator"), uri("author%d" % ((i + j) % 5)))
            g.add(paper, uri("editor"), uri("author%d" % (i % 4)))
            g.add(uri("author%d" % (i % 5)), uri("advisor"),
                  uri("author%d" % ((i + 1) % 5)))
        return g

    @pytest.mark.parametrize("query", [
        # FILTER, OPTIONAL and UNION inside
        "SELECT ?a (COUNT(?p) AS ?n) WHERE { ?p x:creator ?a . "
        "?p x:series ?v FILTER(?v != x:venue0) } GROUP BY ?a",
        "SELECT ?a (COUNT(?v) AS ?n) WHERE { ?p x:creator ?a "
        "OPTIONAL { ?p x:series ?v } } GROUP BY ?a",
        "SELECT ?a (COUNT(?p) AS ?n) WHERE { { ?p x:creator ?a } UNION "
        "{ ?p x:editor ?a } } GROUP BY ?a",
        # a variable predicate; a leaf shared by two triples; no centre
        "SELECT ?a (COUNT(?p) AS ?n) WHERE { ?p ?rel ?a } GROUP BY ?a",
        "SELECT ?a (COUNT(?p) AS ?n) WHERE { ?p x:creator ?a . "
        "?p x:editor ?a } GROUP BY ?a",
        "SELECT ?a (COUNT(?d) AS ?n) WHERE { ?a x:advisor ?b . "
        "?b x:advisor ?c . ?c x:advisor ?d } GROUP BY ?a",
        # the centre grouped; both ends of a one-pattern BGP grouped
        "SELECT ?p (COUNT(?a) AS ?n) WHERE { ?p x:creator ?a . "
        "?p x:series ?v } GROUP BY ?p",
        "SELECT ?p ?a (COUNT(*) AS ?n) WHERE { ?p x:creator ?a } "
        "GROUP BY ?p ?a",
        # other aggregates
        "SELECT ?v (SUM(?y) AS ?n) WHERE { ?p x:series ?v . "
        "?p x:year ?y } GROUP BY ?v",
        "SELECT ?v (COUNT(DISTINCT ?a) AS ?n) WHERE { ?p x:series ?v . "
        "?p x:creator ?a } GROUP BY ?v",
        "SELECT ?v (COUNT(STR(?p)) AS ?n) WHERE { ?p x:series ?v } "
        "GROUP BY ?v",
        "SELECT ?v (COUNT(DISTINCT *) AS ?n) WHERE { ?p x:series ?v } "
        "GROUP BY ?v",
    ], ids=["filter", "optional", "union", "variable-predicate",
            "shared-leaf", "chain", "centre-key", "both-keys", "sum",
            "count-distinct-leaf", "count-expression",
            "count-distinct-star"])
    def test_ineligible_shape_folds_rows(self, papers, query):
        engines = planes(papers)
        production = engines["production"]
        assert "count=star" not in production.plan(PFX + query).explain()
        got = production.query(PFX + query)
        assert production.last_stats.accumulator_rows > 0
        assert row_bag(got) == row_bag(engines["reference"].query(
            PFX + query))


class TestHavingReusesSelectAggregate:
    """A HAVING aggregate structurally equal to a SELECT aggregate reads
    the SELECT alias (one fold); any difference keeps its own alias."""

    @pytest.fixture(scope="class")
    def cast_engines(self):
        g = Graph("http://hv")
        cast = {"a1": ["m1", "m2"], "a2": ["m3"], "a3": ["m4", "m5", "m6"]}
        tags = {"m1": ["t1", "t2"], "m2": ["t1"], "m3": ["t1", "t2", "t3"],
                "m4": ["t1"], "m5": ["t1"], "m6": ["t1"]}
        for actor, films in cast.items():
            for film in films:
                g.add(uri(film), uri("starring"), uri(actor))
        for film, names in tags.items():
            for name in names:
                g.add(uri(film), uri("tag"), Literal(name))
        return planes(g)

    def run(self, engines, select, having):
        """Rows per plane as ``{actor: first aggregate}`` plus the
        production plan's Group node."""
        query = PFX + """SELECT ?a %s WHERE { ?m x:starring ?a .
            ?m x:tag ?t } GROUP BY ?a HAVING (%s)""" % (select, having)
        rows = {}
        for plane, engine in engines.items():
            result = engine.query(query)
            rows[plane] = {str(row[0]).rsplit("/", 1)[1]:
                           row[1] if len(row) > 1 else None
                           for row in result.rows}
        group = parse(query).pattern
        while not isinstance(group, alg.Group):
            group = group.pattern
        return rows, group

    def test_equal_aggregate_is_reused(self, cast_engines):
        rows, group = self.run(cast_engines, "(COUNT(DISTINCT ?m) AS ?n)",
                               "COUNT(DISTINCT ?m) >= 2")
        assert len(group.aggregates) == 1
        assert group.having.variables() == ["n"]
        for plane in rows.values():
            assert {a: n.value for a, n in plane.items()} == \
                {"a1": 2, "a3": 3}

    def test_distinct_flag_differs(self, cast_engines):
        rows, group = self.run(cast_engines, "(COUNT(DISTINCT ?m) AS ?n)",
                               "COUNT(?m) > ?n")
        assert len(group.aggregates) == 2
        for plane in rows.values():
            assert {a: n.value for a, n in plane.items()} == \
                {"a1": 2, "a2": 1}

    def test_argument_differs(self, cast_engines):
        rows, group = self.run(cast_engines, "(COUNT(DISTINCT ?m) AS ?n)",
                               "COUNT(DISTINCT ?t) >= 2")
        assert len(group.aggregates) == 2
        for plane in rows.values():
            assert {a: n.value for a, n in plane.items()} == \
                {"a1": 2, "a2": 1}

    def test_separator_differs(self, cast_engines):
        rows, group = self.run(
            cast_engines,
            '(GROUP_CONCAT(DISTINCT ?t ; SEPARATOR=",") AS ?c)',
            'CONTAINS(GROUP_CONCAT(DISTINCT ?t ; SEPARATOR="|"), "|")')
        assert len(group.aggregates) == 2
        for plane in rows.values():
            assert {a: sorted(c.lexical.split(","))
                    for a, c in plane.items()} == \
                {"a1": ["t1", "t2"], "a2": ["t1", "t2", "t3"]}

    def test_having_only_aggregate_gets_its_own_alias(self, cast_engines):
        rows, group = self.run(cast_engines, "",
                               "COUNT(DISTINCT ?m) >= 2 && "
                               "COUNT(DISTINCT ?m) < 3")
        # Both HAVING calls are equal, so they share one synthetic alias.
        assert len(group.aggregates) == 1
        assert group.aggregates[0].alias.startswith("__agg_")
        for plane in rows.values():
            assert plane == {"a1": None}


class TestBoundedBatches:
    def test_high_fanout_group_input_stays_chunked(self):
        # A BGP whose first pattern is tiny but whose join fan-out is huge
        # must still reach the streaming Group in capped batches — the
        # exhaustive breadth-first producer re-chunks at every level, so
        # no single batch materializes the pre-aggregation table.
        from repro.sparql.evaluator import STREAM_BATCH_ROWS

        d = TermDictionary()
        g = Graph("http://fan", dictionary=d)
        for i in range(4):  # 4 seed subjects ...
            s = uri("hub%d" % i)
            g.add(s, uri("kind"), uri("Hub"))
            for j in range(1500):  # ... each fanning out 1500x
                g.add(s, uri("link"), uri("t%d_%d" % (i, j)))
        engine = Engine(g)
        result = engine.query(PFX + """
            SELECT ?h (COUNT(?t) AS ?n) WHERE {
                ?h x:kind x:Hub . ?h x:link ?t .
            } GROUP BY ?h""")
        stats = engine.last_stats
        assert sorted(n.value for _, n in result.rows) == [1500] * 4
        assert stats.accumulator_rows == 6000  # general hash path ran
        assert stats.peak_batch_rows <= STREAM_BATCH_ROWS


class TestCountDistinctStar:
    def test_counts_distinct_solutions_on_all_planes(self):
        # s1,s2 -> o1 and s3 -> o2: the subquery projects ?o, so the
        # outer pattern sees 3 rows but only 2 distinct solutions.
        d = TermDictionary()
        g = Graph("http://cds", dictionary=d)
        g.add(uri("s1"), uri("p"), uri("o1"))
        g.add(uri("s2"), uri("p"), uri("o1"))
        g.add(uri("s3"), uri("p"), uri("o2"))
        query = PFX + """SELECT (COUNT(DISTINCT *) AS ?n) WHERE {
            { SELECT ?o WHERE { ?s x:p ?o } } }"""
        plain = PFX + """SELECT (COUNT(*) AS ?n) WHERE {
            { SELECT ?o WHERE { ?s x:p ?o } } }"""
        for engine in planes(g).values():
            assert engine.query(query).rows[0][0].value == 2
            assert engine.query(plain).rows[0][0].value == 3


class TestFastPathSafetyValves:
    def test_max_rows_trips_mid_sweep(self):
        d = TermDictionary()
        g = Graph("http://valve", dictionary=d)
        for i in range(200):  # 200 groups, budget of 50
            g.add(uri("s%d" % i), uri("p"), uri("o%d" % i))
        from repro.sparql.evaluator import EvaluationError

        engine = Engine(g, max_intermediate_rows=50)
        with pytest.raises(EvaluationError, match="max_rows"):
            engine.query(PFX + """SELECT ?s (COUNT(?o) AS ?n)
                WHERE { ?s x:p ?o } GROUP BY ?s""")

    @pytest.mark.parametrize("valve", ["deadline", "cancel"])
    def test_deadline_or_cancel_mid_star_abandons_it(self, valve):
        """3000 papers of two authors: the star checks the valves after
        every 1024 centres, so a valve that fires at the second check
        stops it there, a third of the way through."""
        import time
        from repro.sparql import Evaluator
        from repro.sparql.errors import CancelToken, QueryCancelled
        from repro.sparql.evaluator import QueryTimeout

        g = Graph("http://valve", dictionary=TermDictionary())
        for i in range(3000):
            g.add(uri("paper%d" % i), uri("creator"), uri("a%d" % (i % 7)))
            g.add(uri("paper%d" % i), uri("creator"), uri("b%d" % (i % 5)))
        plan = Engine(g).plan(PFX + """SELECT ?a1 ?a2 (COUNT(?p) AS ?n)
            WHERE { ?p x:creator ?a1 . ?p x:creator ?a2 }
            GROUP BY ?a1 ?a2""")
        assert "[count=star ?p]" in plan.explain()
        token = CancelToken()
        evaluator = Evaluator(Dataset(), cancel=token)
        evaluator.dataset.add_graph(g)
        checks = []
        check = evaluator._check_valves

        def counting_check(produced, where):
            if where == "mid-star":
                checks.append(where)
                if len(checks) == 2 and valve == "cancel":
                    token.cancel()
                elif len(checks) == 2:
                    evaluator.deadline = time.perf_counter() - 1.0
            check(produced, where)

        evaluator._check_valves = counting_check
        if valve == "cancel":
            trips = pytest.raises(QueryCancelled)
        else:
            trips = pytest.raises(QueryTimeout, match="mid-star")
        with trips:
            evaluator.evaluate_plan_stream(plan)
        assert len(checks) == 2


class TestTopKGroups:
    QUERY = COUNT_FILMS + " ORDER BY DESC(?n) ?actor LIMIT 10"

    def test_bounded_grouped_query_identical(self, engines):
        # The order is total (count, then actor), so every plane returns
        # the same rows in the same order.
        streamed = engines["production"].query(
            self.QUERY, default_graph_uri=DBPEDIA_URI)
        assert engines["reference"].query(
            self.QUERY, default_graph_uri=DBPEDIA_URI).rows == streamed.rows
        assert len(streamed) == 10
        # The heap keeps the true top groups: counts are non-increasing.
        counts = [row[1].value for row in streamed.rows]
        assert counts == sorted(counts, reverse=True)

    def test_plan_fuses_into_topk_over_group(self, dataset):
        from repro.sparql import algebra as alg

        plan = Engine(dataset).plan(self.QUERY,
                                    default_graph_uri=DBPEDIA_URI)
        node = plan.query.pattern
        while not isinstance(node, alg.TopK):
            node = node.pattern
        assert isinstance(node.pattern, alg.Group)


class TestAggregatePushdownPass:
    def test_pre_group_projection_narrowed(self):
        from repro.rdf.terms import Variable
        from repro.sparql import algebra as alg
        from repro.sparql.expressions import VarExpr
        from repro.sparql.plan import aggregate_pushdown

        bgp = alg.BGP([(Variable("m"), uri("starring"), Variable("a")),
                       (Variable("m"), uri("year"), Variable("y"))])
        wide = alg.Project(bgp, ["m", "a", "y"])
        group = alg.Group(wide, ["a"],
                          [alg.Aggregate("count", VarExpr("m"), "n")])
        node, changes = aggregate_pushdown(alg.Project(group, ["a", "n"]))
        assert changes == 1
        narrowed = node.pattern.pattern
        assert isinstance(narrowed, alg.Project)
        assert narrowed.variables == ["m", "a"]  # ?y pruned, order kept

    def test_noop_when_all_columns_needed(self):
        from repro.rdf.terms import Variable
        from repro.sparql import algebra as alg
        from repro.sparql.expressions import VarExpr
        from repro.sparql.plan import aggregate_pushdown

        bgp = alg.BGP([(Variable("m"), uri("starring"), Variable("a"))])
        group = alg.Group(alg.Project(bgp, ["m", "a"]), ["a"],
                          [alg.Aggregate("count", VarExpr("m"), "n")])
        _, changes = aggregate_pushdown(group)
        assert changes == 0

    def test_narrowing_preserves_results(self, small_dataset):
        engines = small_engines(small_dataset)
        query = PFX + """SELECT ?a (COUNT(?m) AS ?n) WHERE {
            { SELECT ?m ?a ?y ?t WHERE {
                ?m x:starring ?a . ?m x:year ?y . ?m x:type ?t } }
        } GROUP BY ?a"""
        bags = {plane: row_bag(e.query(query, default_graph_uri="http://g"))
                for plane, e in engines.items()}
        assert bags["production"] == bags["reference"]


class TestGroupConcatSeparator:
    """Regression: GROUP_CONCAT's SEPARATOR modifier (previously a parse
    error; the default separator was untested)."""

    @pytest.fixture()
    def label_engines(self):
        d = TermDictionary()
        g = Graph("http://gc", dictionary=d)
        s = uri("s")
        for name in ("alpha", "beta", "gamma"):
            g.add(s, uri("tag"), Literal(name))
        g.add(uri("s2"), uri("tag"), Literal("solo"))
        return planes(g)

    def planes(self, label_engines, query):
        out = {}
        for plane, engine in label_engines.items():
            result = engine.query(PFX + query)
            out[plane] = {str(row[0]): row[1] for row in result.rows}
        assert out["production"] == out["reference"]
        return out["production"]

    def test_default_separator_is_single_space(self, label_engines):
        rows = self.planes(label_engines, """
            SELECT ?s (GROUP_CONCAT(?t) AS ?c)
            WHERE { ?s x:tag ?t } GROUP BY ?s""")
        parts = sorted(rows["http://x/s"].lexical.split(" "))
        assert parts == ["alpha", "beta", "gamma"]
        assert rows["http://x/s2"].lexical == "solo"

    def test_custom_separator(self, label_engines):
        rows = self.planes(label_engines, """
            SELECT ?s (GROUP_CONCAT(?t ; SEPARATOR=", ") AS ?c)
            WHERE { ?s x:tag ?t } GROUP BY ?s""")
        parts = sorted(rows["http://x/s"].lexical.split(", "))
        assert parts == ["alpha", "beta", "gamma"]
        assert ", " in rows["http://x/s"].lexical

    def test_distinct_with_separator(self, label_engines):
        rows = self.planes(label_engines, """
            SELECT ?s (GROUP_CONCAT(DISTINCT ?t ; SEPARATOR="|") AS ?c)
            WHERE { ?s x:tag ?t } GROUP BY ?s""")
        assert sorted(rows["http://x/s"].lexical.split("|")) == \
            ["alpha", "beta", "gamma"]

    def test_separator_round_trips_through_algebra(self):
        from repro.sparql.parser import parse

        query = parse(PFX + """
            SELECT ?s (GROUP_CONCAT(?t ; SEPARATOR="; ") AS ?c)
            WHERE { ?s x:tag ?t } GROUP BY ?s""")
        node = query.pattern
        while not hasattr(node, "aggregates"):
            node = node.pattern
        aggregate = node.aggregates[0]
        assert aggregate.separator == "; "
        assert 'SEPARATOR="; "' in aggregate.sparql()

    @pytest.mark.parametrize("separator,spelling", [
        ("\n\t", r"\n\t"),
        ("\\n", r"\\n"),      # literal backslash then 'n' — not a newline
        ("a\\tb", r"a\\tb"),  # literal backslash mid-string
        ('"|"', r'\"|\"'),
    ])
    def test_separator_escapes_round_trip(self, separator, spelling):
        from repro.sparql.parser import parse

        def first_aggregate(query):
            node = query.pattern
            while not hasattr(node, "aggregates"):
                node = node.pattern
            return node.aggregates[0]

        query = parse(PFX + """
            SELECT ?s (GROUP_CONCAT(?t ; SEPARATOR="%s") AS ?c)
            WHERE { ?s x:tag ?t } GROUP BY ?s""" % spelling)
        aggregate = first_aggregate(query)
        assert aggregate.separator == separator
        # The rendered form re-escapes, so render -> parse is exact (a
        # raw newline inside the quotes would not even tokenize).
        rendered = aggregate.sparql()
        assert "\n" not in rendered
        reparsed = parse(PFX + """
            SELECT %s WHERE { ?s x:tag ?t } GROUP BY ?s""" % rendered)
        assert first_aggregate(reparsed).separator == separator

    def test_separator_rejected_outside_group_concat(self):
        from repro.sparql.parser import ParseError, parse

        with pytest.raises(ParseError):
            parse(PFX + """SELECT (COUNT(?t ; SEPARATOR=",") AS ?c)
                WHERE { ?s x:tag ?t }""")


class TestNumericAggregateTyping:
    """Regression: AVG/SUM datatype promotion over mixed int/decimal
    columns (previously AVG always produced xsd:double)."""

    @pytest.fixture()
    def score_engines(self):
        d = TermDictionary()
        g = Graph("http://num", dictionary=d)
        g.add(uri("intonly"), uri("v"), Literal(2))
        g.add(uri("intonly"), uri("v"), Literal(4))
        g.add(uri("mixed"), uri("v"), Literal(1))
        g.add(uri("mixed"), uri("v"), Literal("2.5", XSD_DECIMAL))
        g.add(uri("double"), uri("v"), Literal(1))
        g.add(uri("double"), uri("v"), Literal(3.0))
        return planes(g)

    def agg(self, score_engines, call):
        query = PFX + """SELECT ?s (%s AS ?r)
            WHERE { ?s x:v ?n } GROUP BY ?s""" % call
        out = {}
        for plane, engine in score_engines.items():
            result = engine.query(query)
            out[plane] = {str(row[0]).rsplit("/", 1)[1]: row[1]
                          for row in result.rows}
        assert out["production"] == out["reference"]
        return out["production"]

    def test_avg_int_and_mixed_are_decimal(self, score_engines):
        means = self.agg(score_engines, "AVG(?n)")
        assert means["intonly"].datatype == XSD_DECIMAL
        assert means["intonly"].value == 3
        assert means["mixed"].datatype == XSD_DECIMAL
        assert means["mixed"].value == 1.75
        # A double operand still promotes all the way to double.
        assert means["double"].datatype == XSD_DOUBLE
        assert means["double"].value == 2.0

    def test_sum_promotion(self, score_engines):
        sums = self.agg(score_engines, "SUM(?n)")
        assert sums["intonly"].datatype == XSD_INTEGER
        assert sums["intonly"].value == 6
        assert sums["mixed"].datatype == XSD_DECIMAL
        assert sums["mixed"].value == 3.5
        assert sums["double"].datatype == XSD_DOUBLE
        assert sums["double"].value == 4.0

    def test_tiny_decimal_avg_has_plain_lexical(self):
        # repr(1e-05) is exponent notation, which xsd:decimal forbids:
        # the promoted lexical must be expanded to plain form.
        d = TermDictionary()
        g = Graph("http://tiny", dictionary=d)
        g.add(uri("s"), uri("v"), Literal("0.00001", XSD_DECIMAL))
        g.add(uri("s"), uri("v"), Literal("0.00003", XSD_DECIMAL))
        results = {}
        for plane, engine in planes(g).items():
            row = engine.query(
                PFX + "SELECT (AVG(?n) AS ?m) WHERE { ?s x:v ?n }").rows[0]
            results[plane] = row[0]
        assert results["production"] == results["reference"]
        mean = results["production"]
        assert mean.datatype == XSD_DECIMAL
        assert mean.value == 2e-05
        assert "e" not in mean.lexical.lower()

    def test_avg_runtime_identical_on_synthetic_graph(self, engines):
        results = {plane: engine.query(AVG_RUNTIME,
                                       default_graph_uri=DBPEDIA_URI)
                   for plane, engine in engines.items()}
        assert row_bag(results["production"]) \
            == row_bag(results["reference"])
        for row in results["production"].rows:
            assert row[1].datatype == XSD_DECIMAL  # ints averaged


class TestMinMaxReturnInputTerms:
    """Regression: MIN/MAX returned unbound as soon as one value was not
    numeric (dates, strings, IRIs), and re-typed the numbers they did
    return (``"1.5"^^xsd:decimal`` came back as an ``xsd:double``).  They
    now return the winning *input term*, ordered like ``ORDER BY``, with
    ties broken by ``n3()`` so every plane picks the same term."""

    @pytest.fixture()
    def value_engines(self):
        g = Graph("http://mm", dictionary=TermDictionary())
        for name, values in (
                ("dec", [Literal("1.5", XSD_DECIMAL),
                         Literal("2.5", XSD_DECIMAL), Literal(3)]),
                ("dates", [Literal("2001-05-01", XSD_DATE),
                           Literal("1999-12-31", XSD_DATE)]),
                ("iris", [uri("b"), uri("a")]),
                ("mixed", [Literal(7), Literal("seven")]),
                ("tie", [Literal(1), Literal("1.0", XSD_DECIMAL)])):
            for value in values:
                g.add(uri(name), uri("v"), value)
        return planes(g)

    def extremes(self, value_engines, function):
        query = PFX + """SELECT ?s (%s(?v) AS ?r)
            WHERE { ?s x:v ?v } GROUP BY ?s""" % function
        out = {}
        for plane, engine in value_engines.items():
            out[plane] = {str(row[0]).rsplit("/", 1)[1]: row[1]
                          for row in engine.query(query).rows}
        assert out["production"] == out["reference"]
        return out["production"]

    def test_min(self, value_engines):
        low = self.extremes(value_engines, "MIN")
        assert low["dec"] == Literal("1.5", XSD_DECIMAL)
        assert low["dec"].datatype == XSD_DECIMAL
        assert low["dates"] == Literal("1999-12-31", XSD_DATE)
        assert low["iris"] == uri("a")
        assert low["mixed"] == Literal(7)  # numbers order before strings
        assert low["tie"] == Literal(1)  # equal values: the smaller n3()

    def test_max(self, value_engines):
        high = self.extremes(value_engines, "MAX")
        assert high["dec"] == Literal(3)
        assert high["dates"] == Literal("2001-05-01", XSD_DATE)
        assert high["iris"] == uri("b")
        assert high["mixed"] == Literal("seven")
        assert high["tie"] == Literal("1.0", XSD_DECIMAL)

    def test_implicit_group_keeps_the_decimal(self, value_engines):
        query = PFX + """SELECT (MIN(?v) AS ?m)
            WHERE { x:dec x:v ?v }"""
        for plane, engine in value_engines.items():
            (cell,), = engine.query(query).rows
            assert cell == Literal("1.5", XSD_DECIMAL), plane

    def test_latest_paper_per_author_through_rdfframe(self, dataset):
        graph = dataset.graph(DBLP_URI)
        latest = {}
        for paper, _, _ in graph.triples(None, RDF.type, SWRC.InProceedings):
            for _, _, date in graph.triples(paper, DCTERMS.issued, None):
                for _, _, author in graph.triples(paper, DC.creator, None):
                    if str(author) not in latest \
                            or date.lexical > latest[str(author)]:
                        latest[str(author)] = date.lexical
        assert len(latest) > 50
        frame = (KnowledgeGraph(graph_uri=DBLP_URI)
                 .entities("swrc:InProceedings", "paper")
                 .expand("paper", [("dc:creator", "author"),
                                   ("dcterm:issued", "date")])
                 .group_by(["author"]).max("date", "latest"))
        engine = Engine(dataset)
        for client in (EngineClient(engine),
                       EngineClient(Engine(dataset, columnar=False))):
            assert dict(frame.execute(client).to_records()) == latest
        result = engine.query(frame.to_sparql())
        assert {str(author): date.lexical
                for author, date in result.rows} == latest
