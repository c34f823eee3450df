"""Unit tests for BGP join-order optimization."""

import pytest

from repro.rdf import Graph, Literal, URIRef, Variable
from repro.sparql import Engine
from repro.sparql.optimizer import (GraphStatistics, Intersect, Match,
                                    bgp_program, order_patterns)

from plan_variants import run_variant


def uri(name):
    return URIRef("http://x/" + name)


@pytest.fixture
def skewed_graph():
    """A graph where 'common' has 1000 triples and 'rare' has 2."""
    g = Graph("http://g")
    for i in range(1000):
        g.add(uri("s%d" % i), uri("common"), uri("o%d" % (i % 10)))
    g.add(uri("s0"), uri("rare"), uri("r0"))
    g.add(uri("s1"), uri("rare"), uri("r1"))
    return g


class TestEstimates:
    def test_concrete_predicate_cardinality(self, skewed_graph):
        stats = GraphStatistics(skewed_graph)
        common = (Variable("s"), uri("common"), Variable("o"))
        rare = (Variable("s"), uri("rare"), Variable("o"))
        assert stats.estimate(common, set()) == 1000
        assert stats.estimate(rare, set()) == 2

    def test_bound_subject_shrinks_estimate(self, skewed_graph):
        stats = GraphStatistics(skewed_graph)
        pattern = (Variable("s"), uri("common"), Variable("o"))
        unbound = stats.estimate(pattern, set())
        bound = stats.estimate(pattern, {"s"})
        assert bound < unbound

    def test_missing_predicate_estimates_zero(self, skewed_graph):
        stats = GraphStatistics(skewed_graph)
        pattern = (Variable("s"), uri("absent"), Variable("o"))
        assert stats.estimate(pattern, set()) == 0

    def test_variable_predicate_is_expensive(self, skewed_graph):
        stats = GraphStatistics(skewed_graph)
        pattern = (Variable("s"), Variable("p"), Variable("o"))
        assert stats.estimate(pattern, set()) >= 1000


class TestOrdering:
    def test_rare_pattern_first(self, skewed_graph):
        stats = GraphStatistics(skewed_graph)
        patterns = [
            (Variable("s"), uri("common"), Variable("o")),
            (Variable("s"), uri("rare"), Variable("r")),
        ]
        ordered = order_patterns(patterns, stats)
        assert ordered[0][1] == uri("rare")

    def test_connected_patterns_preferred(self, skewed_graph):
        # A disconnected cheap pattern must not jump ahead of a connected one.
        stats = GraphStatistics(skewed_graph)
        patterns = [
            (Variable("s"), uri("rare"), Variable("r")),
            (Variable("s"), uri("common"), Variable("o")),
            (Variable("x"), uri("rare"), Variable("y")),  # disconnected
        ]
        ordered = order_patterns(patterns, stats)
        assert ordered[1] == patterns[1]

    def test_order_preserves_multiset(self, skewed_graph):
        stats = GraphStatistics(skewed_graph)
        patterns = [
            (Variable("a"), uri("common"), Variable("b")),
            (Variable("b"), uri("rare"), Variable("c")),
            (Variable("c"), uri("common"), Variable("d")),
        ]
        ordered = order_patterns(patterns, stats)
        assert sorted(map(repr, ordered)) == sorted(map(repr, patterns))


class TestEndToEndEffect:
    """The planned engine against the same query planned without graph
    statistics (textual pattern order, a private plan copy)."""

    QUERY = """PREFIX x: <http://x/>
    SELECT ?s ?o ?r WHERE { ?s x:common ?o . ?s x:rare ?r }"""

    def test_optimized_fewer_matches_than_unoptimized(self, skewed_graph):
        optimized = Engine(skewed_graph)
        r1 = optimized.query(self.QUERY)
        r2, baseline = run_variant(optimized, self.QUERY, ordered=False)
        assert sorted(map(repr, r1.rows)) == sorted(map(repr, r2.rows))
        assert optimized.last_stats.pattern_matches \
            < baseline.pattern_matches

    def test_same_results_regardless_of_optimization(self, skewed_graph):
        engine = Engine(skewed_graph)
        a = engine.query(self.QUERY).to_dataframe()
        b = run_variant(engine, self.QUERY, ordered=False)[0].to_dataframe()
        assert a.equals_bag(b)


# ----------------------------------------------------------------------
# Satellite regressions: estimate memoization, deterministic ties,
# planning without scans, run signatures
# ----------------------------------------------------------------------

from repro.data import DBPEDIA_URI, YAGO_URI, build_dataset  # noqa: E402
from repro.rdf import Dataset, GraphUnion  # noqa: E402
from repro.sparql.optimizer import run_signature  # noqa: E402
from repro.workload import get_query  # noqa: E402


class _CountingStats(GraphStatistics):
    """GraphStatistics that counts estimate() calls."""

    def __init__(self, graph):
        super().__init__(graph)
        self.calls = 0

    def estimate(self, pattern, bound):
        self.calls += 1
        return super().estimate(pattern, bound)


class TestOrderingSatellites:
    def test_estimates_memoized_within_one_call(self, skewed_graph):
        stats = _CountingStats(skewed_graph)
        patterns = [(Variable("s"), uri("common"), Variable("o%d" % i))
                    for i in range(6)]
        order_patterns(patterns, stats)
        # One estimate per (pattern, fixedness) combination: each pattern
        # is seen unfixed once and subject-fixed once — not O(n^2).
        assert stats.calls <= 2 * len(patterns)

    def test_ties_break_on_canonical_text_not_input_order(self, skewed_graph):
        stats = GraphStatistics(skewed_graph)
        # Identical estimates: ties break on the pattern's canonical text,
        # so the chosen order is a pure function of the pattern *set* —
        # reversing the input must not change it (self-join BGPs tie on
        # every round, and the wcoj/nested-loop gate compares costs
        # derived from this order).
        patterns = [(Variable("s"), uri("common"), Variable("o1")),
                    (Variable("s"), uri("common"), Variable("o2")),
                    (Variable("s"), uri("common"), Variable("o3"))]
        assert order_patterns(patterns, stats) == patterns
        assert order_patterns(list(reversed(patterns)), stats) == patterns

    def test_pinned_order_on_skewed_graph(self, skewed_graph):
        stats = GraphStatistics(skewed_graph)
        common = (Variable("s"), uri("common"), Variable("o"))
        rare = (Variable("s"), uri("rare"), Variable("r"))
        bound_obj = (Variable("s"), uri("common"), uri("o0"))
        # rare (2) < bound common (100) < free common (1000) — pinned.
        assert order_patterns([common, rare, bound_obj], stats) \
            == [rare, bound_obj, common]


class TestPlanningReadsNoTriples:
    """Statistics come from synopses and sizes: planning a query over a
    multi-graph union must not iterate a single triple."""

    @pytest.fixture
    def two_graphs(self):
        full = build_dataset(scale=0.02, seed=42)
        dataset = Dataset()
        for graph_uri in (DBPEDIA_URI, YAGO_URI):
            dataset.add_graph(full.graph(graph_uri))
        return dataset

    @pytest.fixture
    def statistics_built(self, monkeypatch):
        """Refuse every triple scan; return the graphs statistics objects
        are built on."""
        def refuse(self, *args, **kwargs):
            raise AssertionError("planning iterated triples")
        monkeypatch.setattr(Graph, "triples_ids", refuse)
        monkeypatch.setattr(GraphUnion, "triples_ids", refuse)
        built = []
        real_init = GraphStatistics.__init__

        def spy(self, graph):
            built.append(graph)
            real_init(self, graph)
        monkeypatch.setattr(GraphStatistics, "__init__", spy)
        return built

    @pytest.mark.parametrize("qid", ["Q4", "Q11"])
    def test_union_plans_without_scanning(self, two_graphs,
                                          statistics_built, qid):
        text = get_query(qid).frame().to_sparql()
        without_from = "\n".join(line for line in text.splitlines()
                                  if not line.startswith("FROM "))
        assert without_from != text
        engine = Engine(two_graphs)
        for source in (text, without_from):
            statistics_built.clear()
            assert "est_rows=" in engine.plan(source).explain()
            assert any(isinstance(g, GraphUnion) and len(g.graphs) == 2
                       for g in statistics_built)
            # One statistics object per graph for the whole plan.
            assert len({id(g) for g in statistics_built}) \
                == len(statistics_built)

    def test_union_size_is_member_sum(self):
        a, b = Graph("urn:a"), Graph("urn:b")
        p = uri("p")
        for graph in (a, b):
            graph.add(uri("s0"), p, uri("o0"))  # in both members
        b.add(uri("s1"), p, uri("o1"))
        union = GraphUnion([a, b])
        assert len(union) == 3 and union.count() == 2
        stats = GraphStatistics(union)
        anything = (Variable("s"), Variable("p"), Variable("o"))
        assert stats.estimate(anything, set()) == len(union)
        assert stats.predicate_cardinality(p) == 3


class TestRunSignatures:
    def test_signature_shapes(self):
        p = uri("p")
        s, o, w = Variable("s"), Variable("o"), Variable("w")
        # candidate at subject, object concrete: consumed subjects run
        sig, consumed = run_signature((s, p, uri("k")), "s", set())
        assert sig == ("subjects", p, uri("k")) and consumed
        # candidate at subject, object bound per row
        sig, consumed = run_signature((s, p, o), "s", {"o"})
        assert sig == ("subjects", p, ("?", "o")) and consumed
        # candidate at subject, object free: presence run, not consumed
        sig, consumed = run_signature((s, p, o), "s", set())
        assert sig == ("psubjects", p) and not consumed
        # candidate at object with bound subject
        sig, consumed = run_signature((s, p, o), "o", {"s"})
        assert sig == ("objects", p, ("?", "s")) and consumed
        # candidate at object with free subject: no run exists
        assert run_signature((s, p, o), "o", set()) == (None, False)
        # variable predicate or repeated candidate: no contribution
        assert run_signature((s, Variable("p"), o), "s", set()) \
            == (None, False)
        assert run_signature((s, p, s), "s", set()) == (None, False)


class TestBgpProgram:
    """``bgp_program`` is the one place a BGP's steps are decided."""

    def test_worthwhile_head_variable_is_intersected(self, skewed_graph):
        s = Variable("s")
        first = (s, uri("common"), uri("o0"))
        second = (s, uri("common"), uri("o1"))
        program = bgp_program([first, second], GraphStatistics(skewed_graph))
        assert program == (Intersect("s", (
            ("subjects", uri("common"), uri("o0")),
            ("subjects", uri("common"), uri("o1"))), (first, second)),)

    def test_presence_runs_alone_keep_nested_loop(self, skewed_graph):
        # Neither run would consume a pattern: match in order.
        rare = (Variable("s"), uri("rare"), Variable("r"))
        common = (Variable("s"), uri("common"), Variable("o"))
        program = bgp_program([rare, common], GraphStatistics(skewed_graph))
        assert program == (Match(rare), Match(common))

    def test_elimination_levels(self, skewed_graph):
        a, b = Variable("a"), Variable("b")
        star = (a, uri("p"), uri("k"))
        edge = (a, uri("q"), b)
        stats = GraphStatistics(skewed_graph)
        level_a = Intersect("a", (("subjects", uri("p"), uri("k")),
                                  ("psubjects", uri("q"))), (star,),
                            level=True)
        # ?b's only run is the pattern's own match set: a plain probe.
        assert bgp_program([star, edge], stats, ("a", "b")) \
            == (level_a, Match(edge, level=True))
        # A variable outside the order is bound by a trailing match.
        assert bgp_program([star, edge], stats, ("a",)) \
            == (level_a, Match(edge))
