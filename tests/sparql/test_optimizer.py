"""Unit tests for BGP join-order optimization."""

import pytest

from repro.rdf import Graph, Literal, URIRef, Variable
from repro.sparql import Engine
from repro.sparql.optimizer import GraphStatistics, order_patterns

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
# fallback-memo invalidation, run signatures
# ----------------------------------------------------------------------

from repro.rdf import Graph as _Graph  # noqa: E402
from repro.sparql.optimizer import run_signature  # noqa: E402


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


class _ProfileLessGraph:
    """A graph-like without predicate_profile: the statistics fallback."""

    def __init__(self):
        self._graph = _Graph("urn:fallback-target")

    def add(self, s, p, o):
        self._graph.add(s, p, o)

    def __len__(self):
        return len(self._graph)

    def count(self, *args):
        return self._graph.count(*args)

    def triples(self, s=None, p=None, o=None):
        return self._graph.triples(s, p, o)


class TestFallbackMemoInvalidation:
    def test_mutation_refreshes_fallback_stats(self):
        target = _ProfileLessGraph()
        p = uri("p")
        target.add(uri("s0"), p, uri("o0"))
        stats = GraphStatistics(target)
        pattern = (Variable("s"), p, Variable("o"))
        assert stats.estimate(pattern, set()) == 1
        for i in range(1, 5):
            target.add(uri("s%d" % i), p, uri("o%d" % i))
        # The memo must notice the graph changed underneath it.
        assert stats.estimate(pattern, set()) == 5

    def test_unchanged_graph_reuses_memo(self):
        target = _ProfileLessGraph()
        p = uri("p")
        target.add(uri("s0"), p, uri("o0"))
        stats = GraphStatistics(target)
        pattern = (Variable("s"), p, Variable("o"))
        stats.estimate(pattern, set())
        scans = dict(stats._by_predicate)
        stats.estimate(pattern, set())
        assert stats._by_predicate == scans  # same memo, no rescan


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
