"""Unit tests for dictionary encoding and the id-keyed graph statistics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import (Dataset, Graph, Literal, TermDictionary, URIRef,
                       shared_dictionary)

import termzoo


def uri(name):
    return URIRef("http://x/" + name)


class TestTermDictionary:
    def test_encode_is_stable(self):
        d = TermDictionary()
        a = d.encode(uri("a"))
        assert d.encode(uri("a")) == a  # same value object -> same id
        assert d.encode(URIRef("http://x/a")) == a  # equality, not identity

    def test_ids_are_dense(self):
        d = TermDictionary()
        ids = [d.encode(uri("n%d" % i)) for i in range(5)]
        assert ids == [0, 1, 2, 3, 4]
        assert len(d) == 5

    @settings(max_examples=200, deadline=None)
    @given(st.lists(termzoo.terms, max_size=8))
    def test_decode_roundtrip(self, terms):
        d = TermDictionary()
        ids = [d.encode(t) for t in terms]
        assert [d.decode(i) for i in ids] == terms
        assert len(set(ids)) == len(set(terms))

    def test_lookup_does_not_intern(self):
        d = TermDictionary()
        assert d.lookup(uri("never-seen")) is None
        assert len(d) == 0

    def test_distinct_terms_distinct_ids(self):
        d = TermDictionary()
        assert d.encode(Literal("1")) != d.encode(Literal(1))  # typed differs

    def test_decode_many_preserves_none(self):
        d = TermDictionary()
        a = d.encode(uri("a"))
        assert d.decode_many([a, None, a]) == [uri("a"), None, uri("a")]


class TestGraphEncoding:
    def test_graphs_share_the_process_dictionary_by_default(self):
        g1, g2 = Graph("http://g1"), Graph("http://g2")
        assert g1.dictionary is g2.dictionary is shared_dictionary()
        g1.add(uri("e"), uri("p"), uri("v"))
        # The same term must map to the same id from the other graph.
        assert g2.dictionary.lookup(uri("e")) == \
            g1.dictionary.lookup(uri("e"))

    def test_private_dictionary_possible(self):
        d = TermDictionary()
        g = Graph("http://g", dictionary=d)
        g.add(uri("e"), uri("p"), uri("v"))
        assert len(d) == 3
        assert list(g.triples()) == [(uri("e"), uri("p"), uri("v"))]

    def test_triples_ids_match_decoded_triples(self):
        d = TermDictionary()
        g = Graph("http://g", dictionary=d)
        g.add(uri("a"), uri("p"), uri("b"))
        g.add(uri("a"), uri("p"), Literal(7))
        decoded = {tuple(d.decode(i) for i in t) for t in g.triples_ids()}
        assert decoded == set(g.triples())

    def test_unknown_term_matches_nothing(self):
        g = Graph("http://g", dictionary=TermDictionary())
        g.add(uri("a"), uri("p"), uri("b"))
        assert list(g.triples(uri("zzz"), None, None)) == []
        assert g.count(None, uri("zzz"), None) == 0
        assert (uri("zzz"), uri("p"), uri("b")) not in g

    def test_dataset_rejects_mixed_dictionaries(self):
        ds = Dataset()
        ds.add_graph(Graph("http://g1", dictionary=TermDictionary()))
        with pytest.raises(ValueError):
            ds.add_graph(Graph("http://g2", dictionary=TermDictionary()))

    def test_dataset_create_graph_inherits_dictionary(self):
        ds = Dataset()
        d = TermDictionary()
        ds.add_graph(Graph("http://g1", dictionary=d))
        assert ds.create_graph("http://g2").dictionary is d


class TestPredicateProfile:
    @pytest.fixture
    def graph(self):
        g = Graph("http://g", dictionary=TermDictionary())
        g.add(uri("s1"), uri("p"), uri("o1"))
        g.add(uri("s1"), uri("p"), uri("o2"))
        g.add(uri("s2"), uri("p"), uri("o1"))
        g.add(uri("s1"), uri("q"), uri("o3"))
        return g

    def test_profile_values(self, graph):
        assert graph.predicate_profile(uri("p")) == (3, 2, 2)
        assert graph.predicate_profile(uri("q")) == (1, 1, 1)
        assert graph.predicate_profile(uri("absent")) == (0, 0, 0)

    def test_profile_is_memoized(self, graph):
        first = graph.predicate_profile(uri("p"))
        assert graph.predicate_profile(uri("p")) is first  # cached tuple

    def test_profile_invalidated_by_add(self, graph):
        graph.predicate_profile(uri("p"))
        graph.add(uri("s3"), uri("p"), uri("o9"))
        assert graph.predicate_profile(uri("p")) == (4, 3, 3)

    def test_profile_invalidated_by_remove(self, graph):
        graph.predicate_profile(uri("p"))
        graph.remove(uri("s2"), uri("p"), uri("o1"))
        assert graph.predicate_profile(uri("p")) == (2, 1, 2)

    def test_other_predicates_keep_cache_on_mutation(self, graph):
        q_profile = graph.predicate_profile(uri("q"))
        graph.add(uri("s3"), uri("p"), uri("o9"))
        assert graph.predicate_profile(uri("q")) is q_profile

    def test_union_profile_aggregates(self, graph):
        g2 = Graph("http://g2", dictionary=graph.dictionary)
        g2.add(uri("z1"), uri("p"), uri("o1"))
        ds = Dataset()
        ds.add_graph(graph)
        ds.add_graph(g2)
        pid = graph.dictionary.lookup(uri("p"))
        assert ds.union_view().predicate_synopsis(pid)[:3] == (4, 3, 3)


class TestPredicateSynopsis:
    """The synopsis is all the optimizer reads: its exact figures, its
    memo and its invalidation."""

    @pytest.fixture
    def graph(self):
        g = Graph("http://g", dictionary=TermDictionary())
        g.add(uri("s1"), uri("p"), uri("o1"))
        g.add(uri("s1"), uri("p"), uri("o2"))
        g.add(uri("s2"), uri("p"), uri("o1"))
        g.add(uri("s1"), uri("q"), uri("o3"))
        return g

    def pid(self, graph, name):
        return graph.dictionary.lookup(uri(name))

    def test_exact_figures_match_profile(self, graph):
        for name in ("p", "q"):
            assert graph.predicate_synopsis(self.pid(graph, name))[:3] \
                == graph.predicate_profile(uri(name))

    def test_memoized_until_its_predicate_mutates(self, graph):
        p, q = self.pid(graph, "p"), self.pid(graph, "q")
        first, q_first = graph.predicate_synopsis(p), \
            graph.predicate_synopsis(q)
        built = graph.synopses_built
        assert graph.predicate_synopsis(p) is first
        assert graph.synopses_built == built
        graph.add(uri("s3"), uri("p"), uri("o9"))
        assert graph.predicate_synopsis(p)[:3] == (4, 3, 3)
        assert graph.predicate_synopsis(q) is q_first
        graph.remove(uri("s3"), uri("p"), uri("o9"))
        graph.remove(uri("s2"), uri("p"), uri("o1"))
        assert graph.predicate_synopsis(p)[:3] == (2, 1, 2)

    def test_absent_predicate_is_all_zeros(self, graph):
        graph.dictionary.encode(uri("never-used"))
        assert graph.predicate_synopsis(self.pid(graph, "never-used")) \
            == (0, 0, 0, 0.0, 0, 0.0, 0.0)


class TestLiteralCount:
    def test_counts_triples_not_distinct_objects(self):
        g = Graph("http://g", dictionary=TermDictionary())
        five = Literal(5)
        g.add(uri("a"), uri("p"), five)
        g.add(uri("b"), uri("p"), five)  # same literal object, new triple
        g.add(uri("c"), uri("p"), uri("d"))
        assert g.literal_count() == 2
        assert g.distinct_literal_count() == 1

    def test_empty_graph(self):
        g = Graph("http://g", dictionary=TermDictionary())
        assert g.literal_count() == 0
        assert g.distinct_literal_count() == 0
