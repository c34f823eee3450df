"""Tests for the simulated endpoint, pagination, and SPARQL-JSON results."""

import json

import pytest

from repro.rdf import BlankNode, Graph, Literal, URIRef
from repro.rdf.terms import XSD_STRING
from repro.sparql import Endpoint, Engine, QueryTimeout
from repro.sparql.json_results import (decode_results, decode_term,
                                       encode_results, encode_term)
from repro.sparql.results import ResultSet


def uri(name):
    return URIRef("http://x/" + name)


@pytest.fixture
def endpoint():
    g = Graph("http://g")
    for i in range(25):
        g.add(uri("s%d" % i), uri("p"), Literal(i))
    return Endpoint(Engine(g), max_rows=10)


QUERY = "PREFIX x: <http://x/>\nSELECT ?s ?v WHERE { ?s x:p ?v }"


class TestEndpointPagination:
    def test_first_page_capped(self, endpoint):
        response = endpoint.request(QUERY)
        assert len(response.result) == 10
        assert response.has_more

    def test_offset_pages(self, endpoint):
        page2 = endpoint.request(QUERY, offset=10)
        page3 = endpoint.request(QUERY, offset=20)
        assert len(page2.result) == 10
        assert len(page3.result) == 5
        assert not page3.has_more

    def test_limit_lowers_cap_only(self, endpoint):
        assert len(endpoint.request(QUERY, limit=3).result) == 3
        assert len(endpoint.request(QUERY, limit=99).result) == 10

    def test_result_cache_avoids_reexecution(self, endpoint):
        endpoint.request(QUERY)
        executed = endpoint.engine.queries_executed
        endpoint.request(QUERY, offset=10)
        assert endpoint.engine.queries_executed == executed

    def test_clear_cache(self, endpoint):
        endpoint.request(QUERY)
        endpoint.clear_cache()
        executed = endpoint.engine.queries_executed
        endpoint.request(QUERY)
        assert endpoint.engine.queries_executed == executed + 1

    def test_payload_is_sparql_json(self, endpoint):
        response = endpoint.request(QUERY)
        document = json.loads(response.payload)
        assert document["head"]["vars"] == ["s", "v"]
        assert len(document["results"]["bindings"]) == 10

    def test_timeout_enforced(self):
        # The endpoint boundary classifies the raw QueryTimeout as a
        # retryable TransientError, chaining the original.
        from repro.sparql import TransientError
        g = Graph("http://g")
        for i in range(200):
            g.add(uri("s%d" % i), uri("p"), uri("o%d" % i))
        strict = Endpoint(Engine(g), max_rows=10, timeout=0.0)
        with pytest.raises(TransientError) as excinfo:
            strict.request("PREFIX x: <http://x/>\n"
                           "SELECT * WHERE { ?a x:p ?b . ?c x:p ?d }")
        assert isinstance(excinfo.value.__cause__, QueryTimeout)
        assert excinfo.value.retryable

    def test_invalid_max_rows(self):
        with pytest.raises(ValueError):
            Endpoint(Engine(Graph()), max_rows=0)

    def test_requests_counted(self, endpoint):
        endpoint.request(QUERY)
        endpoint.request(QUERY, offset=10)
        assert endpoint.requests_served == 2


class TestJsonTermCodec:
    @pytest.mark.parametrize("term", [
        URIRef("http://x/a"),
        Literal("plain"),
        Literal("chat", language="fr"),
        Literal(42),
        Literal(2.5),
        Literal(True),
        Literal("a", datatype=XSD_STRING),
        BlankNode("b7"),
    ])
    def test_term_round_trip(self, term):
        assert decode_term(encode_term(term)) == term

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            decode_term({"type": "mystery", "value": "x"})

    def test_encode_non_term_rejected(self):
        with pytest.raises(TypeError):
            encode_term("not a term")


class TestJsonResultsCodec:
    def test_round_trip_with_unbound(self):
        result = ResultSet(["a", "b"], [
            (uri("x"), Literal(1)),
            (uri("y"), None),
        ])
        back = decode_results(encode_results(result))
        assert back.variables == ["a", "b"]
        assert back.rows == result.rows

    def test_empty_results(self):
        back = decode_results(encode_results(ResultSet(["a"], [])))
        assert len(back) == 0

    def test_dataframe_after_decode(self):
        result = ResultSet(["n"], [(Literal(5),), (None,)])
        df = decode_results(encode_results(result)).to_dataframe()
        assert df.column("n") == [5, None]
