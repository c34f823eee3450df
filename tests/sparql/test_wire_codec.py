"""The SPARQL-JSON wire codec: byte-identity, round trips and corruption.

``encode_results`` writes the document text itself, rendering each
distinct term of a page once; ``decode_results`` decodes each distinct
binding once.  These tests pin the text to ``json.dumps`` of the W3C
document, check that the decoder's memo never merges two different
terms, and check that a corrupt binding still fails loudly after a memo
hit.
"""

import json
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.client import ClientError, EngineClient, HttpClient
from repro.rdf import BlankNode, Graph, Literal, URIRef
from repro.rdf.terms import XSD_INTEGER, XSD_STRING
from repro.sparql import Endpoint, Engine, TransientError, term_to_python
from repro.sparql.faults import FaultInjector, FaultyEndpoint
from repro.sparql.json_results import decode_results, encode_results
from repro.sparql.results import ResultSet

import termzoo


def reference_term(term):
    """A term as the W3C binding object, keys in the order the format lists."""
    if isinstance(term, URIRef):
        return {"type": "uri", "value": term.value}
    if isinstance(term, BlankNode):
        return {"type": "bnode", "value": term.label}
    binding = {"type": "literal", "value": term.lexical}
    if term.language:
        binding["xml:lang"] = term.language
    elif term.datatype is not None:
        binding["datatype"] = term.datatype
    return binding


def reference_document(result):
    """``json.dumps`` of the whole W3C document, one dict per row."""
    bindings = []
    for row in result.rows:
        binding_row = {}
        for var, term in zip(result.variables, row):
            if term is not None:
                binding_row[var] = reference_term(term)
        bindings.append(binding_row)
    return json.dumps({"head": {"vars": list(result.variables)},
                       "results": {"bindings": bindings}})


# Text that stresses the escaper: quotes, backslashes, control
# characters, lone surrogates and non-ASCII, next to ordinary letters.
# Surrogates stay lone: JSON reads an escaped high + low pair back as the
# one code point it encodes, which no encoder can prevent.
SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")
awkward_text = st.text(alphabet=st.one_of(
    st.characters(),
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f",
                     "\ud800", "\udfff", "é", "東", "\U0001F3AC"])),
    max_size=12).filter(lambda s: not SURROGATE_PAIR.search(s))
# The shared term zoo, plus literals of that text: lone surrogates are
# drawn here only, since the storage record (UTF-8) cannot hold them.
terms = st.one_of(termzoo.terms, awkward_text.map(Literal))


@st.composite
def result_sets(draw):
    """Pages whose cells are drawn from a small pool of term objects (plus
    unbound), so one object repeats down a column and across columns."""
    variables = draw(st.lists(awkward_text.filter(bool), unique=True,
                              max_size=5))
    pool = draw(st.lists(terms, min_size=1, max_size=6)) + [None]
    cell = st.sampled_from(pool)
    rows = draw(st.lists(st.tuples(*[cell] * len(variables)), max_size=12))
    return ResultSet(variables, rows)


@settings(max_examples=300, deadline=None)
@given(result_sets())
def test_encode_is_json_dumps_of_the_document(result):
    assert encode_results(result) == reference_document(result)


@settings(max_examples=300, deadline=None)
@given(result_sets())
def test_decode_inverts_encode(result):
    back = decode_results(encode_results(result))
    assert back.variables == result.variables
    assert back.rows == result.rows


class TestEdgeDocuments:
    def test_no_rows(self):
        result = ResultSet(["a"], [])
        assert encode_results(result) == \
            '{"head": {"vars": ["a"]}, "results": {"bindings": []}}'

    def test_all_unbound_row(self):
        result = ResultSet(["a", "b"], [(None, None), (URIRef("http://x/"), None)])
        assert encode_results(result) == reference_document(result)
        assert '"bindings": [{}, ' in encode_results(result)

    def test_repeated_variable_is_one_key(self):
        term = Literal("v")
        result = ResultSet(["x", "x", "y"], [(term, term, None)])
        assert encode_results(result) == reference_document(result)


class TestDecodeMemoNeverMerges:
    @pytest.mark.parametrize("siblings", [
        [URIRef("http://x/a"), Literal("http://x/a")],
        [Literal("a", language="en"), Literal("a", language="fr"),
         Literal("a", datatype=XSD_INTEGER), Literal("a"),
         Literal("a", datatype=XSD_STRING), BlankNode("a")],
    ], ids=["uri-vs-literal", "literal-siblings"])
    def test_same_value_different_terms(self, siblings):
        # One column, the siblings interleaved so each is a memo hit
        # candidate for the one before it.
        rows = [(term,) for term in siblings + siblings[::-1]]
        back = decode_results(encode_results(ResultSet(["v"], rows)))
        assert back.rows == rows
        assert [type(t) for (t,) in back.rows] == \
            [type(t) for (t,) in rows]

    def test_repeated_binding_decodes_to_one_object(self):
        term = Literal("x", language="en")
        back = decode_results(encode_results(
            ResultSet(["a", "b"], [(term, term)] * 3)))
        assert len({id(t) for row in back.rows for t in row}) == 1


class TestXsdStringOnTheWire:
    def test_http_equals_local_execute_terms(self):
        g = Graph("http://g")
        g.add(URIRef("http://x/s1"), URIRef("http://x/p"), Literal("a"))
        g.add(URIRef("http://x/s2"), URIRef("http://x/p"),
              Literal("a", datatype=XSD_STRING))
        engine = Engine(g)
        query = "SELECT ?s ?o WHERE { ?s <http://x/p> ?o }"
        local = EngineClient(engine).execute_terms(query)
        http = HttpClient(Endpoint(engine, max_rows=1)).execute_terms(query)
        assert Counter(http.to_records()) == Counter(local.to_records())
        assert {o.datatype for o in http.column("o")} == {None, XSD_STRING}


# Corruptions of the page's second binding that share (or mimic) the
# first binding's "value", so the decoder's memo is consulted first.
CORRUPTIONS = {
    "missing-type": lambda first: {"value": first["value"]},
    "list-value": lambda first: {"type": first["type"],
                                 "value": [first["value"]]},
    "int-value": lambda first: {"type": "literal", "value": 5},
}


def corrupt_second_binding(payload, corruption):
    document = json.loads(payload)
    first, second = document["results"]["bindings"][:2]
    second["o"] = CORRUPTIONS[corruption](first["o"])
    return json.dumps(document)


def repeated_value_engine():
    g = Graph("http://g")
    for i in range(4):
        g.add(URIRef("http://x/s%d" % i), URIRef("http://x/p"), Literal("5"))
    return Engine(g)


REPEATED_VALUE_QUERY = "SELECT ?s ?o WHERE { ?s <http://x/p> ?o }"


class CorruptSecondBinding(FaultInjector):
    """Every response's second binding is damaged in the same way."""

    kind = "corrupt-binding"

    def __init__(self, corruption):
        super().__init__(rate=1.0)
        self.corruption = corruption

    def after_response(self, endpoint, query, offset, limit, response):
        if self.should_fire(query, offset):
            response.payload = corrupt_second_binding(response.payload,
                                                      self.corruption)
        return response


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
class TestCorruptionAfterMemoHit:
    def test_decode_raises(self, corruption):
        payload = Endpoint(repeated_value_engine()).request(
            REPEATED_VALUE_QUERY).payload
        with pytest.raises((KeyError, TypeError, ValueError)):
            decode_results(corrupt_second_binding(payload, corruption))

    def test_client_retries_then_fails_classified(self, corruption):
        faulty = FaultyEndpoint(Endpoint(repeated_value_engine()),
                                [CorruptSecondBinding(corruption)])
        client = HttpClient(faulty, max_retries=2, breaker_threshold=None)
        with pytest.raises(ClientError) as excinfo:
            client.execute(REPEATED_VALUE_QUERY)
        assert isinstance(excinfo.value.__cause__, TransientError)
        assert client.retries_performed == 2


class TestDataframeConversion:
    QUERY = ("SELECT ?s ?kind ?v WHERE { ?s <http://x/kind> ?kind "
             "OPTIONAL { ?s <http://x/v> ?v } }")

    @pytest.fixture(scope="class")
    def engine(self):
        # ?kind repeats one URI per row; ?v mixes URIs, integers, a
        # language-tagged string, a double, a blank node and unbound.
        g = Graph("http://g")
        values = [URIRef("http://x/o"), Literal(7), Literal("sept", language="fr"),
                  Literal(7.5), BlankNode("b"), None, Literal(7)]
        for i in range(40):
            s = URIRef("http://x/s%d" % i)
            g.add(s, URIRef("http://x/kind"), URIRef("http://x/k%d" % (i % 3)))
            value = values[i % len(values)]
            if value is not None:
                g.add(s, URIRef("http://x/v"), value)
        return Engine(g)

    def expected(self, engine):
        return [tuple(term_to_python(t) for t in row)
                for row in engine.query(self.QUERY).rows]

    def test_result_set_matches_per_cell(self):
        shared, equal = Literal(3), Literal(3)
        result = ResultSet(["a", "b"], [(shared, None), (shared, equal),
                                        (URIRef("http://x/u"), shared)])
        frame = result.to_dataframe()
        assert frame.columns == ["a", "b"]
        assert frame.to_records() == [
            tuple(term_to_python(t) for t in row) for row in result.rows]

    def test_engine_client(self, engine):
        frame = EngineClient(engine).execute(self.QUERY)
        assert frame.to_records() == self.expected(engine)
        assert None in frame.column("v")

    def test_http_client(self, engine):
        frame = HttpClient(Endpoint(engine, max_rows=7)).execute(self.QUERY)
        assert Counter(frame.to_records()) == Counter(self.expected(engine))
