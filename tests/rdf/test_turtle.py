"""Tests for the Turtle parser and serializer."""

import pytest
from hypothesis import given, settings

from repro.rdf import Graph, Literal, RDF, URIRef, BlankNode
from repro.rdf import turtle
from repro.rdf.terms import XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER
from repro.rdf.turtle import TurtleError

import termzoo


class TestDirectives:
    def test_prefix_directive(self):
        doc = "@prefix ex: <http://e/> . ex:a ex:p ex:b ."
        triples = list(turtle.parse(doc))
        assert triples == [(URIRef("http://e/a"), URIRef("http://e/p"),
                            URIRef("http://e/b"))]

    def test_sparql_style_prefix(self):
        doc = "PREFIX ex: <http://e/>\nex:a ex:p ex:b ."
        assert len(list(turtle.parse(doc))) == 1

    def test_unknown_prefix_raises(self):
        with pytest.raises(TurtleError):
            list(turtle.parse("nope:a nope:p nope:b ."))

    @pytest.mark.parametrize("base", ["@base <http://ex.org/base/> .",
                                      "BASE <http://ex.org/base/>"])
    def test_base_resolves_relative_iris_only(self, base):
        doc = base + """
            @prefix foo: <http://other.org/> .
            @prefix rel: <sub/> .
            foo:a <p> rel:b .
            <urn:x> foo:p <http://abs.org/o> .
        """
        assert list(turtle.parse(doc)) == [
            (URIRef("http://other.org/a"), URIRef("http://ex.org/base/p"),
             URIRef("http://ex.org/base/sub/b")),
            (URIRef("urn:x"), URIRef("http://other.org/p"),
             URIRef("http://abs.org/o"))]


class TestTriples:
    def test_a_keyword(self):
        doc = "@prefix ex: <http://e/> . ex:x a ex:Class ."
        triples = list(turtle.parse(doc))
        assert triples[0][1] == RDF.type

    def test_predicate_list(self):
        doc = ("@prefix ex: <http://e/> .\n"
               "ex:s ex:p ex:a ;\n     ex:q ex:b .")
        triples = list(turtle.parse(doc))
        assert len(triples) == 2
        assert triples[0][0] == triples[1][0]

    def test_object_list(self):
        doc = "@prefix ex: <http://e/> . ex:s ex:p ex:a , ex:b , ex:c ."
        triples = list(turtle.parse(doc))
        assert len(triples) == 3
        assert {str(t[2]) for t in triples} == \
            {"http://e/a", "http://e/b", "http://e/c"}

    def test_dangling_semicolon(self):
        doc = "@prefix ex: <http://e/> . ex:s ex:p ex:a ; ."
        assert len(list(turtle.parse(doc))) == 1

    def test_comments_ignored(self):
        doc = ("# top comment\n@prefix ex: <http://e/> .\n"
               "ex:s ex:p ex:a . # trailing\n")
        assert len(list(turtle.parse(doc))) == 1

    def test_blank_node_label(self):
        doc = "@prefix ex: <http://e/> . _:x ex:p _:y ."
        s, _, o = list(turtle.parse(doc))[0]
        assert s == BlankNode("x") and o == BlankNode("y")

    def test_anonymous_blank_node(self):
        doc = "@prefix ex: <http://e/> . ex:s ex:p [] ."
        _, _, o = list(turtle.parse(doc))[0]
        assert isinstance(o, BlankNode)

    def test_blank_node_property_list(self):
        doc = ("@prefix ex: <http://e/> .\n"
               "ex:s ex:knows [ ex:name \"Bob\" ; ex:age 42 ] .")
        triples = list(turtle.parse(doc))
        assert len(triples) == 3
        anon = [t for t in triples if t[0] != URIRef("http://e/s")]
        assert len(anon) == 2

    def test_literal_subject_rejected(self):
        with pytest.raises(TurtleError):
            list(turtle.parse('"lit" <http://e/p> <http://e/o> .'))

    def test_missing_dot_rejected(self):
        with pytest.raises(TurtleError):
            list(turtle.parse("<http://e/a> <http://e/p> <http://e/b>"))


class TestLiterals:
    def parse_object(self, literal_text):
        doc = "@prefix ex: <http://e/> . ex:s ex:p %s ." % literal_text
        return list(turtle.parse(doc))[0][2]

    def test_plain_string(self):
        assert self.parse_object('"hello"') == Literal("hello")

    def test_long_string(self):
        obj = self.parse_object('"""multi\nline"""')
        assert obj.lexical == "multi\nline"

    def test_language_tag(self):
        assert self.parse_object('"chat"@fr').language == "fr"

    def test_typed_literal(self):
        obj = self.parse_object(
            '"5"^^<http://www.w3.org/2001/XMLSchema#integer>')
        assert obj.value == 5

    def test_typed_literal_pname(self):
        doc = ("@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
               "@prefix ex: <http://e/> .\n"
               'ex:s ex:p "7"^^xsd:integer .')
        assert list(turtle.parse(doc))[0][2].value == 7

    @pytest.mark.parametrize("text,value", [
        ("42", 42), ("-3", -3), ("2.5", 2.5), ("1e3", 1000.0),
    ])
    def test_numeric_shorthand(self, text, value):
        assert self.parse_object(text).value == value

    @pytest.mark.parametrize("text,datatype", [
        ("2.5", XSD_DECIMAL), ("+.5", XSD_DECIMAL), ("1e3", XSD_DOUBLE),
        ("1.5E-2", XSD_DOUBLE), ("-3", XSD_INTEGER)])
    def test_number_datatype(self, text, datatype):
        assert self.parse_object(text).datatype == datatype

    def test_point_without_digits_ends_the_statement(self):
        doc = "@prefix ex: <http://e/> . ex:s ex:p 1.\nex:s ex:q 2 ."
        assert [t[2] for t in turtle.parse(doc)] == [Literal(1), Literal(2)]

    def test_boolean_shorthand(self):
        assert self.parse_object("true").value is True
        assert self.parse_object("false").value is False

    def test_escapes(self):
        assert self.parse_object(r'"a\"b\nc"').lexical == 'a"b\nc'


class TestSerialization:
    def test_round_trip_graph(self):
        g = Graph()
        ex = "http://e/"
        g.add(URIRef(ex + "s"), URIRef(ex + "p"), URIRef(ex + "o"))
        g.add(URIRef(ex + "s"), URIRef(ex + "q"), Literal("v"))
        g.add(URIRef(ex + "s"), RDF.type, URIRef(ex + "C"))
        g.add(URIRef(ex + "t"), URIRef(ex + "p"), Literal(5))
        text = turtle.serialize(g.triples(), prefixes={"ex": ex})
        g2 = Graph()
        turtle.parse_into_graph(text, g2)
        assert set(g2.triples()) == set(g.triples())

    def test_serialize_uses_prefixes(self):
        triples = [(URIRef("http://e/s"), URIRef("http://e/p"),
                    URIRef("http://e/o"))]
        text = turtle.serialize(triples, prefixes={"ex": "http://e/"})
        assert "@prefix ex:" in text
        assert "ex:s ex:p ex:o ." in text

    def test_serialize_groups_subjects(self):
        triples = [
            (URIRef("http://e/s"), URIRef("http://e/p"), Literal(1)),
            (URIRef("http://e/s"), URIRef("http://e/q"), Literal(2)),
        ]
        text = turtle.serialize(triples, prefixes={"ex": "http://e/"})
        assert " ;" in text

    def test_serialize_renders_rdf_type_as_a(self):
        triples = [(URIRef("http://e/s"), RDF.type, URIRef("http://e/C"))]
        text = turtle.serialize(triples, prefixes={"ex": "http://e/"})
        assert " a " in text

    def test_synthetic_graph_round_trip(self):
        from repro.data import generate_dbpedia
        g = generate_dbpedia(scale=0.05)
        text = turtle.serialize(g.triples())
        g2 = Graph()
        count = turtle.parse_into_graph(text, g2)
        assert count == len(g)
        assert set(g2.triples()) == set(g.triples())


@settings(max_examples=300, deadline=None)
@given(termzoo.terms)
@termzoo.with_examples()
def test_triple_round_trip(term):
    """Every term of the zoo survives serialize -> parse, also written as
    a prefixed name where the prefix map allows."""
    triples = [termzoo.triple_of(term)]
    for prefixes in (None, {"x": "http://x/"}):
        text = turtle.serialize(triples, prefixes)
        assert list(turtle.parse(text)) == triples, text
