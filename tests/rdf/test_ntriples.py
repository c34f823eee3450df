"""Unit and property tests for the N-Triples parser/serializer."""

import gzip
import io

import pytest
from hypothesis import given, settings

from repro.rdf import Graph, Literal, URIRef, BlankNode, ntriples
from repro.rdf.ntriples import NTriplesError, parse_line

import termzoo


class TestParseLine:
    def test_simple_triple(self):
        s, p, o = parse_line("<http://x/a> <http://x/p> <http://x/b> .")
        assert s == URIRef("http://x/a")
        assert p == URIRef("http://x/p")
        assert o == URIRef("http://x/b")

    def test_plain_literal(self):
        _, _, o = parse_line('<http://x/a> <http://x/p> "hello" .')
        assert o == Literal("hello")

    def test_typed_literal(self):
        _, _, o = parse_line(
            '<http://x/a> <http://x/p> '
            '"5"^^<http://www.w3.org/2001/XMLSchema#integer> .')
        assert o.value == 5

    def test_language_literal(self):
        _, _, o = parse_line('<http://x/a> <http://x/p> "chat"@fr .')
        assert o.language == "fr"

    def test_blank_nodes(self):
        s, _, o = parse_line("_:b1 <http://x/p> _:b2 .")
        assert s == BlankNode("b1")
        assert o == BlankNode("b2")

    def test_escapes_in_literal(self):
        _, _, o = parse_line(r'<http://x/a> <http://x/p> "a\"b\nc\\d" .')
        assert o.lexical == 'a"b\nc\\d'

    def test_unicode_escape(self):
        _, _, o = parse_line(r'<http://x/a> <http://x/p> "é" .')
        assert o.lexical == "é"

    def test_trailing_comment(self):
        triple = parse_line("<http://x/a> <http://x/p> <http://x/b> . # note")
        assert triple[0] == URIRef("http://x/a")

    @pytest.mark.parametrize("bad", [
        "<http://x/a> <http://x/p> <http://x/b>",      # no dot
        "<http://x/a> <http://x/p> .",                  # no object
        "<http://x/a> \"lit\" <http://x/b> .",          # literal predicate
        "not a triple at all",
    ])
    def test_malformed_lines_raise(self, bad):
        with pytest.raises(NTriplesError):
            parse_line(bad)


class TestDocumentParsing:
    DOC = """
# a comment
<http://x/a> <http://x/p> <http://x/b> .

<http://x/a> <http://x/q> "v" .
"""

    def test_parse_skips_comments_and_blanks(self):
        triples = list(ntriples.parse(self.DOC))
        assert len(triples) == 2

    def test_parse_into_graph(self):
        g = Graph()
        added = ntriples.parse_into_graph(self.DOC, g)
        assert added == 2
        assert len(g) == 2

    def test_parse_from_stream(self):
        triples = list(ntriples.parse(io.StringIO(self.DOC)))
        assert len(triples) == 2

    def test_error_reports_line_number(self):
        with pytest.raises(NTriplesError) as exc_info:
            list(ntriples.parse("<http://x/a> <http://x/p> <http://x/b> .\n"
                                "garbage\n"))
        assert exc_info.value.line_number == 2


class TestSerialization:
    def test_round_trip_simple(self):
        g = Graph()
        g.add(URIRef("http://x/a"), URIRef("http://x/p"), Literal("v\n"))
        g.add(URIRef("http://x/a"), URIRef("http://x/p"), Literal(7))
        text = ntriples.serialize(g.triples())
        g2 = Graph()
        ntriples.parse_into_graph(text, g2)
        assert set(g2.triples()) == set(g.triples())

    def test_write_to_stream(self):
        buffer = io.StringIO()
        count = ntriples.write(
            [(URIRef("http://x/a"), URIRef("http://x/p"), URIRef("http://x/b"))],
            buffer)
        assert count == 1
        assert buffer.getvalue().strip().endswith(".")


# Every term of the zoo survives serialize -> parse: quotes, backslash
# runs, every control character, xsd:string next to plain, ill-typed
# lexicals, non-ASCII IRIs.
@settings(max_examples=300, deadline=None)
@given(termzoo.terms)
@termzoo.with_examples()
def test_triple_round_trip(term):
    triple = termzoo.triple_of(term)
    assert parse_line(ntriples.serialize_triple(triple)) == triple


def test_long_literal_round_trip():
    text = ('long "quoted" \\segment\\ with\ttabs\nand lines ' * 250)
    assert len(text) > 10_000
    triple = (URIRef("http://x/s"), URIRef("http://x/p"), Literal(text))
    parsed = parse_line(ntriples.serialize_triple(triple))
    assert parsed[2].lexical == text


def test_document_round_trip_preserves_unicode():
    g = Graph()
    g.add(URIRef("http://x/s"), URIRef("http://x/p"),
          Literal('emoji \U0001f600, combining é, quote " end'))
    g.add(URIRef("http://x/s"), URIRef("http://x/p"),
          Literal("tab\there", language="en"))
    g2 = Graph()
    ntriples.parse_into_graph(ntriples.serialize(g.triples()), g2)
    assert set(g2.triples()) == set(g.triples())


class TestEscapeParsing:
    def test_u_escape(self):
        _, _, o = parse_line(r'<http://x/a> <http://x/p> "é" .')
        assert o.lexical == "é"

    def test_wide_u_escape(self):
        _, _, o = parse_line(r'<http://x/a> <http://x/p> "\U0001F600" .')
        assert o.lexical == "\U0001F600"

    def test_mixed_escapes(self):
        _, _, o = parse_line(
            r'<http://x/a> <http://x/p> "a\tb\\\"c" .')
        assert o.lexical == 'a\tb\\"c'


class TestBulkLoad:
    DOC = ('<http://x/a> <http://x/p> <http://x/b> .\n'
           '# comment line\n'
           '<http://x/a> <http://x/q> "café" .\n')

    def expected(self):
        g = Graph()
        ntriples.parse_into_graph(self.DOC, g)
        return set(g.triples())

    def test_load_from_file_path(self, tmp_path):
        path = tmp_path / "dump.nt"
        path.write_text(self.DOC, encoding="utf-8")
        g = Graph()
        added = ntriples.parse_into_graph(str(path), g)
        assert added == 2
        assert set(g.triples()) == self.expected()

    def test_load_from_gzip_path(self, tmp_path):
        # gzip is sniffed from magic bytes, not the file name
        path = tmp_path / "dump.nt.bin"
        with gzip.open(str(path), "wt", encoding="utf-8") as fobj:
            fobj.write(self.DOC)
        g = Graph()
        added = ntriples.parse_into_graph(str(path), g)
        assert added == 2
        assert set(g.triples()) == self.expected()

    def test_lenient_mode_counts_skipped_lines(self, tmp_path):
        path = tmp_path / "dirty.nt"
        path.write_text(self.DOC + "garbage line\n<http://x/a> .\n",
                        encoding="utf-8")
        g = Graph()
        added, skipped = ntriples.parse_into_graph(str(path), g,
                                                   strict=False)
        assert (added, skipped) == (2, 2)
        assert set(g.triples()) == self.expected()

    def test_strict_mode_still_raises(self, tmp_path):
        path = tmp_path / "dirty.nt"
        path.write_text("garbage\n", encoding="utf-8")
        with pytest.raises(NTriplesError):
            ntriples.parse_into_graph(str(path), Graph())

    def test_lenient_mode_on_stream(self):
        stream = io.StringIO(self.DOC + "broken\n")
        g = Graph()
        assert ntriples.parse_into_graph(stream, g, strict=False) == (2, 1)

    def test_document_text_is_never_treated_as_path(self):
        # single-line document text parses as text even if a file of
        # that exact name were to exist somewhere on disk
        g = Graph()
        added = ntriples.parse_into_graph(
            '<http://x/a> <http://x/p> <http://x/b> .', g)
        assert added == 1
