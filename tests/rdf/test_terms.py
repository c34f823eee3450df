"""Unit tests for RDF term types."""

import pytest

from repro.rdf.terms import (BlankNode, Literal, URIRef, Variable,
                             XSD_BOOLEAN, XSD_DATE, XSD_DECIMAL, XSD_DOUBLE,
                             XSD_INTEGER, XSD_STRING, escape, is_concrete,
                             literal_year, unescape)


class TestURIRef:
    def test_value_round_trip(self):
        uri = URIRef("http://example.org/a")
        assert str(uri) == "http://example.org/a"

    def test_equality(self):
        assert URIRef("http://x/a") == URIRef("http://x/a")
        assert URIRef("http://x/a") != URIRef("http://x/b")

    def test_not_equal_to_literal_with_same_text(self):
        assert URIRef("http://x/a") != Literal("http://x/a")

    def test_hashable_as_dict_key(self):
        d = {URIRef("http://x/a"): 1}
        assert d[URIRef("http://x/a")] == 1

    def test_n3_rendering(self):
        assert URIRef("http://x/a").n3() == "<http://x/a>"

    def test_immutable(self):
        uri = URIRef("http://x/a")
        with pytest.raises(AttributeError):
            uri.value = "other"

    def test_empty_uri_rejected(self):
        with pytest.raises(ValueError):
            URIRef("")

    def test_non_string_rejected(self):
        with pytest.raises(ValueError):
            URIRef(42)


class TestLiteral:
    def test_plain_string(self):
        lit = Literal("hello")
        assert lit.value == "hello"
        assert lit.datatype is None

    def test_int_coercion(self):
        lit = Literal(42)
        assert lit.datatype == XSD_INTEGER
        assert lit.value == 42
        assert lit.lexical == "42"

    def test_float_coercion(self):
        lit = Literal(2.5)
        assert lit.datatype == XSD_DOUBLE
        assert lit.value == 2.5

    def test_bool_coercion(self):
        assert Literal(True).datatype == XSD_BOOLEAN
        assert Literal(True).value is True
        assert Literal(False).value is False

    def test_bool_checked_before_int(self):
        # bool is a subclass of int; must map to xsd:boolean.
        assert Literal(True).datatype == XSD_BOOLEAN

    def test_typed_integer_from_lexical(self):
        lit = Literal("7", datatype=XSD_INTEGER)
        assert lit.value == 7
        assert lit.is_numeric

    def test_bad_numeric_lexical_kept_as_string(self):
        lit = Literal("seven", datatype=XSD_INTEGER)
        assert lit.value == "seven"

    def test_language_tag(self):
        lit = Literal("chat", language="fr")
        assert lit.language == "fr"
        assert lit.n3() == '"chat"@fr'

    def test_language_and_datatype_conflict(self):
        with pytest.raises(ValueError):
            Literal("x", datatype=XSD_INTEGER, language="en")

    def test_equality_includes_datatype(self):
        assert Literal("5", datatype=XSD_INTEGER) != Literal("5")

    def test_n3_escaping(self):
        lit = Literal('say "hi"\n')
        assert lit.n3() == '"say \\"hi\\"\\n"'

    def test_n3_typed(self):
        assert Literal(3).n3() == '"3"^^<%s>' % XSD_INTEGER

    def test_n3_keeps_xsd_string(self):
        assert Literal("abc", datatype=XSD_STRING).n3() == \
            '"abc"^^<%s>' % XSD_STRING

    @pytest.mark.parametrize("literal,shorthand", [
        (Literal(1), "1"), (Literal("2.5", datatype=XSD_DECIMAL), "2.5"),
        (Literal("1e3", datatype=XSD_DOUBLE), "1e3"), (Literal(True), "true"),
        (Literal(2.5), None), (Literal("1", datatype=XSD_DECIMAL), None),
        (Literal("-1", datatype=XSD_INTEGER), None),
        (Literal("1", datatype=XSD_BOOLEAN), None), (Literal("1"), None)])
    def test_shorthand(self, literal, shorthand):
        assert literal.shorthand() == shorthand

    def test_is_numeric(self):
        assert Literal(3).is_numeric
        assert not Literal("3").is_numeric

    def test_immutable(self):
        lit = Literal("x")
        with pytest.raises(AttributeError):
            lit.lexical = "y"


class TestBlankNode:
    def test_auto_label_unique(self):
        assert BlankNode() != BlankNode()

    def test_explicit_label_equality(self):
        assert BlankNode("b1") == BlankNode("b1")

    def test_n3(self):
        assert BlankNode("x").n3() == "_:x"


class TestVariable:
    def test_strips_question_mark(self):
        assert Variable("?movie").name == "movie"
        assert Variable("movie").name == "movie"
        assert Variable("$movie").name == "movie"

    def test_equality(self):
        assert Variable("x") == Variable("?x")

    def test_n3(self):
        assert Variable("x").n3() == "?x"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Variable("?")


class TestEscapes:
    def test_canonical_form(self):
        # ECHAR where N-Triples has one, UCHAR for the other controls.
        assert escape('a"b\\c\n\r\t\b\f\x01\x7f\'é') == \
            'a\\"b\\\\c\\n\\r\\t\\b\\f\\u0001\\u007F\'é'

    def test_unescape_is_lenient(self):
        assert unescape(r"\q \u00 \UFFFFFFFF \u00e9 \'") == \
            "\\q \\u00 \\UFFFFFFFF é '"

    def test_text_is_written_in_terms_py_only(self):
        # Ratchet: no other module writes a datatype suffix or an
        # escaping .replace chain; each renders through this module.
        import pathlib
        import re
        import repro
        pattern = re.compile(r"""\^\^<|\.replace\(.*?,\s*r?["']\\\\""")
        root = pathlib.Path(repro.__file__).parent
        offenders = ["%s:%d" % (path.relative_to(root), number)
                     for path in sorted(root.rglob("*.py"))
                     if path.relative_to(root).as_posix() != "rdf/terms.py"
                     for number, line in enumerate(
                         path.read_text().splitlines(), 1)
                     if pattern.search(line)]
        assert not offenders


class TestHelpers:
    def test_is_concrete(self):
        assert is_concrete(URIRef("http://x/a"))
        assert is_concrete(Literal("x"))
        assert not is_concrete(Variable("x"))

    def test_literal_year(self):
        assert literal_year(Literal("2015-03-01", datatype=XSD_DATE)) == 2015
        assert literal_year(Literal("not-a-date")) is None
