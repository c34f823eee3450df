"""One zoo of RDF terms for every round-trip property.

Each boundary that writes a term out and reads it back draws its input
here: N-Triples (``tests/rdf/test_ntriples.py``), Turtle
(``tests/rdf/test_turtle.py``), a SPARQL constant
(``tests/sparql/test_algebra_properties.py``), SPARQL-JSON
(``tests/sparql/test_wire_codec.py``), the storage term record
(``tests/storage/test_format.py``) and dictionary encode/decode
(``tests/rdf/test_dictionary.py``).

The zoo draws IRIs with non-ASCII characters, blank-node labels, every
XSD kind with canonical, non-canonical and ill-typed lexicals,
``xsd:string`` next to the plain literal of the same text, language tags
in mixed case, and text full of control characters, quotes, backslash
runs and DBLP-style names.  :func:`with_examples` adds the hand-picked
:data:`EXAMPLES` to a property, so the terms that once broke a boundary
run every time, whatever hypothesis draws.
"""

from hypothesis import example, strategies as st

from repro.rdf.terms import (XSD_BOOLEAN, XSD_DATE, XSD_DATETIME, XSD_DECIMAL,
                             XSD_DOUBLE, XSD_INTEGER, XSD_STRING, BlankNode,
                             Literal, URIRef)

#: Author names and titles as the DBLP dump writes them, entities decoded
#: except a stray ``&amp;``.
DBLP = ["Thomas Hütter", "Chen Li 0001", "Michael J. Carey 0001",
        "FINEX: A Fast Index for Exact &amp; Flexible Density-Based "
        "Clustering.",
        "JEDI: These aren't the JSON documents you're looking for?"]

#: Characters where writers and readers of term text have disagreed.
AWKWARD = ['"', "'", "\\", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f",
           "\x7f", "\x85", "\u2028", "é", "東", "\U0001F3AC"]

#: No lone surrogates: the storage record (UTF-8) cannot hold them.
characters = st.characters(blacklist_categories=("Cs",))

text = st.one_of(
    st.text(alphabet=st.one_of(characters, st.sampled_from(AWKWARD)),
            max_size=12),
    st.builds(lambda slashes, quotes, tail: "\\" * slashes + '"' * quotes
              + tail, st.integers(0, 6), st.integers(0, 3),
              st.sampled_from(["", "n", "t", "u00e9", "\n"])),
    st.sampled_from(DBLP))

#: Characters every reader takes inside ``<...>``, non-ASCII included.
iris = st.text(alphabet=st.characters(min_codepoint=0x21,
                                      blacklist_categories=("Cs",),
                                      blacklist_characters='<>"{}|^`\\'),
               max_size=12).map(lambda path: URIRef("http://x/" + path))

bnodes = st.from_regex(r"[A-Za-z0-9]([A-Za-z0-9_.-]{0,6}[A-Za-z0-9_-])?",
                       fullmatch=True).map(BlankNode)

NUMERIC = [XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE]
DATATYPES = NUMERIC + [XSD_BOOLEAN, XSD_STRING, XSD_DATE, XSD_DATETIME,
                       "http://x/dt", "http://x/dté"]

#: Lexicals of every XSD kind, each also drawn under the wrong datatype.
LEXICALS = ["0", "-7", "+5", "01", "1.", ".5", "1.50", "-0.0", "1e3",
            "1.5E-2", "INF", "-INF", "NaN", "true", "false", "1", "TRUE",
            " true", "2020-01-31", "-0044-03-15", "2020-1-1",
            "2020-01-31T12:00:00Z", "2020-01-31T12:00:00.5+01:00", "", "abc"]

language_tags = st.from_regex(r"[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8}){0,2}",
                              fullmatch=True)

literals = st.one_of(
    st.integers().map(Literal),
    st.floats().map(Literal),
    st.booleans().map(Literal),
    st.decimals(allow_nan=False, allow_infinity=False).map(
        lambda number: Literal(str(number), datatype=XSD_DECIMAL)),
    st.builds(Literal,
              st.from_regex(r"[+-]?[0-9]{0,3}\.?[0-9]{0,3}([eE][+-]?[0-9]"
                            r"{1,2})?", fullmatch=True),
              st.sampled_from(NUMERIC)),
    st.builds(Literal, st.one_of(st.sampled_from(LEXICALS), text),
              st.sampled_from(DATATYPES)),
    text.flatmap(lambda lexical: st.sampled_from(
        [Literal(lexical), Literal(lexical, datatype=XSD_STRING)])),
    st.builds(lambda lexical, tag: Literal(lexical, language=tag),
              text, language_tags))

#: What a SPARQL query can hold as a constant.
constants = st.one_of(iris, literals)
terms = st.one_of(iris, bnodes, literals)

#: Terms that a text boundary once got wrong or that the paper's data
#: holds: ``xsd:string`` against plain, a decimal against a double, a
#: Windows path (``\t``), a raw newline, a literal backslash-u, DBLP text.
EXAMPLES = [Literal("abc", datatype=XSD_STRING), Literal("abc"),
            Literal("1.5", datatype=XSD_DECIMAL), Literal(1.5),
            Literal("1", datatype=XSD_DECIMAL), Literal(1),
            Literal("C:\\temp"), Literal("two\nlines"), Literal("\\u00e9"),
            Literal("\x00\x1f\x7f\b\f"),
            Literal("Thomas Hütter", language="de-AT"),
            Literal("Chen Li 0001", language="EN-us"),
            URIRef("http://x/Hütter"), URIRef("http://x/a."),
            BlankNode("b1")]


def with_examples(*types):
    """Run the decorated property on every term of :data:`EXAMPLES` of
    one of ``types`` (all of them by default), too."""
    def decorate(test):
        for term in EXAMPLES:
            if isinstance(term, types or (URIRef, BlankNode, Literal)):
                test = example(term)(test)
        return test
    return decorate


def triple_of(term):
    """A triple with ``term`` as object, and as subject too when it may
    be one."""
    subject = URIRef("http://x/s") if isinstance(term, Literal) else term
    return (subject, URIRef("http://x/p"), term)
