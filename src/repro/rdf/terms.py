"""RDF term types: URIs, literals, blank nodes, variables, and triples.

This module implements the RDF data model from Section 5.1 of the paper:
an RDF triple is ``(s, p, o)`` in ``(I U B) x I x (I U B U L)`` where ``I``
is the set of URIs, ``B`` blank nodes, and ``L`` literals.  SPARQL variables
are included here because triple *patterns* share the same structure with
variables allowed in any position.

All terms are immutable, hashable value objects so they can be used as
dictionary keys in the graph indexes and in solution mappings.

A term as text is decided here alone: the N-Triples, Turtle and SPARQL
readers call :func:`unescape` and :func:`number_datatype`, every writer
calls :func:`escape`, :meth:`Literal.n3` or :meth:`Literal.shorthand`.
"""

from __future__ import annotations

import re
from typing import Optional, Tuple, Union

XSD = "http://www.w3.org/2001/XMLSchema#"

XSD_INTEGER = XSD + "integer"
XSD_DECIMAL = XSD + "decimal"
XSD_DOUBLE = XSD + "double"
XSD_BOOLEAN = XSD + "boolean"
XSD_STRING = XSD + "string"
XSD_DATE = XSD + "date"
XSD_DATETIME = XSD + "dateTime"

_NUMERIC_DATATYPES = frozenset({XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE})

#: ECHAR, the one-letter escapes of N-Triples, Turtle and SPARQL strings,
#: by the letter after the backslash.
_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
          '"': '"', "'": "'", "\\": "\\"}
#: What :func:`escape` writes: an ECHAR, else a UCHAR for the other C0
#: controls and DEL (the canonical N-Triples form of RDF 1.2).
_ESCAPE = {chr(code): "\\u%04X" % code for code in [*range(0x20), 0x7F]}
_ESCAPE.update({char: "\\" + letter for letter, char in _ECHAR.items()
                if letter != "'"})
_ESCAPE_RE = re.compile(r'[\x00-\x1f"\\\x7f]')
#: A UCHAR (``\uXXXX``, ``\UXXXXXXXX``), else a backslash and one character.
_UNESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))",
                          re.DOTALL)

#: An unsigned number as SPARQL 1.1 (§19.8) and Turtle write it: DOUBLE,
#: DECIMAL or INTEGER.  A point needs a digit after it unless an exponent
#: follows, so ``1.`` is the integer ``1`` and a full stop.
NUMBER = (r"(?:[0-9]+\.[0-9]*|\.?[0-9]+)[eE][+-]?[0-9]+"
          r"|[0-9]*\.[0-9]+|[0-9]+")
_NUMBER_RE = re.compile(NUMBER)


def escape(text: str) -> str:
    """``text`` as the body of a ``"..."`` string in N-Triples, Turtle
    and SPARQL; :func:`unescape` reads it back."""
    return _ESCAPE_RE.sub(lambda match: _ESCAPE[match.group()], text)


def unescape(body: str) -> str:
    """The text a string body stands for, its ECHAR and UCHAR escapes
    decoded.  Lenient, as the readers always were: an unknown escape
    (``\\q``) or a code point past U+10FFFF stays as written."""
    return _UNESCAPE_RE.sub(_unescape_one, body)


def _unescape_one(match) -> str:
    short, wide, letter = match.groups()
    if letter is not None:
        return _ECHAR.get(letter, match.group())
    code = int(short or wide, 16)
    return chr(code) if code <= 0x10FFFF else match.group()


def number_datatype(number: str) -> str:
    """The datatype of a number token (:data:`NUMBER`, maybe signed): an
    exponent makes ``xsd:double``, a point ``xsd:decimal``, anything else
    ``xsd:integer``."""
    if "e" in number or "E" in number:
        return XSD_DOUBLE
    return XSD_DECIMAL if "." in number else XSD_INTEGER


class Term:
    """Base class for all RDF terms."""

    __slots__ = ()

    def n3(self) -> str:
        """Render the term in N-Triples / SPARQL surface syntax."""
        raise NotImplementedError


class URIRef(Term):
    """An RDF URI reference (IRI)."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        if not isinstance(value, str) or not value:
            raise ValueError("URIRef requires a non-empty string, got %r" % (value,))
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, val):  # immutability guard
        raise AttributeError("URIRef is immutable")

    def __eq__(self, other):
        return isinstance(other, URIRef) and self.value == other.value

    def __hash__(self):
        return hash(("uri", self.value))

    def __repr__(self):
        return "URIRef(%r)" % self.value

    def __str__(self):
        return self.value

    def n3(self) -> str:
        return "<%s>" % self.value


class BlankNode(Term):
    """An RDF blank node, identified by a local label."""

    __slots__ = ("label",)

    _counter = 0

    def __init__(self, label: Optional[str] = None):
        if label is None:
            BlankNode._counter += 1
            label = "b%d" % BlankNode._counter
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, val):
        raise AttributeError("BlankNode is immutable")

    def __eq__(self, other):
        return isinstance(other, BlankNode) and self.label == other.label

    def __hash__(self):
        return hash(("bnode", self.label))

    def __repr__(self):
        return "BlankNode(%r)" % self.label

    def __str__(self):
        return "_:" + self.label

    def n3(self) -> str:
        return "_:" + self.label


class Literal(Term):
    """An RDF literal with optional datatype or language tag.

    The Python-native value is computed eagerly for numeric, boolean, and
    date-like datatypes so that SPARQL expression evaluation can operate on
    natural Python values.
    """

    __slots__ = ("lexical", "datatype", "language", "value")

    def __init__(self, lexical, datatype: Optional[str] = None,
                 language: Optional[str] = None):
        if language is not None and datatype is not None:
            raise ValueError("a literal cannot have both a language and a datatype")
        # Accept native Python values for convenience.
        if isinstance(lexical, bool):
            datatype = XSD_BOOLEAN
            lexical = "true" if lexical else "false"
        elif isinstance(lexical, int):
            datatype = XSD_INTEGER
            lexical = str(lexical)
        elif isinstance(lexical, float):
            datatype = XSD_DOUBLE
            lexical = repr(lexical)
        elif not isinstance(lexical, str):
            raise TypeError("unsupported literal value %r" % (lexical,))
        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "language", language)
        object.__setattr__(self, "value", _parse_value(lexical, datatype))

    def __setattr__(self, name, val):
        raise AttributeError("Literal is immutable")

    def __eq__(self, other):
        return (isinstance(other, Literal)
                and self.lexical == other.lexical
                and self.datatype == other.datatype
                and self.language == other.language)

    def __hash__(self):
        return hash(("lit", self.lexical, self.datatype, self.language))

    def __repr__(self):
        return "Literal(%r, datatype=%r, language=%r)" % (
            self.lexical, self.datatype, self.language)

    def __str__(self):
        return self.lexical

    @property
    def is_numeric(self) -> bool:
        return self.datatype in _NUMERIC_DATATYPES

    def n3(self) -> str:
        """The full form, the same in N-Triples, Turtle and SPARQL: a
        datatype is always written, ``xsd:string`` too."""
        text = '"%s"' % escape(self.lexical)
        if self.language:
            return text + "@" + self.language
        if self.datatype:
            return text + "^^<" + self.datatype + ">"
        return text

    def shorthand(self) -> Optional[str]:
        """The bare form (``1``, ``2.5``, ``1e3``, ``true``) when SPARQL
        and Turtle read it back as this very literal, else None."""
        lexical, datatype = self.lexical, self.datatype
        if datatype == XSD_BOOLEAN:
            return lexical if lexical in ("true", "false") else None
        if (_NUMBER_RE.fullmatch(lexical)
                and number_datatype(lexical) == datatype):
            return lexical
        return None


class Variable(Term):
    """A SPARQL variable, e.g. ``?movie``.  The name excludes the ``?``."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if name.startswith("?") or name.startswith("$"):
            name = name[1:]
        if not name:
            raise ValueError("variable name must be non-empty")
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, val):
        raise AttributeError("Variable is immutable")

    def __eq__(self, other):
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self):
        return hash(("var", self.name))

    def __repr__(self):
        return "Variable(%r)" % self.name

    def __str__(self):
        return "?" + self.name

    def n3(self) -> str:
        return "?" + self.name


# A concrete RDF node (what may appear in a graph).
Node = Union[URIRef, BlankNode, Literal]
# What may appear in a triple pattern.
PatternTerm = Union[URIRef, BlankNode, Literal, Variable]

Triple = Tuple[Node, Node, Node]
TriplePattern = Tuple[PatternTerm, PatternTerm, PatternTerm]


def _parse_value(lexical: str, datatype: Optional[str]):
    """Compute the natural Python value for a literal, or keep the string."""
    if datatype == XSD_INTEGER:
        try:
            return int(lexical)
        except ValueError:
            return lexical
    if datatype in (XSD_DECIMAL, XSD_DOUBLE):
        try:
            return float(lexical)
        except ValueError:
            return lexical
    if datatype == XSD_BOOLEAN:
        return lexical.strip().lower() in ("true", "1")
    return lexical


def is_concrete(term: PatternTerm) -> bool:
    """True when a pattern term is a ground RDF node (not a variable)."""
    return not isinstance(term, Variable)


def literal_year(lit: Literal) -> Optional[int]:
    """Extract the year from an ``xsd:date``/``xsd:dateTime`` literal.

    SPARQL's ``year(xsd:dateTime(?date))`` idiom, used in the topic-modeling
    case study, reduces to this operation.
    """
    text = lit.lexical
    if len(text) >= 4 and text[:4].isdigit():
        return int(text[:4])
    return None
