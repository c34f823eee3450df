"""Turtle parsing and serialization.

Public knowledge-graph dumps ship in Turtle at least as often as in
N-Triples (DBpedia's distributions are .ttl), and rdflib — whose role
:mod:`repro.rdf` plays — parses both.  This module implements the Turtle
fragment those dumps use:

* ``@prefix`` / ``@base`` directives (and the SPARQL-style ``PREFIX``),
* prefixed names and ``<...>`` IRIs,
* the ``a`` keyword,
* predicate lists (``;``) and object lists (``,``),
* literals: quoted (with ``@lang`` / ``^^datatype``), integers, decimals,
  doubles, booleans,
* blank node labels (``_:b``) and anonymous blank nodes (``[]``,
  including property lists ``[ p o ; q r ]``),
* comments.

Collections ``( ... )`` are not supported (absent from the target dumps).
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional, TextIO, Tuple, Union

from .graph import Graph
from .namespaces import PrefixMap
from .terms import (NUMBER, BlankNode, Literal, Node, Triple, URIRef,
                    XSD_BOOLEAN, number_datatype, unescape)
from .namespaces import RDF


class TurtleError(ValueError):
    """Raised on malformed Turtle input."""

    def __init__(self, message: str, line: int):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


#: An IRI that starts with a scheme is absolute (RFC 3986 §3.1).
_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*:")

_TOKEN_RE = re.compile(r"""
    (?P<COMMENT>\#[^\n]*)
  | (?P<IRI><[^<>"{}|^`\\\x00-\x20]*>)
  | (?P<STRING_LONG>\"\"\"(?:[^"\\]|\\.|"(?!""))*\"\"\")
  | (?P<STRING>"(?:[^"\\\n]|\\.)*")
  | (?P<KEYWORD>@prefix|@base|PREFIX(?![A-Za-z0-9_:])|BASE(?![A-Za-z0-9_:])
               |true(?![A-Za-z0-9_:])|false(?![A-Za-z0-9_:])|a(?![A-Za-z0-9_:]))
  | (?P<LANGTAG>@[A-Za-z][A-Za-z0-9-]*)
  | (?P<DTYPE>\^\^)
  | (?P<BNODE>_:[A-Za-z0-9][A-Za-z0-9_.-]*)
  | (?P<NUMBER>[+-]?(?:%s))
  | (?P<PNAME>[A-Za-z_][A-Za-z0-9_-]*:[A-Za-z0-9_][A-Za-z0-9_.-]*|[A-Za-z_][A-Za-z0-9_-]*:|:[A-Za-z0-9_][A-Za-z0-9_.-]*|:)
  | (?P<PUNCT>[;,.\[\]()])
  | (?P<WS>\s+)
""" % NUMBER, re.VERBOSE)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    line = 1
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise TurtleError("unexpected character %r" % text[pos], line)
        kind = match.lastgroup
        value = match.group(0)
        line += value.count("\n")
        pos = match.end()
        if kind in ("WS", "COMMENT"):
            continue
        if kind == "PNAME" and value.endswith("."):
            # Trailing dot is the statement terminator.
            stripped = value.rstrip(".")
            dots = len(value) - len(stripped)
            tokens.append(("PNAME", stripped, line))
            tokens.extend([("PUNCT", ".", line)] * dots)
            continue
        tokens.append((kind, value, line))
    tokens.append(("EOF", "", line))
    return tokens


class _TurtleParser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.prefixes: Dict[str, str] = {}
        self.base = ""
        self.triples: List[Triple] = []
        self._anon = 0

    # ------------------------------------------------------------------
    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        token = self.tokens[self.pos]
        if token[0] != "EOF":
            self.pos += 1
        return token

    def expect_punct(self, value: str):
        kind, text, line = self.next()
        if kind != "PUNCT" or text != value:
            raise TurtleError("expected %r, got %r" % (value, text), line)

    # ------------------------------------------------------------------
    def parse(self) -> Iterator[Triple]:
        while self.peek()[0] != "EOF":
            kind, value, line = self.peek()
            if kind == "KEYWORD" and value in ("@prefix", "PREFIX"):
                self._parse_prefix(value == "@prefix")
            elif kind == "KEYWORD" and value in ("@base", "BASE"):
                self._parse_base(value == "@base")
            else:
                self._parse_statement()
        return iter(self.triples)

    def _parse_prefix(self, dotted: bool):
        self.next()
        kind, pname, line = self.next()
        if kind != "PNAME":
            raise TurtleError("expected prefix name", line)
        prefix = pname[:-1] if pname.endswith(":") else pname.split(":")[0]
        kind, iri, line = self.next()
        if kind != "IRI":
            raise TurtleError("expected IRI after prefix", line)
        self.prefixes[prefix] = self._resolve(iri[1:-1])
        if dotted:
            self.expect_punct(".")

    def _parse_base(self, dotted: bool):
        self.next()
        kind, iri, line = self.next()
        if kind != "IRI":
            raise TurtleError("expected IRI after base", line)
        self.base = iri[1:-1]
        if dotted:
            self.expect_punct(".")

    def _resolve(self, iri: str) -> str:
        """``iri`` as written when it has a scheme (absolute), else
        joined to the current base."""
        if _SCHEME.match(iri):
            return iri
        return self.base + iri

    def _parse_statement(self):
        subject = self._parse_subject()
        self._parse_predicate_object_list(subject)
        self.expect_punct(".")

    def _parse_subject(self) -> Node:
        kind, value, line = self.peek()
        if kind == "PUNCT" and value == "[":
            return self._parse_blank_node_property_list()
        term = self._parse_term(expect="subject")
        if isinstance(term, Literal):
            raise TurtleError("literal subject", line)
        return term

    def _parse_predicate_object_list(self, subject: Node):
        while True:
            predicate = self._parse_predicate()
            while True:
                obj = self._parse_object()
                self.triples.append((subject, predicate, obj))
                kind, value, _ = self.peek()
                if kind == "PUNCT" and value == ",":
                    self.next()
                    continue
                break
            kind, value, _ = self.peek()
            if kind == "PUNCT" and value == ";":
                self.next()
                # Permit dangling ';' before '.' or ']'
                kind, value, _ = self.peek()
                if kind == "PUNCT" and value in (".", "]"):
                    break
                continue
            break

    def _parse_predicate(self) -> URIRef:
        kind, value, line = self.peek()
        if kind == "KEYWORD" and value == "a":
            self.next()
            return RDF.type
        term = self._parse_term(expect="predicate")
        if not isinstance(term, URIRef):
            raise TurtleError("predicate must be an IRI", line)
        return term

    def _parse_object(self) -> Node:
        kind, value, _ = self.peek()
        if kind == "PUNCT" and value == "[":
            return self._parse_blank_node_property_list()
        return self._parse_term(expect="object")

    def _parse_blank_node_property_list(self) -> BlankNode:
        self.expect_punct("[")
        self._anon += 1
        node = BlankNode("anon%d" % self._anon)
        kind, value, _ = self.peek()
        if not (kind == "PUNCT" and value == "]"):
            self._parse_predicate_object_list(node)
        self.expect_punct("]")
        return node

    def _parse_term(self, expect: str) -> Node:
        kind, value, line = self.next()
        if kind == "IRI":
            return URIRef(self._resolve(value[1:-1]))
        if kind == "PNAME":
            prefix, _, local = value.partition(":")
            if prefix not in self.prefixes:
                raise TurtleError("unknown prefix %r" % prefix, line)
            return URIRef(self.prefixes[prefix] + local)
        if kind == "BNODE":
            return BlankNode(value[2:])
        if kind in ("STRING", "STRING_LONG"):
            text = value[3:-3] if kind == "STRING_LONG" else value[1:-1]
            text = unescape(text)
            next_kind, next_value, _ = self.peek()
            if next_kind == "LANGTAG":
                self.next()
                return Literal(text, language=next_value[1:])
            if next_kind == "DTYPE":
                self.next()
                datatype = self._parse_term(expect="datatype")
                if not isinstance(datatype, URIRef):
                    raise TurtleError("datatype must be an IRI", line)
                return Literal(text, datatype=str(datatype))
            return Literal(text)
        if kind == "NUMBER":
            return Literal(value, datatype=number_datatype(value))
        if kind == "KEYWORD" and value in ("true", "false"):
            return Literal(value, datatype=XSD_BOOLEAN)
        raise TurtleError("expected %s, got %r" % (expect, value), line)


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def parse(source: Union[str, TextIO]) -> Iterator[Triple]:
    """Yield triples from a Turtle document (string or file object)."""
    text = source if isinstance(source, str) else source.read()
    return _TurtleParser(text).parse()


def parse_into_graph(source: Union[str, TextIO], graph: Graph) -> int:
    """Parse a Turtle document into a graph; returns new-triple count."""
    return graph.update(parse(source))


def serialize(triples, prefixes: Optional[Dict[str, str]] = None,
              group_subjects: bool = True) -> str:
    """Serialize triples to Turtle, grouping predicate/object lists per
    subject and abbreviating URIs with the given prefix map."""
    prefix_map = PrefixMap(prefixes or {})
    by_subject: Dict[Node, List[Tuple[Node, Node]]] = {}
    order: List[Node] = []
    for s, p, o in triples:
        if s not in by_subject:
            by_subject[s] = []
            order.append(s)
        by_subject[s].append((p, o))

    def render(term: Node) -> str:
        if isinstance(term, URIRef):
            if term == RDF.type:
                return "a"
            return prefix_map.shrink(term)
        return term.n3()

    body_lines: List[str] = []
    for subject in order:
        pairs = by_subject[subject]
        subject_text = (subject.n3() if isinstance(subject, BlankNode)
                        else prefix_map.shrink(subject))
        if group_subjects and len(pairs) > 1:
            body_lines.append(subject_text)
            for index, (p, o) in enumerate(pairs):
                terminator = " ;" if index < len(pairs) - 1 else " ."
                body_lines.append("    %s %s%s" % (render(p), render(o),
                                                   terminator))
        else:
            for p, o in pairs:
                body_lines.append("%s %s %s ." % (subject_text, render(p),
                                                  render(o)))
    body = "\n".join(body_lines)

    used = []
    for prefix, base in prefix_map.items():
        if ("%s:" % prefix) in body:
            used.append("@prefix %s: <%s> ." % (prefix, base))
    header = "\n".join(used)
    return (header + "\n\n" + body + "\n") if header else body + "\n"
