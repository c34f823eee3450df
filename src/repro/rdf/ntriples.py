"""N-Triples parsing and serialization.

The ``rdflib + pandas`` baseline in the paper loads N-Triples dumps and scans
them in Python.  This module provides the equivalent substrate: a strict
line-oriented N-Triples parser and serializer.
"""

from __future__ import annotations

import gzip
import io
import os
import re
from typing import Iterable, Iterator, TextIO, Tuple, Union

from .graph import Graph
from .terms import BlankNode, Literal, Node, Triple, URIRef, unescape

_IRI = r"<([^<>\"{}|^`\\\x00-\x20]*)>"
_BNODE = r"_:([A-Za-z0-9][A-Za-z0-9_.-]*)"
_LITERAL = r'"((?:[^"\\]|\\.)*)"(?:\^\^<([^<>]*)>|@([A-Za-z][A-Za-z0-9-]*))?'

_SUBJECT = re.compile(r"\s*(?:%s|%s)" % (_IRI, _BNODE))
_PREDICATE = re.compile(r"\s*%s" % _IRI)
_OBJECT = re.compile(r"\s*(?:%s|%s|%s)" % (_IRI, _BNODE, _LITERAL))
_END = re.compile(r"\s*\.\s*(#.*)?$")


class NTriplesError(ValueError):
    """Raised on malformed N-Triples input."""

    def __init__(self, message: str, line_number: int, line: str):
        super().__init__("line %d: %s: %r" % (line_number, message, line[:120]))
        self.line_number = line_number
        self.line = line


def parse_line(line: str, line_number: int = 0) -> Triple:
    """Parse one N-Triples statement into a triple."""
    match = _SUBJECT.match(line)
    if not match:
        raise NTriplesError("expected subject", line_number, line)
    subject: Node = (URIRef(match.group(1)) if match.group(1) is not None
                     else BlankNode(match.group(2)))
    pos = match.end()

    match = _PREDICATE.match(line, pos)
    if not match:
        raise NTriplesError("expected predicate IRI", line_number, line)
    predicate = URIRef(match.group(1))
    pos = match.end()

    match = _OBJECT.match(line, pos)
    if not match:
        raise NTriplesError("expected object", line_number, line)
    iri, bnode, lit, datatype, language = match.groups()
    if iri is not None:
        obj: Node = URIRef(iri)
    elif bnode is not None:
        obj = BlankNode(bnode)
    else:
        obj = Literal(unescape(lit), datatype=datatype, language=language)
    pos = match.end()

    if not _END.match(line, pos):
        raise NTriplesError("expected terminating '.'", line_number, line)
    return (subject, predicate, obj)


def parse(source: Union[str, TextIO]) -> Iterator[Triple]:
    """Yield triples from an N-Triples document (string or file object)."""
    stream = io.StringIO(source) if isinstance(source, str) else source
    for line_number, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield parse_line(stripped, line_number)


def _open_source(source: Union[str, TextIO]):
    """Resolve a loader source to ``(line iterable, closer)``.

    A string naming an existing file (no newline in it, so document text
    can never be mistaken for a path) is opened from disk — gzip
    transparently, sniffed from the two magic bytes rather than the file
    name.  Anything else keeps the historical contract: strings are
    document text, file objects are streamed as-is.
    """
    if isinstance(source, str):
        if "\n" not in source and os.path.isfile(source):
            with open(source, "rb") as probe:
                magic = probe.read(2)
            if magic == b"\x1f\x8b":
                fobj = gzip.open(source, "rt", encoding="utf-8")
            else:
                fobj = open(source, "r", encoding="utf-8")
            return fobj, fobj
        return io.StringIO(source), None
    return source, None


def parse_into_graph(source: Union[str, TextIO], graph: Graph,
                     strict: bool = True) -> Union[int, Tuple[int, int]]:
    """Stream a document into a graph; returns the number of new triples.

    ``source`` may be document text, an open text stream, or a *path* to
    an N-Triples file (``.nt`` or gzipped, sniffed by magic bytes) —
    dumps are streamed line by line, never materialized.  Terms are
    encoded through the graph's dictionary and inserted with ``add_ids``
    directly, skipping per-triple term re-dispatch on the bulk path.

    With ``strict=False`` malformed lines are counted instead of fatal
    and the return value becomes a ``(triples_added,
    parse_errors_skipped)`` tuple — a 10M-line crawl dump with one bad
    line loads 10M-1 triples instead of dying at the bad one.
    """
    stream, closer = _open_source(source)
    encode = graph.dictionary.encode
    add_ids = graph.add_ids
    added = 0
    skipped = 0
    try:
        for line_number, line in enumerate(stream, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                s, p, o = parse_line(stripped, line_number)
            except NTriplesError:
                if strict:
                    raise
                skipped += 1
                continue
            if add_ids(encode(s), encode(p), encode(o)):
                added += 1
    finally:
        if closer is not None:
            closer.close()
    if strict:
        return added
    return added, skipped


def serialize_triple(triple: Triple) -> str:
    s, p, o = triple
    return "%s %s %s ." % (s.n3(), p.n3(), o.n3())


def serialize(triples: Iterable[Triple]) -> str:
    """Serialize triples to an N-Triples document string."""
    return "\n".join(serialize_triple(t) for t in triples) + "\n"


def write(triples: Iterable[Triple], stream: TextIO) -> int:
    """Write triples to a text stream; returns the count written."""
    count = 0
    for t in triples:
        stream.write(serialize_triple(t))
        stream.write("\n")
        count += 1
    return count
