"""Namespace and prefix management.

RDFFrames users write predicates in prefixed form (``dbpp:starring``); this
module resolves prefixed names against a prefix map, and offers the common
vocabularies used by the paper's workloads (DBpedia, DBLP/SWRC, RDF(S)).
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, Tuple

from .terms import URIRef

#: A local name the Turtle and SPARQL readers take whole: ASCII, and no
#: dot at either end (a trailing one would end the statement).
_LOCAL = re.compile(r"[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?")


class Namespace:
    """A URI namespace; attribute and item access mint :class:`URIRef` terms.

    >>> DBPP = Namespace("http://dbpedia.org/property/")
    >>> DBPP.starring
    URIRef('http://dbpedia.org/property/starring')
    """

    def __init__(self, base: str):
        self._base = base

    @property
    def base(self) -> str:
        return self._base

    def term(self, name: str) -> URIRef:
        return URIRef(self._base + name)

    def __getattr__(self, name: str) -> URIRef:
        if name.startswith("_"):
            raise AttributeError(name)
        return self.term(name)

    def __getitem__(self, name: str) -> URIRef:
        return self.term(name)

    def __contains__(self, uri) -> bool:
        return str(uri).startswith(self._base)

    def __repr__(self):
        return "Namespace(%r)" % self._base


# Standard vocabularies.
RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
XSD = Namespace("http://www.w3.org/2001/XMLSchema#")
OWL = Namespace("http://www.w3.org/2002/07/owl#")
FOAF = Namespace("http://xmlns.com/foaf/0.1/")
DC = Namespace("http://purl.org/dc/elements/1.1/")
DCTERMS = Namespace("http://purl.org/dc/terms/")

# Vocabularies used by the paper's workloads.
DBPP = Namespace("http://dbpedia.org/property/")
DBPO = Namespace("http://dbpedia.org/ontology/")
DBPR = Namespace("http://dbpedia.org/resource/")
SWRC = Namespace("http://swrc.ontoware.org/ontology#")
DBLPRC = Namespace("http://dblp.l3s.de/d2r/resource/conferences/")
YAGO = Namespace("http://yago-knowledge.org/resource/")

#: Prefix bindings assumed by default in every :class:`PrefixMap`.
DEFAULT_PREFIXES: Dict[str, str] = {
    "rdf": RDF.base,
    "rdfs": RDFS.base,
    "xsd": XSD.base,
    "owl": OWL.base,
    "foaf": FOAF.base,
    "dc": DC.base,
    "dcterms": DCTERMS.base,
    "dcterm": DCTERMS.base,
    "dbpp": DBPP.base,
    "dbpo": DBPO.base,
    "dbpr": DBPR.base,
    "swrc": SWRC.base,
    "dblprc": DBLPRC.base,
    "yago": YAGO.base,
}


class PrefixMap:
    """A bidirectional prefix <-> namespace mapping.

    Used both by the RDFFrames API (to resolve user-supplied prefixed names)
    and by the SPARQL translator (to emit PREFIX declarations).
    """

    def __init__(self, prefixes: Dict[str, str] = None,
                 include_defaults: bool = True):
        self._map: Dict[str, str] = {}
        if include_defaults:
            self._map.update(DEFAULT_PREFIXES)
        if prefixes:
            self._map.update(prefixes)

    def bind(self, prefix: str, base: str) -> None:
        self._map[prefix] = base

    def __contains__(self, prefix: str) -> bool:
        return prefix in self._map

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(sorted(self._map.items()))

    def items(self):
        return sorted(self._map.items())

    def resolve(self, name: str) -> URIRef:
        """Resolve ``prefix:local`` (or a full ``<uri>``/``http://…``) to a URIRef."""
        if name.startswith("<") and name.endswith(">"):
            return URIRef(name[1:-1])
        if name.startswith("http://") or name.startswith("https://"):
            return URIRef(name)
        prefix, sep, local = name.partition(":")
        if not sep:
            raise ValueError("not a prefixed name: %r" % name)
        if prefix not in self._map:
            raise KeyError("unknown prefix %r in %r" % (prefix, name))
        return URIRef(self._map[prefix] + local)

    def shrink(self, uri: URIRef) -> str:
        """Render a URI in prefixed form when a binding matches, else ``<uri>``."""
        text = str(uri)
        best_prefix, best_base = None, ""
        for prefix, base in self._map.items():
            if text.startswith(base) and len(base) > len(best_base):
                best_prefix, best_base = prefix, base
        if best_prefix is not None:
            local = text[len(best_base):]
            if _LOCAL.fullmatch(local):
                return "%s:%s" % (best_prefix, local)
        return "<%s>" % text

    def used_prefixes(self, text: str) -> Dict[str, str]:
        """Return the subset of bindings whose prefix appears in a query text."""
        used = {}
        for prefix, base in self._map.items():
            if (prefix + ":") in text:
                used[prefix] = base
        return used
