"""Dictionary encoding of RDF terms — dense integer ids for the data plane.

Real RDF engines (Virtuoso included, which is what the paper benchmarks
against) never join on term *objects*: terms are interned into a dictionary
at load time and the whole query pipeline — indexes, statistics, joins,
DISTINCT — operates on fixed-width integer ids.  Term objects are
re-materialized only at the result-serialization boundary.  This module
provides that dictionary.

Ids are dense (0..n-1) and assignment order is insertion order, so a
dictionary can double as an id -> term decode *array* (a plain list) with
O(1) lookups and no hashing.

A single module-level dictionary is shared by default by every
:class:`~repro.rdf.graph.Graph`, which makes ids directly comparable across
graphs: cross-graph joins (``FROM <a> FROM <b>``, ``GRAPH`` scoping, the
paper's DBpedia x YAGO case study) stay in id space with no re-encoding.
Term equality (``__eq__``/``__hash__`` on the term value objects) is the
interning key, so id equality is exactly term equality.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional

from .terms import Node


class TermDictionary:
    """A bijective term <-> dense-int-id mapping (insert-only)."""

    __slots__ = ("_ids", "_terms", "_lock", "outcomes")

    def __init__(self):
        self._ids: Dict[Node, int] = {}
        self._terms: List[Node] = []
        # Interning must be race-free under the concurrent serving tier
        # (expression evaluation interns freshly computed literals): two
        # threads encoding the same new term concurrently must agree on
        # one id.  Double-checked locking keeps the hot already-interned
        # path lock-free; only genuinely new terms take the lock.
        self._lock = threading.Lock()
        # What the query layer computed from this dictionary's ids (see
        # ``repro.sparql.operators.expressions.OutcomeStore``): ids are
        # never reused, so it stays true for the dictionary's life.
        # Made on first use.
        self.outcomes = None

    # -- encode --------------------------------------------------------
    def encode(self, term: Node) -> int:
        """Intern ``term``, returning its id (assigning a fresh one if new)."""
        tid = self._ids.get(term)
        if tid is None:
            with self._lock:
                tid = self._ids.get(term)
                if tid is None:
                    tid = len(self._terms)
                    # Append before publishing in _ids: a lock-free reader
                    # that sees the id can always decode it.
                    self._terms.append(term)
                    self._ids[term] = tid
        return tid

    def encode_many(self, terms: Iterable[Node]) -> List[int]:
        """Intern a batch of terms under one lock acquisition.

        The bulk-load path (snapshot recovery interns an entire string
        table at once): semantics are exactly ``[self.encode(t) for t in
        terms]`` minus the per-call locking and attribute traffic.
        """
        with self._lock:
            ids = self._ids
            terms_list = self._terms
            get = ids.get
            append = terms_list.append
            out = []
            for term in terms:
                tid = get(term)
                if tid is None:
                    tid = len(terms_list)
                    append(term)
                    ids[term] = tid
                out.append(tid)
        return out

    def lookup(self, term: Node) -> Optional[int]:
        """The id of ``term`` if already interned, else ``None``.

        Query constants go through ``lookup`` rather than ``encode``: a
        constant that was never loaded cannot match any triple, and probing
        must not grow the dictionary.
        """
        return self._ids.get(term)

    # -- decode --------------------------------------------------------
    def decode(self, tid: int) -> Node:
        """The term for an id previously returned by :meth:`encode`."""
        return self._terms[tid]

    def decode_many(self, tids: Iterable[Optional[int]]) -> List[Optional[Node]]:
        terms = self._terms
        return [None if tid is None else terms[tid] for tid in tids]

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: Node) -> bool:
        return term in self._ids

    def __repr__(self):
        return "TermDictionary(%d terms)" % len(self._terms)


#: Process-wide default dictionary.  Sharing one dictionary across graphs is
#: what keeps ids join-compatible between the graphs of a Dataset.
_SHARED = TermDictionary()


def shared_dictionary() -> TermDictionary:
    """The default dictionary used by graphs constructed without one."""
    return _SHARED
