"""Query result sets and conversion to dataframes.

A :class:`ResultSet` is the engine's output: an ordered list of variable
names and a list of rows of RDF terms (``None`` for unbound).  Conversion to
the repo's :class:`~repro.dataframe.DataFrame` maps RDF terms to natural
Python values (URIs to strings, typed literals to int/float/bool/str).
"""

from __future__ import annotations

import threading
from operator import itemgetter
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from ..dataframe import DataFrame
from ..rdf.terms import BlankNode, Literal, Node, URIRef


def term_to_python(term: Optional[Node]) -> Any:
    """Convert an RDF term to a natural Python value."""
    if term is None:
        return None
    if isinstance(term, URIRef):
        return term.value
    if isinstance(term, Literal):
        return term.value
    if isinstance(term, BlankNode):
        return "_:" + term.label
    raise TypeError("not an RDF term: %r" % (term,))


class ResultSet:
    """An ordered bag of solution rows."""

    def __init__(self, variables: Sequence[str],
                 rows: List[Tuple[Optional[Node], ...]]):
        self.variables = list(variables)
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tuple[Optional[Node], ...]]:
        return iter(self.rows)

    def __repr__(self):
        return "ResultSet(%d rows, vars=%s)" % (len(self.rows), self.variables)

    @classmethod
    def from_mappings(cls, solutions, variables: Optional[Sequence[str]] = None
                      ) -> "ResultSet":
        """Build from the reference evaluator's list-of-dicts multiset."""
        if variables is None:
            seen: List[str] = []
            seen_set = set()
            for mu in solutions:
                for var in mu:
                    if var not in seen_set:
                        seen_set.add(var)
                        seen.append(var)
            variables = seen
        rows = [tuple(mu.get(v) for v in variables) for mu in solutions]
        return cls(variables, rows)

    @classmethod
    def from_table(cls, table, dictionary,
                   variables: Optional[Sequence[str]] = None) -> "ResultSet":
        """Build from a columnar :class:`~.solution.SolutionTable`.

        This is the engine's decode boundary: integer term ids become RDF
        term objects here, once per output cell, and nowhere earlier in the
        pipeline."""
        if variables is None:
            variables = list(table.variables)
        positions = [table.index.get(v) for v in variables]
        decode = dictionary.decode
        if positions == list(range(len(table.variables))):
            # Identity projection: decode cells positionally.
            rows = [tuple([None if tid is None else decode(tid)
                           for tid in row])
                    for row in table.rows]
        else:
            rows = [tuple([None if p is None or row[p] is None
                           else decode(row[p]) for p in positions])
                    for row in table.rows]
        return cls(variables, rows)

    def column_cells(self) -> List[List[Optional[Node]]]:
        """Each variable's cells, in row order (one list per variable).

        Taken with ``itemgetter`` rather than ``zip(*rows)``, which makes
        one iterator object per row and so trips extra full collections
        of the garbage collector on large results."""
        return [list(map(itemgetter(i), self.rows))
                for i in range(len(self.variables))]

    def to_dataframe(self) -> DataFrame:
        """Convert to a DataFrame of Python values (the paper's final step),
        a column at a time."""
        columns = {var: [term_to_python(term) for term in cells]
                   for var, cells in zip(self.variables, self.column_cells())}
        return DataFrame(columns, columns=self.variables)

    def to_term_dataframe(self) -> DataFrame:
        """Convert to a DataFrame of raw RDF terms (``None`` for unbound).

        Used by baselines that must distinguish URIs from literals after
        extraction (e.g. the KG-embedding ``isURI`` filter done client-side).
        """
        return DataFrame(dict(zip(self.variables, self.column_cells())),
                         columns=self.variables)

    def slice(self, offset: int, limit: int) -> "ResultSet":
        """A page of the result (used by the simulated endpoint)."""
        return ResultSet(self.variables, self.rows[offset:offset + limit])

    def distinct(self) -> "ResultSet":
        """Collapse duplicate rows to multiplicity one (first occurrence
        wins), via the same streaming dedup the engine's executor uses."""
        from .solution import stream_distinct
        rows: List[Tuple[Optional[Node], ...]] = []
        for batch in stream_distinct(iter((self.rows,))):
            rows.extend(batch)
        return ResultSet(self.variables, rows)


class ResultStream:
    """A lazily-pulled query result — the engine's streaming cursor.

    Wraps the decoded row iterator of a streaming evaluation.  Rows are
    materialized incrementally into :attr:`rows` as they are pulled, so a
    page fetch of ``offset + n`` rows costs O(offset + n) local work and
    re-reading an already-fetched page costs nothing.  This is what the
    simulated endpoint keeps per query instead of a fully-materialized
    :class:`ResultSet`.
    """

    def __init__(self, variables: Sequence[str], row_iter,
                 arm_deadline=None):
        self.variables = list(variables)
        self.rows: List[Tuple[Optional[Node], ...]] = []
        self.exhausted = False
        self._iter = row_iter
        self._arm_deadline = arm_deadline
        # Concurrent pulls (the endpoint shares one cursor per query
        # across server threads) must not re-enter the generator — a
        # Python generator raises "already executing" — or interleave
        # buffer appends.  All pulling serializes on this lock; reads of
        # already-materialized rows stay lock-free.
        self._pull_lock = threading.Lock()

    def arm_deadline(self, seconds) -> None:
        """Restart the evaluation-time budget covering subsequent pulls.

        A long-lived cursor (the endpoint keeps one per query) serves many
        requests; each caller's timeout should budget *its own* pull, not
        the wall-clock lifetime of the cursor.  No-op when the underlying
        stream has no deadline support (the reference-plane fallback)."""
        if self._arm_deadline is not None:
            self._arm_deadline(seconds)

    def fetch_until(self, count: int) -> None:
        """Pull from the underlying iterator until ``count`` rows are
        materialized (or the stream ends).  Safe under concurrent pulls:
        one thread advances the iterator at a time."""
        rows = self.rows
        if len(rows) >= count or self.exhausted:
            return
        it = self._iter
        with self._pull_lock:
            append = rows.append
            while len(rows) < count and not self.exhausted:
                try:
                    append(next(it))
                except StopIteration:
                    self.exhausted = True

    def page(self, offset: int, limit: int) -> ResultSet:
        """Materialize and return one page of the result."""
        self.fetch_until(offset + limit)
        return ResultSet(self.variables, self.rows[offset:offset + limit])

    def has_more(self, offset: int) -> bool:
        """True when at least one row exists at or beyond ``offset``."""
        self.fetch_until(offset + 1)
        return len(self.rows) > offset

    def result(self) -> ResultSet:
        """Drain the stream into a complete :class:`ResultSet`."""
        while not self.exhausted:
            self.fetch_until(len(self.rows) + 4096)
        return ResultSet(self.variables, self.rows)

    def __repr__(self):
        return "ResultStream(%d rows fetched%s, vars=%s)" % (
            len(self.rows), " (exhausted)" if self.exhausted else "",
            self.variables)
