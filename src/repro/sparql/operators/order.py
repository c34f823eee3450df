"""Ordering and windows: ORDER BY, top-k and LIMIT/OFFSET.

A window selects rows by position, so pruning its input would change
which rows it selects: ``Slice`` and ``TopK`` give their child no
sideways filter.  A full ``OrderBy`` keeps every row, so it passes the
scope through.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from ...rdf.terms import Literal
from .. import algebra as alg
from ..solution import TableStream


def stream_orderby(ev, node: alg.OrderBy, graph, hint: Optional[int],
                   sip) -> TableStream:
    inner = ev.stream(node.pattern, graph, None, sip)
    key = order_key(ev.dictionary.decode, inner.index, node.keys)

    def batches():
        rows: List[tuple] = []  # breaker
        for batch in inner.batches:
            rows.extend(batch)
        rows.sort(key=key)
        if rows:
            yield rows

    return TableStream(inner.variables, ev._meter(batches()))


def stream_topk(ev, node: alg.TopK, graph, hint: Optional[int],
                sip) -> TableStream:
    inner = ev.stream(node.pattern, graph, None, {})
    key = order_key(ev.dictionary.decode, inner.index, node.keys)
    keep = node.offset + node.limit
    offset = node.offset

    def batches():
        rows = heapq.nsmallest(keep, inner.rows(), key=key)[offset:]
        if rows:
            yield rows

    return TableStream(inner.variables, ev._meter(batches()))


def stream_slice(ev, node: alg.Slice, graph, hint: Optional[int],
                 sip) -> TableStream:
    start = node.offset
    limit = node.limit
    need = None if limit is None else start + limit
    child_hint = hint if need is None \
        else (need if hint is None else min(hint, need))
    inner = ev.stream(node.pattern, graph, child_hint, {})
    stats = ev.stats

    def batches():
        if limit == 0:
            stats.early_exits += 1
            return
        seen = 0
        for batch in inner.batches:
            end = seen + len(batch)
            if end > start:
                lo = max(0, start - seen)
                hi = len(batch) if need is None \
                    else min(len(batch), need - seen)
                piece = batch if lo == 0 and hi == len(batch) \
                    else batch[lo:hi]
                if piece:
                    yield piece
            seen = end
            if need is not None and end >= need:
                # The bound is satisfied: stop pulling.  Upstream
                # producers past this point never run.
                stats.early_exits += 1
                close = getattr(inner.batches, "close", None)
                if close is not None:
                    close()
                return

    return TableStream(inner.variables, ev._meter(batches()))


def order_key(decode, index: Dict[str, int], keys):
    """One composite, direction-aware sort key for ``ORDER BY``.

    Builds a single ``row -> tuple`` function covering every sort key
    (descending components wrapped in :class:`_Desc`), so a multi-key
    ORDER BY is one stable sort instead of one full re-sort per key.
    Keys naming variables absent from the schema are skipped (unbound
    everywhere — a stable no-op).  Decoded key values are memoized per
    term id: a column with many repeated terms pays one decode per
    distinct term, not one per row.
    """
    # One memo per key: maps term id -> finished key component (direction
    # wrapper included, so ids repeat their component without
    # re-decoding or re-wrapping).
    specs = [(index[var], direction == "desc", {})
             for var, direction in keys if var in index]

    def key(row):
        parts = []
        for pos, desc, cache in specs:
            tid = row[pos]
            part = cache.get(tid)
            if part is None:
                part = sort_key(None if tid is None else decode(tid))
                if desc:
                    part = _Desc(part)
                cache[tid] = part
            parts.append(part)
        return tuple(parts)

    return key


def sort_key(value):
    """Total order for ORDER BY: unbound < numbers < strings/URIs."""
    if value is None:
        return (0, 0, "")
    if isinstance(value, Literal):
        if value.is_numeric:
            return (1, value.value, "")
        return (2, 0, str(value.lexical))
    return (2, 0, str(value))


class _Desc:
    """Inverts the comparison order of a wrapped sort key.

    Used for the DESC components of a composite ORDER BY key (strings have
    no arithmetic negation).  Equal keys stay equal, so sort stability is
    untouched.
    """

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return other.key == self.key
