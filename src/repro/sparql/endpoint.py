"""A simulated SPARQL-protocol endpoint.

Section 4.3 of the paper explains why RDFFrames paginates results when it
talks to an endpoint over HTTP: the endpoint only returns the first chunk
of a result (its size capped by server configuration), and the client must
request the remainder chunk by chunk; endpoints also impose time budgets.

This module reproduces that contract in-process so the client-side
pagination machinery is exercised for real: an :class:`Endpoint` caps every
response at ``max_rows`` rows and reports whether more are available; the
client re-requests with increasing offsets.  A per-query ``timeout``
simulates endpoint time budgets.

Failures cross the endpoint boundary *classified*: raw engine exceptions
(parse errors, deadline trips, row-budget trips) are mapped onto the
:mod:`~repro.sparql.errors` taxonomy — all :class:`EndpointError`
subtypes — so clients can retry transient failures and fail fast on
deterministic ones.  The original exception is chained as ``__cause__``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from .engine import Engine
from .errors import EndpointError, classify_error
from . import json_results
from .results import ResultSet, ResultStream

__all__ = ["Endpoint", "EndpointError", "EndpointResponse"]


class EndpointResponse:
    """One page of results, mirroring an HTTP response.

    ``payload`` is the page serialized in the W3C SPARQL 1.1 JSON results
    format (what a real endpoint sends on the wire); ``result`` keeps the
    in-memory page for in-process convenience.  Clients simulating HTTP
    should read ``payload`` and decode it, paying the real parse cost.
    """

    def __init__(self, result: ResultSet, offset: int, has_more: bool,
                 payload: Optional[str] = None):
        self.result = result
        self.offset = offset
        self.has_more = has_more
        self.payload = payload

    def __repr__(self):
        return "EndpointResponse(%d rows at %d, has_more=%s)" % (
            len(self.result), self.offset, self.has_more)


class Endpoint:
    """A SPARQL endpoint façade over an :class:`Engine`.

    Parameters
    ----------
    engine:
        The backing engine.
    max_rows:
        The server-configured response cap (Virtuoso's ``ResultSetMaxRows``).
    timeout:
        Per-query execution budget in seconds; exceeded -> a
        :class:`~repro.sparql.errors.TransientError` chained from the
        underlying :class:`QueryTimeout`.
    cursor_cache_size:
        How many per-query lazy cursors are kept (LRU).  Cursors are keyed
        on :meth:`Engine.result_key` (query structure + dataset
        fingerprint) — the key plans and cached results use — so two
        spellings of a query share a cursor, and a graph mutation makes
        every pre-mutation cursor unreachable instead of serving stale
        pages.
    result_cache:
        An optional shared :class:`~repro.sparql.cache.ResultCache` —
        typically the same instance a :class:`~repro.sparql.server
        .QueryServer` over this engine uses, so HTTP-style paging and
        in-process submissions see one coherent store.  Complete results
        (an exhausted cursor) are inserted under the engine's normalized
        plan key; later requests for any page of the same query are
        sliced from the cached result without touching the evaluator.
        Failed pulls are never inserted (the cursor is dropped instead).
    """

    def __init__(self, engine: Engine, max_rows: int = 10000,
                 timeout: Optional[float] = None,
                 cursor_cache_size: int = 32,
                 result_cache=None, cache_tenant: str = "endpoint"):
        if max_rows <= 0:
            raise ValueError("max_rows must be positive")
        if cursor_cache_size < 0:
            raise ValueError("cursor_cache_size must be >= 0")
        self.engine = engine
        self.max_rows = max_rows
        self.timeout = timeout
        self.cursor_cache_size = cursor_cache_size
        self.result_cache = result_cache
        self.cache_tenant = cache_tenant
        self.requests_served = 0
        # A lazy cursor is kept per (query, dataset state) so
        # pagination neither re-executes the query nor materializes rows
        # no client asked for: serving the page at ``offset`` pulls at
        # most ``offset + page`` rows from the engine's streaming
        # executor, and rows already pulled for earlier pages are served
        # from the cursor's buffer (mirrors endpoint-side cursors/result
        # caches).  Bounded LRU: it cannot grow without limit under
        # one-off query texts, and the fingerprint in the key invalidates
        # cursors that pre-date a graph mutation.
        self._cache: "OrderedDict[str, ResultStream]" = OrderedDict()
        self._lock = threading.Lock()

    def request(self, query_text: str, offset: int = 0,
                limit: Optional[int] = None) -> EndpointResponse:
        """Serve one page of a query's results.

        ``limit`` can lower (never raise) the per-response row cap.
        Failures surface as classified :class:`EndpointError` subtypes
        with the raw engine exception chained as ``__cause__``.
        """
        self.requests_served += 1
        page_size = self.max_rows if limit is None \
            else min(limit, self.max_rows)
        result_cache = self.result_cache
        try:
            # One key for plans, cached results and cursors (structure +
            # default graph + dataset fingerprint): a hit here serves
            # pages the QueryServer populated, and vice versa.
            key = self.engine.result_key(query_text)
            cached = None if result_cache is None else result_cache.get(key)
            if cached is not None:
                full = cached[0]
                page = full.slice(offset, page_size)
                return EndpointResponse(
                    page, offset, offset + len(page) < len(full),
                    payload=json_results.encode_results(page))
            with self._lock:
                cursor = self._cache.get(key)
                if cursor is not None:
                    self._cache.move_to_end(key)
            if cursor is None:
                cursor = self.engine.stream(query_text, timeout=self.timeout)
                with self._lock:
                    if self.cursor_cache_size > 0:
                        self._cache[key] = cursor
                        while len(self._cache) > self.cursor_cache_size:
                            self._cache.popitem(last=False)
            elif self.timeout is not None:
                # Each request gets a fresh evaluation budget: the timeout
                # bounds this page's pull, not the cursor's wall-clock
                # lifetime (client think-time between pages is free).
                cursor.arm_deadline(self.timeout)
            try:
                page = cursor.page(offset, page_size)
                has_more = cursor.has_more(offset + len(page))
            except Exception:
                # A failed pull (timeout, row budget, cancellation) kills
                # the underlying generator: drop the cursor so the next
                # request re-executes instead of silently serving a
                # truncated/empty result.
                with self._lock:
                    self._cache.pop(key, None)
                raise
        except Exception as exc:
            classified = classify_error(exc)
            if classified is exc:
                raise
            raise classified from exc
        if result_cache is not None and cursor.exhausted:
            # The cursor drained without a failed pull: its buffer is the
            # complete result, safe to share.  Partial cursors are never
            # inserted, and failed pulls dropped the cursor above.
            result_cache.put(
                key, ResultSet(cursor.variables, list(cursor.rows)),
                tenant=self.cache_tenant)
        return EndpointResponse(page, offset, has_more,
                                payload=json_results.encode_results(page))

    def clear_cache(self):
        with self._lock:
            self._cache.clear()

    @property
    def cached_cursors(self) -> int:
        """How many lazy cursors the endpoint currently holds."""
        return len(self._cache)
