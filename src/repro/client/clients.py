"""Clients: how RDFFrames talks to an RDF engine or SPARQL endpoint.

The paper's Executor "sends the generated SPARQL query to an RDF engine or
SPARQL endpoint, handles all communication issues, and returns the results
to the user in a dataframe".  Two clients are provided:

* :class:`EngineClient` — in-process execution against an
  :class:`~repro.sparql.Engine` (the 'local RDF engine' path).
* :class:`HttpClient` — drives a simulated SPARQL-protocol
  :class:`~repro.sparql.Endpoint`, with *transparent pagination*: results
  are fetched chunk by chunk (each response capped by the endpoint's
  ``max_rows``) and assembled into a single dataframe, exactly as
  Section 4.3 describes; transient failures are retried.
"""

from __future__ import annotations

import time
from typing import Optional

from ..core.query_model import QueryModel
from ..core.translator import translate
from ..dataframe import DataFrame
from ..sparql.endpoint import Endpoint, EndpointError
from ..sparql.engine import Engine
from ..sparql.errors import CircuitBreaker, TransientError, is_retryable
from ..sparql.results import ResultSet

#: Return-format names mirroring the original library's HttpClientDataFormat.
PANDAS_DF = "dataframe"
RECORDS = "records"


class ClientError(RuntimeError):
    """Raised when a query cannot be executed by a client."""


class EngineClient:
    """Executes queries directly against an in-process engine.

    Speaks SPARQL text, like every client: :meth:`RDFFrame.execute
    <repro.core.rdfframe.RDFFrame.execute>` sends the frame's generated
    query to :meth:`execute`, and the engine parses it (a repeated text
    is a memo hit, not a second parse).  :meth:`execute_model` renders a
    query model to that text first.

    Example
    -------
    >>> from repro.client import EngineClient
    >>> from repro.data import DBPEDIA_URI, build_dataset
    >>> from repro.sparql import Engine
    >>> client = EngineClient(Engine(build_dataset(scale=0.02)),
    ...                       default_graph_uri=DBPEDIA_URI)
    >>> df = client.execute(
    ...     "PREFIX dbpp: <http://dbpedia.org/property/> "
    ...     "SELECT ?film ?actor WHERE { ?film dbpp:starring ?actor }")
    >>> list(df.columns)
    ['film', 'actor']
    """

    def __init__(self, engine: Engine, default_graph_uri: Optional[str] = None):
        self.engine = engine
        self.default_graph_uri = default_graph_uri

    def execute(self, query: str) -> DataFrame:
        """Run a SPARQL query and return the full result as a dataframe."""
        result = self.engine.query(query,
                                   default_graph_uri=self.default_graph_uri)
        return result.to_dataframe()

    def execute_model(self, model) -> DataFrame:
        """Run an RDFFrames query model: :meth:`execute` of its SPARQL."""
        return self.execute(translate(model, validate=False))

    def execute_terms(self, query: str) -> DataFrame:
        """Like :meth:`execute` but cells hold raw RDF terms."""
        result = self.engine.query(query,
                                   default_graph_uri=self.default_graph_uri)
        return result.to_term_dataframe()

    def execute_page(self, source, offset: int = 0,
                     limit: int = 1000) -> DataFrame:
        """Fetch one page of a query's results as a dataframe.

        ``source`` is SPARQL text or an RDFFrames query model (rendered
        to SPARQL text first).  The page
        rides the engine's streaming cursor (:meth:`Engine.stream
        <repro.sparql.engine.Engine.stream>`): only about
        ``offset + limit`` rows are produced locally, however large the
        full result — check ``last_stats.rows_pulled``.

        Example
        -------
        >>> from repro.client import EngineClient
        >>> from repro.data import DBPEDIA_URI, build_dataset
        >>> from repro.sparql import Engine
        >>> client = EngineClient(Engine(build_dataset(scale=0.02)),
        ...                       default_graph_uri=DBPEDIA_URI)
        >>> page = client.execute_page(
        ...     "PREFIX dbpp: <http://dbpedia.org/property/> "
        ...     "SELECT ?f ?a WHERE { ?f dbpp:starring ?a }",
        ...     offset=10, limit=5)
        >>> len(page)
        5
        """
        if isinstance(source, QueryModel):
            source = translate(source, validate=False)
        cursor = self.engine.stream(source,
                                    default_graph_uri=self.default_graph_uri)
        return cursor.page(offset, limit).to_dataframe()

    @property
    def last_stats(self):
        """The engine's :class:`~repro.sparql.EvaluationStats` for the most
        recent query (pattern matches, intermediate rows, cache hits) —
        consumed by the perf-report runner and the ablation benchmarks."""
        return self.engine.last_stats

    @property
    def last_elapsed(self) -> float:
        """Server-side evaluation seconds for the most recent query."""
        return self.engine.last_elapsed

    def __repr__(self):
        return "EngineClient(%r)" % self.engine


class HttpClient:
    """Executes queries against a (simulated) SPARQL endpoint over 'HTTP'.

    Parameters
    ----------
    endpoint:
        The endpoint to query.
    page_size:
        Requested rows per response; the endpoint may cap it lower.
    max_retries:
        *Retryable* endpoint errors (the taxonomy's ``TransientError``
        family, including corrupted wire payloads) are retried this many
        times per page.  Non-retryable classes — a malformed query, a
        tripped row budget, load shedding — fail fast on the first
        attempt, preserving the original failure as ``__cause__``.
    retry_delay:
        Base backoff in seconds: attempt ``k`` sleeps
        ``retry_delay * 2**k``, capped at ``max_retry_delay`` (0 disables
        sleeping, the default, which keeps tests instant).
    breaker_threshold / breaker_cooldown:
        Circuit breaker over endpoint health: after ``breaker_threshold``
        *consecutive* transient/internal failures the circuit opens and
        requests fail fast (no endpoint call, no backoff sleeps) until
        ``breaker_cooldown`` seconds pass; then one half-open probe
        decides.  ``breaker_threshold=None`` disables the breaker.
        Deterministic failures (malformed query, row budget) are server
        *answers*, not health signals — they reset the streak.
    """

    def __init__(self, endpoint: Endpoint, page_size: Optional[int] = None,
                 max_retries: int = 3, retry_delay: float = 0.0,
                 max_retry_delay: float = 2.0,
                 breaker_threshold: Optional[int] = 8,
                 breaker_cooldown: float = 1.0):
        self.endpoint = endpoint
        self.page_size = page_size
        self.max_retries = max_retries
        self.retry_delay = retry_delay
        self.max_retry_delay = max_retry_delay
        self.pages_fetched = 0
        self.retries_performed = 0
        self.breaker = None if breaker_threshold is None else CircuitBreaker(
            failure_threshold=breaker_threshold, cooldown=breaker_cooldown)
        self._sleep = time.sleep  # injectable for tests

    def execute(self, query: str) -> DataFrame:
        """Fetch all pages of a query's results into one dataframe."""
        return self._fetch_all(query).to_dataframe()

    def execute_terms(self, query: str) -> DataFrame:
        """Like :meth:`execute` but cells hold raw RDF terms."""
        return self._fetch_all(query).to_term_dataframe()

    def execute_page(self, query: str, offset: int = 0,
                     limit: Optional[int] = None) -> DataFrame:
        """Fetch one window of a query's results as a dataframe.

        Example
        -------
        >>> from repro.client import HttpClient
        >>> from repro.data import build_dataset
        >>> from repro.sparql import Endpoint, Engine
        >>> endpoint = Endpoint(Engine(build_dataset(scale=0.02)))
        >>> client = HttpClient(endpoint, page_size=50)
        >>> page = client.execute_page(
        ...     "PREFIX dbpp: <http://dbpedia.org/property/> "
        ...     "SELECT ?f ?a FROM <http://dbpedia.org> "
        ...     "WHERE { ?f dbpp:starring ?a }",
        ...     offset=5, limit=20)
        >>> len(page)
        20

        Returns exactly ``min(limit, rows available)`` rows starting at
        ``offset``; when ``limit`` exceeds the endpoint's per-response
        cap, additional requests fill the window (so a capped response is
        never silently mistaken for the end of the result).  With
        ``limit=None`` the client's ``page_size`` is the window; if that
        is also unset, a single endpoint-capped response is returned.
        The endpoint serves every request from its per-query streaming
        cursor, so the window costs O(offset + limit) server-side row
        production — not a full materialization of the result.
        """
        if limit is None:
            limit = self.page_size
        return self._fetch_window(query, offset=offset, budget=limit,
                                  single=limit is None).to_dataframe()

    def _decode_page(self, response, offset: int) -> ResultSet:
        from ..sparql.json_results import decode_results

        if response.payload is None:
            return response.result
        try:
            return decode_results(response.payload)
        except (ValueError, KeyError, TypeError) as exc:
            # A truncated/corrupt page is wire damage, not a server
            # verdict: classified transient so the retry loop re-requests
            # it instead of surfacing a silently damaged result.
            raise TransientError(
                "endpoint returned a malformed SPARQL-JSON payload "
                "at offset %d: %s" % (offset, exc)) from exc

    def _fetch_all(self, query: str) -> ResultSet:
        return self._fetch_window(query)

    def _fetch_window(self, query: str, offset: int = 0,
                      budget: Optional[int] = None,
                      single: bool = False) -> ResultSet:
        """The pagination loop behind :meth:`execute` and
        :meth:`execute_page`.

        Crawls pages from ``offset``, accumulating rows until ``budget``
        rows are collected (``None``: until the endpoint reports no more;
        with ``single`` a lone endpoint-capped response is returned).
        Each response's wire payload is decoded (the real SPARQL-JSON
        parse cost that SPARQLWrapper pays), falling back to the
        in-memory page if the endpoint did not provide one.
        """
        variables = None
        rows: list = []
        cursor = offset
        while True:
            remaining = self.page_size if budget is None \
                else budget - len(rows)
            response, page = self._request_with_retry(query, cursor,
                                                      limit=remaining)
            if variables is None:
                variables = page.variables
            rows.extend(page.rows)
            self.pages_fetched += 1
            if budget is not None and len(rows) >= budget:
                break
            if single:
                break
            if not response.has_more:
                break
            if len(page) == 0:
                raise ClientError("endpoint reported more results but "
                                  "returned an empty page at offset %d"
                                  % cursor)
            cursor += len(page)
        return ResultSet(variables or [], rows)

    @property
    def last_stats(self):
        """Server-side evaluation stats of the backing engine for the most
        recent request.  The endpoint keeps one cursor per
        :meth:`Engine.result_key <repro.sparql.engine.Engine.result_key>`
        (query structure, default graph and dataset state), so for
        paginated fetches these are the stats of the execution that
        opened the cursor."""
        return self.endpoint.engine.last_stats

    def _backoff_delay(self, attempt: int) -> float:
        """Capped exponential backoff before retry ``attempt`` (0-based)."""
        if self.retry_delay <= 0:
            return 0.0
        return min(self.retry_delay * (2 ** attempt), self.max_retry_delay)

    _USE_PAGE_SIZE = object()  # sentinel: caller did not override the limit

    def _request_with_retry(self, query: str, offset: int,
                            limit=_USE_PAGE_SIZE):
        """One page, fetched *and decoded*, with classified retries.

        Returns ``(response, decoded_page)``.  An attempt covers the
        endpoint round trip plus the wire decode, so a corrupted payload
        is retried exactly like a dropped connection.  Only retryable
        error classes burn retry attempts; a non-retryable failure (a
        malformed query, a tripped row budget, load shedding, an open
        circuit) fails fast with the original exception chained.
        """
        if limit is self._USE_PAGE_SIZE:
            limit = self.page_size
        last_error = None
        for attempt in range(self.max_retries + 1):
            try:
                if self.breaker is not None:
                    self.breaker.check()  # open -> fail fast, no request
                response = self.endpoint.request(query, offset=offset,
                                                 limit=limit)
                page = self._decode_page(response, offset)
            except EndpointError as exc:
                last_error = exc
                self._record_breaker_outcome(exc)
                if not is_retryable(exc):
                    raise ClientError(
                        "endpoint failed fetching the page at offset %d "
                        "(%s, not retried): %s"
                        % (offset, type(exc).__name__, exc)) from exc
                if attempt < self.max_retries:
                    self.retries_performed += 1
                    delay = self._backoff_delay(attempt)
                    if delay:
                        self._sleep(delay)
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                return response, page
        raise ClientError(
            "endpoint failed after %d retries fetching the page at "
            "offset %d: %s" % (self.max_retries, offset,
                               last_error)) from last_error

    def _record_breaker_outcome(self, exc: EndpointError) -> None:
        """Feed the breaker health signals only: transient and internal
        failures count; deterministic per-query verdicts (malformed
        query, row budget) prove the endpoint is alive and reset it."""
        from ..sparql.errors import (CircuitOpenError, MalformedQuery,
                                     QueryCancelled, ResourceExhausted)
        if self.breaker is None or isinstance(exc, CircuitOpenError):
            return
        if isinstance(exc, (MalformedQuery, ResourceExhausted,
                            QueryCancelled)):
            self.breaker.record_success()
        else:
            self.breaker.record_failure()

    def __repr__(self):
        return "HttpClient(page_size=%r)" % self.page_size


class FlakyEndpoint(Endpoint):
    """Test double: an endpoint that fails the first N requests of each
    page with a retryable :class:`TransientError` (exercises the client's
    retry path).  For richer failure modes — seeded schedules, corrupted
    payloads, mid-stream timeouts — use the generalized
    :class:`~repro.sparql.faults.FaultyEndpoint` layer."""

    def __init__(self, engine: Engine, failures_per_query: int = 1, **kwargs):
        super().__init__(engine, **kwargs)
        self.failures_per_query = failures_per_query
        self._failures: dict = {}

    def request(self, query_text: str, offset: int = 0, limit=None):
        key = (query_text, offset)
        count = self._failures.get(key, 0)
        if count < self.failures_per_query:
            self._failures[key] = count + 1
            raise TransientError("simulated transient failure (%d)" % count)
        return super().request(query_text, offset=offset, limit=limit)
