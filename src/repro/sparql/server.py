"""A concurrent, fault-tolerant query-serving tier over a shared engine.

The ROADMAP's "millions of users" axis: real endpoints multiplex many
concurrent requests over shared read-only graphs, and survive overload by
*admission control* — refusing work they cannot finish — rather than by
wedging.  :class:`QueryServer` is that tier for this repo's engine:

* **Worker pool.**  ``workers`` threads pull tickets from a *bounded*
  queue.  Planning is serialized (the engine's plan cache is shared
  state); execution runs concurrently, one thread-confined
  :class:`~repro.sparql.evaluator.Evaluator` per request via
  :meth:`Engine.evaluate_plan`.  Result-cache hits never reach the
  pool: :meth:`QueryServer.submit` answers them itself.
* **Admission control.**  A full queue or a tenant over its in-flight cap
  sheds the request *at submit time* with
  :class:`~repro.sparql.errors.ServerOverloaded` — fail fast, no queue
  camping.  Per-request ``timeout`` and ``max_rows`` budgets wire
  straight into the evaluator's existing deadline and row-budget valves.
* **Cooperative cancellation.**  Every ticket carries a
  :class:`~repro.sparql.errors.CancelToken` checked at the evaluator's
  deadline checkpoints: a client that gives up kills its query
  mid-operator, and the freed worker moves on.
* **Classified failures.**  Whatever goes wrong, the ticket resolves to
  an :class:`~repro.sparql.errors.EndpointError` subtype — never a
  silently truncated result.

>>> from repro.rdf import Graph, Literal, URIRef
>>> from repro.sparql import Engine
>>> from repro.sparql.server import QueryServer
>>> g = Graph("http://g")
>>> for i in range(6):
...     _ = g.add(URIRef("http://x/s%d" % i), URIRef("http://x/p"),
...               Literal(i))
>>> with QueryServer(Engine(g), workers=2) as server:
...     ticket = server.submit("SELECT ?s ?v WHERE { ?s <http://x/p> ?v }")
...     len(ticket.result())
6
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from typing import Dict, List, Optional

from .cache import ResultCache
from .engine import Engine
from .errors import (CancelToken, QueryCancelled, ServerOverloaded,
                     classify_error)
from .evaluator import EvaluationStats
from .results import ResultSet

__all__ = ["QueryServer", "QueryTicket", "ServerStats"]

#: Ticket lifecycle states.
QUEUED, RUNNING, DONE, FAILED, CANCELLED = (
    "queued", "running", "done", "failed", "cancelled")


class QueryTicket:
    """One admitted request: a future over the query's outcome.

    ``result()`` blocks until the query resolves and either returns the
    :class:`ResultSet` or raises the classified failure.  ``cancel()``
    requests cooperative cancellation — a no-op once the query resolved.
    """

    def __init__(self, ticket_id: int, tenant: str, query: str):
        self.id = ticket_id
        self.tenant = tenant
        self.query = query
        self.state = QUEUED
        self.cancel_token = CancelToken()
        self.stats: Optional[EvaluationStats] = None
        self.elapsed: Optional[float] = None  # evaluator seconds
        self.waited: Optional[float] = None   # queue seconds before start
        #: How the result cache treated this request: ``"hit"`` (served
        #: from cache), ``"miss"`` (executed and inserted), ``"coalesced"``
        #: (shared a concurrent leader's execution), ``"bypass"``
        #: (``cache=False`` or no cache configured), or ``None`` while
        #: unresolved.
        self.cache_state: Optional[str] = None
        self._submitted = time.perf_counter()
        self._done = threading.Event()
        self._running = threading.Event()
        self._result: Optional[ResultSet] = None
        self._error: Optional[BaseException] = None

    # -- client side ---------------------------------------------------
    def cancel(self, reason: Optional[str] = None) -> None:
        """Request cancellation (cooperative; safe from any thread)."""
        self.cancel_token.cancel(reason)

    def done(self) -> bool:
        return self._done.is_set()

    def wait_running(self, timeout: Optional[float] = None) -> bool:
        """Block until a worker picked this ticket up (or it resolved
        without ever running, e.g. cancelled while queued).  An event,
        not a poll — tests use it instead of wall-clock sleeps."""
        return self._running.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> ResultSet:
        """Block until resolved; return the result or raise the failure."""
        if not self._done.wait(timeout):
            raise TimeoutError("ticket %d not resolved within %.3gs"
                               % (self.id, timeout))
        if self._error is not None:
            raise self._error
        return self._result

    def error(self, timeout: Optional[float] = None
              ) -> Optional[BaseException]:
        """Block until resolved; the classified failure, or None."""
        if not self._done.wait(timeout):
            raise TimeoutError("ticket %d not resolved within %.3gs"
                               % (self.id, timeout))
        return self._error

    # -- server side ---------------------------------------------------
    def _resolve(self, state: str, result: Optional[ResultSet] = None,
                 error: Optional[BaseException] = None) -> None:
        self.state = state
        self._result = result
        self._error = error
        self._running.set()  # resolved tickets never leave waiters parked
        self._done.set()

    def __repr__(self):
        return "QueryTicket(id=%d, tenant=%r, state=%r)" % (
            self.id, self.tenant, self.state)


class ServerStats:
    """Thread-safe serving counters (all monotone)."""

    FIELDS = ("submitted", "admitted", "shed", "completed", "failed",
              "cancelled", "cache_hits", "cache_misses", "coalesced",
              "cache_evictions")

    def __init__(self):
        self._lock = threading.Lock()
        for field in self.FIELDS:
            setattr(self, field, 0)
        self.errors_by_class: Dict[str, int] = {}
        self.peak_in_flight = 0

    def bump(self, *fields: str, by: int = 1) -> None:
        """Add ``by`` to every named counter under one lock acquisition."""
        with self._lock:
            for field in fields:
                setattr(self, field, getattr(self, field) + by)

    def record_error(self, exc: BaseException) -> None:
        with self._lock:
            name = type(exc).__name__
            self.errors_by_class[name] = self.errors_by_class.get(name, 0) + 1

    def record_in_flight(self, now: int) -> None:
        with self._lock:
            if now > self.peak_in_flight:
                self.peak_in_flight = now

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            out = {field: getattr(self, field) for field in self.FIELDS}
            out["peak_in_flight"] = self.peak_in_flight
            out["errors_by_class"] = dict(self.errors_by_class)
            return out

    def __repr__(self):
        return "ServerStats(%r)" % self.as_dict()


class QueryServer:
    """A threaded query server multiplexing one shared read-only engine.

    Parameters
    ----------
    engine:
        The shared engine.  Its graphs are treated as read-only for the
        server's lifetime; the term dictionary and lazy index structures
        are safe under concurrent readers (build-then-publish + interning
        lock).  Workers execute plans, so a reference engine
        (``columnar=False``) is refused with :class:`ValueError`.
    workers:
        Executor threads.
    queue_size:
        Bound on queued (admitted but not yet running) requests; a full
        queue sheds with :class:`ServerOverloaded`.
    max_inflight_per_tenant:
        Per-tenant cap on queued+running requests — one noisy tenant
        cannot occupy the whole queue.  ``None`` disables the cap.
    default_timeout / default_max_rows:
        Per-request budget defaults, overridable per ``submit`` call,
        wired to the evaluator's deadline and row-budget valves.
    default_graph_uri:
        Passed through to plan/execute for every request.
    result_cache:
        An optional :class:`~repro.sparql.cache.ResultCache` shared by
        every request (and, if desired, by an :class:`Endpoint` over the
        same engine).  When present, ``submit``'s ``cache`` knob decides
        per request whether the cache is consulted; hits skip the
        evaluator entirely and concurrent identical submissions coalesce
        onto a single execution.
    """

    def __init__(self, engine: Engine, workers: int = 4,
                 queue_size: int = 16,
                 max_inflight_per_tenant: Optional[int] = None,
                 default_timeout: Optional[float] = None,
                 default_max_rows: Optional[int] = None,
                 default_graph_uri: Optional[str] = None,
                 result_cache: Optional[ResultCache] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if not engine.columnar:
            raise ValueError("QueryServer executes plans; a reference "
                             "engine (columnar=False) has none")
        self.engine = engine
        self.default_timeout = default_timeout
        self.default_max_rows = default_max_rows
        self.default_graph_uri = default_graph_uri
        self.max_inflight_per_tenant = max_inflight_per_tenant
        self.result_cache = result_cache
        self.stats = ServerStats()
        self._queue: "queue.Queue[Optional[tuple]]" = queue.Queue(
            maxsize=queue_size)
        # Planning mutates the engine's shared LRU plan cache; serialize
        # it.  Execution (the expensive part) runs outside the lock.
        self._plan_lock = threading.Lock()
        self._admission_lock = threading.Lock()
        self._idle = threading.Condition(self._admission_lock)
        self._inflight_by_tenant: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._closed = False
        self._workers: List[threading.Thread] = []
        for i in range(workers):
            thread = threading.Thread(target=self._worker_loop,
                                      name="query-server-%d" % i,
                                      daemon=True)
            thread.start()
            self._workers.append(thread)

    # -- submission ----------------------------------------------------
    def submit(self, query: str, tenant: str = "anonymous",
               timeout: Optional[float] = None,
               max_rows: Optional[int] = None,
               cache: bool = True) -> QueryTicket:
        """Admit a query, returning a :class:`QueryTicket` future.

        Raises :class:`ServerOverloaded` immediately — never blocks —
        when the request queue is full or the tenant is at its in-flight
        cap; a shed request consumes no evaluator time at all.

        A request the result cache can answer is answered here, on the
        caller's thread, after those admission checks: the returned
        ticket is already resolved (``cache_state == 'hit'``, ``waited``
        and ``elapsed`` ``0.0``) and it took no queue slot, no tenant
        in-flight slot and no worker — for a text seen before, not even
        a parse.  Everything else is queued for a worker, which probes
        the cache once more before it plans (the result may have landed
        meanwhile) and coalesces with concurrent identical requests.

        >>> from repro.rdf import Graph, Literal, URIRef
        >>> g = Graph("http://g")
        >>> _ = g.add(URIRef("http://x/s"), URIRef("http://x/p"), Literal(1))
        >>> text = "SELECT ?s WHERE { ?s <http://x/p> ?v }"
        >>> with QueryServer(Engine(g), workers=1,
        ...                  result_cache=ResultCache()) as server:
        ...     cold = server.submit(text)
        ...     _ = cold.result()
        ...     warm = server.submit(text)
        ...     warm.done(), warm.cache_state, warm.waited, server.in_flight
        (True, 'hit', 0.0, 0)

        ``cache`` controls the result cache for *this* request (a no-op
        when the server has none): ``True`` consults it and inserts
        results subject to the cache's size policy; ``False`` bypasses
        the cache entirely — the request always executes and its result
        is never stored.  Cached and coalesced replies share the
        producing execution's result and stats; a request that needs
        strict per-request ``max_rows`` enforcement is served from cache
        only when the cached result fits its budget (otherwise it
        executes and trips the valve exactly as an uncached one would).
        """
        if not isinstance(cache, bool):
            raise ValueError("cache must be True or False, got %r" % (cache,))
        if self._closed:
            raise ServerOverloaded("server is shut down")
        budget_timeout = self.default_timeout if timeout is None else timeout
        budget_rows = self.default_max_rows if max_rows is None else max_rows
        front_door = self.result_cache is not None and cache
        # A front-door hit takes no in-flight slot, but a tenant at its
        # cap is shed before the probe all the same.
        self._admit(tenant, hold=not front_door)
        ticket = QueryTicket(next(self._ids), tenant, query)
        if front_door:
            if self._front_door_hit(ticket, budget_rows):
                return ticket
            self._admit(tenant, hold=True)
        try:
            self._queue.put_nowait(
                (ticket, budget_timeout, budget_rows, cache))
        except queue.Full:
            self._release_tenant(tenant)
            self.stats.bump("submitted", "shed")
            raise ServerOverloaded(
                "request queue full (%d queued)" % self._queue.maxsize) \
                from None
        self.stats.bump("submitted", "admitted")
        return ticket

    def _admit(self, tenant: str, hold: bool) -> None:
        """Shed the request if ``tenant`` is at its in-flight cap; with
        ``hold``, take one of the tenant's in-flight slots."""
        with self._admission_lock:
            inflight = self._inflight_by_tenant.get(tenant, 0)
            cap = self.max_inflight_per_tenant
            if cap is not None and inflight >= cap:
                self.stats.bump("submitted", "shed")
                raise ServerOverloaded(
                    "tenant %r already has %d requests in flight (cap %d)"
                    % (tenant, inflight, cap))
            if hold:
                self._inflight_by_tenant[tenant] = inflight + 1
                self.stats.record_in_flight(
                    sum(self._inflight_by_tenant.values()))

    def _front_door_hit(self, ticket: QueryTicket,
                        budget_rows: Optional[int]) -> bool:
        """Resolve ``ticket`` from the result cache on the caller's
        thread: no parse or plan for a memoised text, no queue slot, no
        hand-off to a worker."""
        try:
            key = self.engine.result_key(ticket.query, self.default_graph_uri)
        except Exception:  # noqa: BLE001
            # Not lost: the worker hits the same error and classifies it
            # onto the ticket, as for any other request.
            return False
        return self._serve_cached(ticket, key, budget_rows,
                                  front_door=True) == "hit"

    def execute(self, query: str, tenant: str = "anonymous",
                timeout: Optional[float] = None,
                max_rows: Optional[int] = None,
                cache: bool = True) -> ResultSet:
        """Synchronous convenience: submit and wait for the result."""
        return self.submit(query, tenant=tenant, timeout=timeout,
                           max_rows=max_rows, cache=cache).result()

    def _release_tenant(self, tenant: str) -> None:
        with self._admission_lock:
            remaining = self._inflight_by_tenant.get(tenant, 1) - 1
            if remaining <= 0:
                self._inflight_by_tenant.pop(tenant, None)
            else:
                self._inflight_by_tenant[tenant] = remaining
            self._idle.notify_all()

    @property
    def in_flight(self) -> int:
        """Currently admitted-and-unresolved requests across tenants."""
        with self._admission_lock:
            return sum(self._inflight_by_tenant.values())

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no request is admitted-and-unresolved.

        Event-driven (a condition notified as tenants drain), so tests
        and drain logic need no wall-clock polling loops.  Returns
        ``False`` on timeout."""
        with self._idle:
            return self._idle.wait_for(
                lambda: not self._inflight_by_tenant, timeout)

    # -- execution -----------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:  # shutdown sentinel
                self._queue.task_done()
                return
            ticket, budget_timeout, budget_rows, use_cache = item
            try:
                self._run_ticket(ticket, budget_timeout, budget_rows,
                                 use_cache)
            finally:
                self._release_tenant(ticket.tenant)
                self._queue.task_done()

    def _run_ticket(self, ticket: QueryTicket,
                    budget_timeout: Optional[float],
                    budget_rows: Optional[int],
                    use_cache: bool = True) -> None:
        ticket.waited = time.perf_counter() - ticket._submitted
        if ticket.cancel_token.cancelled:
            # Cancelled while queued: zero evaluator time spent.
            ticket.stats = EvaluationStats()
            self.stats.bump("cancelled")
            ticket._resolve(CANCELLED, error=QueryCancelled(
                "query cancelled while queued"))
            return
        ticket.state = RUNNING
        ticket._running.set()
        cache = self.result_cache
        if cache is None or not use_cache:
            ticket.cache_state = "bypass"
            self._execute_plain(ticket, budget_timeout, budget_rows)
            return
        try:
            key = self.engine.result_key(ticket.query, self.default_graph_uri)
        except Exception as exc:  # noqa: BLE001 — classified below
            self._fail(ticket, exc)
            return
        while True:
            # Probed again here although submit() already did: a result
            # can land between submit and run.
            outcome = self._serve_cached(ticket, key, budget_rows)
            if outcome == "hit":
                return
            if outcome == "oversize":
                # The cached result would never have fit this request's
                # row budget: execute so the valve trips exactly as it
                # would uncached.
                ticket.cache_state = "bypass"
                self._execute_plain(ticket, budget_timeout, budget_rows)
                return
            is_leader, flight = cache.join_flight(key)
            if is_leader:
                self._lead_flight(ticket, key, flight, budget_timeout,
                                  budget_rows)
                return
            # Follower: park until the leader resolves or aborts.  The
            # flight only exists while a leader worker is executing, so
            # someone is always making progress — no deadlock.
            flight.wait()
            if ticket.cancel_token.cancelled:
                err = QueryCancelled("query cancelled while coalesced")
                self.stats.record_error(err)
                self.stats.bump("cancelled")
                ticket._resolve(CANCELLED, error=err)
                return
            if flight.ok and (budget_rows is None
                              or len(flight.result) <= budget_rows):
                ticket.cache_state = "coalesced"
                ticket.stats = flight.stats
                ticket.elapsed = 0.0
                self.stats.bump("coalesced")
                self.stats.bump("completed")
                ticket._resolve(DONE, result=flight.result)
                return
            # Leader aborted (cancelled/failed) or the shared result
            # busts this follower's row budget: loop — serve from cache,
            # coalesce behind a new leader, or become one ourselves.

    def _serve_cached(self, ticket: QueryTicket, key: str,
                      budget_rows: Optional[int],
                      front_door: bool = False) -> str:
        """Probe the result cache for ``key`` and resolve ``ticket`` from
        it.  Returns ``'hit'`` (resolved), ``'miss'``, or ``'oversize'``
        (cached, but larger than this request's row budget).

        Every request is counted once: the front-door probe counts only
        the hits it serves and leaves everything else to the worker-side
        probe that follows."""
        cache = self.result_cache
        cached = cache.get(key, count=not front_door)
        if cached is None:
            return "miss"
        result, stats = cached
        if budget_rows is not None and len(result) > budget_rows:
            return "oversize"
        ticket.cache_state = "hit"
        ticket.stats = stats
        ticket.elapsed = 0.0
        if front_door:
            ticket.waited = 0.0
            cache.stats.bump("hits")
            self.stats.bump("submitted", "admitted", "cache_hits",
                            "completed")
        else:
            self.stats.bump("cache_hits", "completed")
        ticket._resolve(DONE, result=result)
        return "hit"

    def _evaluate(self, ticket: QueryTicket,
                  budget_timeout: Optional[float],
                  budget_rows: Optional[int]):
        """Plan (serialized: the engine's plan cache is shared state) and
        execute (concurrent) — only requests the cache could not answer
        get here."""
        with self._plan_lock:
            plan = self.engine.plan(ticket.query, self.default_graph_uri)
        return self.engine.evaluate_plan(
            plan, self.default_graph_uri, timeout=budget_timeout,
            cancel=ticket.cancel_token, max_rows=budget_rows)

    def _lead_flight(self, ticket: QueryTicket, key: str, flight,
                     budget_timeout: Optional[float],
                     budget_rows: Optional[int]) -> None:
        """Execute as the single-flight leader; share or abort."""
        cache = self.result_cache
        self.stats.bump("cache_misses")
        resolved = False
        try:
            try:
                result, stats, elapsed = self._evaluate(
                    ticket, budget_timeout, budget_rows)
            except Exception as exc:  # noqa: BLE001 — classified below
                # A failed execution is never inserted into the cache.
                self._fail(ticket, exc)
                return
            ticket.cache_state = "miss"
            evicted = cache.put(key, result, stats, tenant=ticket.tenant)
            if evicted:
                self.stats.bump("cache_evictions", by=evicted)
            cache.resolve_flight(key, flight, result, stats)
            resolved = True
            ticket.stats = stats
            ticket.elapsed = elapsed
            self.stats.bump("completed")
            ticket._resolve(DONE, result=result)
        finally:
            if not resolved:
                cache.abort_flight(key, flight)

    def _execute_plain(self, ticket: QueryTicket,
                       budget_timeout: Optional[float],
                       budget_rows: Optional[int]) -> None:
        try:
            result, stats, elapsed = self._evaluate(
                ticket, budget_timeout, budget_rows)
        except Exception as exc:  # noqa: BLE001 — classified below
            self._fail(ticket, exc)
            return
        ticket.stats = stats
        ticket.elapsed = elapsed
        self.stats.bump("completed")
        ticket._resolve(DONE, result=result)

    def _fail(self, ticket: QueryTicket, exc: BaseException) -> None:
        """Classify and resolve a failed execution."""
        ticket.stats = getattr(exc, "evaluation_stats", None)
        classified = classify_error(exc)
        if classified is not exc:
            classified.__cause__ = exc
        self.stats.record_error(classified)
        if isinstance(classified, QueryCancelled):
            self.stats.bump("cancelled")
            ticket._resolve(CANCELLED, error=classified)
        else:
            self.stats.bump("failed")
            ticket._resolve(FAILED, error=classified)

    # -- lifecycle -----------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop admitting, then stop workers (after the queue drains)."""
        if self._closed:
            return
        self._closed = True
        for _ in self._workers:
            self._queue.put(None)
        if wait:
            for thread in self._workers:
                thread.join()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self):
        return "QueryServer(workers=%d, in_flight=%d, %r)" % (
            len(self._workers), self.in_flight, self.stats)
