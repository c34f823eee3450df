"""Correctness of the serving-tier result cache.

Covers the cache's contract layer by layer: accounting (hit/miss/evict
counters), bounded growth (global and per-tenant quotas, oversized-entry
rejection), invalidation (mutation-then-resubmit returns fresh rows),
single-flight coalescing (N concurrent identical submits share one
evaluator run; a cancelled leader does not poison followers), and the
never-cache-a-failure rule."""

import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.rdf import Graph, Literal, URIRef
from repro.sparql import (Engine, QueryCancelled, ResourceExhausted,
                          ResultCache, ResultSet, approximate_result_bytes)
from repro.sparql.server import QueryServer

QUERY = "SELECT ?s ?v WHERE { ?s <http://x/p> ?v }"
CROSS = ("SELECT ?a ?b WHERE { ?a <http://x/p> ?x . ?b <http://x/p> ?y }")


def small_graph(n=8):
    g = Graph("http://g")
    for i in range(n):
        g.add(URIRef("http://x/s%d" % i), URIRef("http://x/p"), Literal(i))
    return g


def result_of(n):
    return ResultSet(["s"], [(URIRef("http://x/r%d" % i),) for i in range(n)])


def named_bag(result):
    return sorted(
        tuple(sorted((v, repr(t)) for v, t in zip(result.variables, row)))
        for row in result.rows)


# ---------------------------------------------------------------------------
# Accounting and bounds (cache unit level)
# ---------------------------------------------------------------------------

class TestAccounting:
    def test_hit_miss_counters(self):
        cache = ResultCache(max_entries=4)
        assert cache.get("k1") is None
        cache.put("k1", result_of(3))
        got = cache.get("k1")
        assert got is not None and len(got[0]) == 3
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.inserts == 1

    def test_lru_eviction_order_and_counter(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", result_of(1))
        cache.put("b", result_of(1))
        assert cache.get("a") is not None  # a is now most-recent
        evicted = cache.put("c", result_of(1))
        assert evicted == 1
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_byte_budget_evicts(self):
        entry = approximate_result_bytes(result_of(10))
        cache = ResultCache(max_entries=100, max_bytes=int(entry * 2.5))
        cache.put("a", result_of(10))
        cache.put("b", result_of(10))
        assert len(cache) == 2
        cache.put("c", result_of(10))  # 3 entries bust the byte budget
        assert len(cache) == 2 and "a" not in cache
        assert cache.total_bytes <= int(entry * 2.5)

    def test_oversized_entry_rejected_unless_forced(self):
        entry = approximate_result_bytes(result_of(50))
        cache = ResultCache(max_entry_bytes=entry - 1)
        assert cache.put("big", result_of(50)) == 0
        assert "big" not in cache
        assert cache.stats.rejected == 1
        cache.put("big", result_of(50), force=True)
        assert "big" in cache

    def test_reinsert_replaces_without_double_accounting(self):
        cache = ResultCache(max_entries=4)
        cache.put("k", result_of(5))
        before = cache.total_bytes
        cache.put("k", result_of(5))
        assert len(cache) == 1
        assert cache.total_bytes == before

    def test_invalidate_and_clear(self):
        cache = ResultCache()
        cache.put("k", result_of(1))
        assert cache.invalidate("k") is True
        assert cache.invalidate("k") is False
        cache.put("k2", result_of(1))
        cache.clear()
        assert len(cache) == 0 and cache.total_bytes == 0


class TestTenantQuotas:
    def test_tenant_entry_quota_evicts_own_entries_only(self):
        cache = ResultCache(max_entries=100, tenant_max_entries=2)
        cache.put("b1", result_of(1), tenant="B")
        for i in range(5):
            cache.put("a%d" % i, result_of(1), tenant="A")
        entries, _ = cache.tenant_usage("A")
        assert entries == 2
        assert "a3" in cache and "a4" in cache
        assert "b1" in cache  # B untouched by A's churn

    def test_tenant_byte_quota(self):
        entry = approximate_result_bytes(result_of(10))
        cache = ResultCache(tenant_max_bytes=int(entry * 2.5))
        for i in range(4):
            cache.put("a%d" % i, result_of(10), tenant="A")
        _, nbytes = cache.tenant_usage("A")
        assert nbytes <= int(entry * 2.5)

    def test_global_pressure_evicts_inserter_first(self):
        """Tenant A churning past the global cap cannot starve B."""
        cache = ResultCache(max_entries=4)
        cache.put("b1", result_of(1), tenant="B")
        cache.put("b2", result_of(1), tenant="B")
        for i in range(10):
            cache.put("a%d" % i, result_of(1), tenant="A")
        assert "b1" in cache and "b2" in cache
        entries_a, _ = cache.tenant_usage("A")
        assert entries_a == 2  # A squeezed into what B left free

    def test_fresh_entry_exceeding_tenant_quota_does_not_stick(self):
        entry = approximate_result_bytes(result_of(20))
        cache = ResultCache(tenant_max_bytes=entry - 1)
        cache.put("a", result_of(20), tenant="A")
        assert "a" not in cache
        cache.put("a", result_of(20), tenant="A", force=True)
        assert "a" in cache  # cache=True forces past the quota


# ---------------------------------------------------------------------------
# Server integration
# ---------------------------------------------------------------------------

class TestServerCache:
    def test_hit_miss_bypass_states(self):
        cache = ResultCache()
        with QueryServer(Engine(small_graph()), workers=2,
                         result_cache=cache) as server:
            t1 = server.submit(QUERY)
            r1 = t1.result()
            t2 = server.submit(QUERY)
            r2 = t2.result()
            t3 = server.submit(QUERY, cache=False)
            r3 = t3.result()
            assert (t1.cache_state, t2.cache_state, t3.cache_state) \
                == ("miss", "hit", "bypass")
            assert named_bag(r1) == named_bag(r2) == named_bag(r3)
            stats = server.stats.as_dict()
            assert stats["cache_hits"] == 1
            assert stats["cache_misses"] == 1
            assert stats["completed"] == 3

    def test_hit_shares_producing_executions_stats(self):
        cache = ResultCache()
        with QueryServer(Engine(small_graph()), workers=1,
                         result_cache=cache) as server:
            t1 = server.submit(QUERY)
            t1.result()
            t2 = server.submit(QUERY)
            t2.result()
            assert t2.stats is t1.stats  # the hit reports the real work
            assert t2.elapsed == 0.0

    def test_invalid_cache_knob_rejected(self):
        with QueryServer(Engine(small_graph()), workers=1) as server:
            with pytest.raises(ValueError):
                server.submit(QUERY, cache="always")

    def test_mutation_then_resubmit_returns_fresh_rows(self):
        g = small_graph(4)
        cache = ResultCache()
        with QueryServer(Engine(g), workers=1,
                         result_cache=cache) as server:
            t1 = server.submit(QUERY)
            assert len(t1.result()) == 4
            g.add(URIRef("http://x/s99"), URIRef("http://x/p"), Literal(99))
            t2 = server.submit(QUERY)
            assert len(t2.result()) == 5
            assert t2.cache_state == "miss"  # old entry unreachable
            g.remove(URIRef("http://x/s99"), URIRef("http://x/p"),
                     Literal(99))
            t3 = server.submit(QUERY)
            assert len(t3.result()) == 4
            assert t3.cache_state == "miss"

    def test_same_length_replace_still_invalidates(self):
        """remove+add netting an unchanged triple count must not serve
        the pre-mutation rows (the fingerprint carries Graph.version)."""
        g = small_graph(4)
        cache = ResultCache()
        with QueryServer(Engine(g), workers=1,
                         result_cache=cache) as server:
            rows1 = named_bag(server.submit(QUERY).result())
            g.remove(URIRef("http://x/s0"), URIRef("http://x/p"),
                     Literal(0))
            g.add(URIRef("http://x/s0"), URIRef("http://x/p"),
                  Literal(1000))
            assert len(g) == 4 * 1  # same length as before
            t2 = server.submit(QUERY)
            rows2 = named_bag(t2.result())
            assert t2.cache_state == "miss"
            assert rows1 != rows2

    def test_failed_execution_never_inserted(self):
        cache = ResultCache()
        with QueryServer(Engine(small_graph(12)), workers=1,
                         result_cache=cache) as server:
            err = server.submit(CROSS, max_rows=3).error()
            assert isinstance(err, ResourceExhausted)
            assert len(cache) == 0
            assert server.stats.failed == 1
            # And a successful run afterwards does insert.
            assert len(server.submit(QUERY).result()) == 12
            assert len(cache) == 1

    def test_cached_result_busting_row_budget_executes_instead(self):
        """A hit may not smuggle rows past this request's max_rows."""
        cache = ResultCache()
        with QueryServer(Engine(small_graph(12)), workers=1,
                         result_cache=cache) as server:
            assert len(server.submit(QUERY).result()) == 12
            ticket = server.submit(QUERY, max_rows=3)
            assert isinstance(ticket.error(), ResourceExhausted)
            assert ticket.cache_state == "bypass"


    def test_every_request_is_counted_exactly_once(self):
        """A miss is probed at the front door and again by the worker; a
        hit is served by either.  Both count once, in both stat sets."""
        cache = ResultCache()
        with QueryServer(Engine(small_graph(12)), workers=1,
                         result_cache=cache) as server:
            def counts():
                c, s = cache.stats.as_dict(), server.stats.as_dict()
                assert s["submitted"] == s["admitted"] + s["shed"]
                return (c["hits"], c["misses"], s["cache_hits"],
                        s["cache_misses"], s["completed"] + s["failed"])

            server.execute(QUERY)                      # miss
            assert counts() == (0, 1, 0, 1, 1)
            server.execute(QUERY)                      # front-door hit
            server.execute(QUERY)
            assert counts() == (2, 1, 2, 1, 3)
            server.execute(QUERY, cache=False)         # never consults it
            assert counts() == (2, 1, 2, 1, 4)
            # Cached but over this request's row budget: the front door
            # passes, the worker's probe counts the hit and executes.
            assert server.submit(QUERY, max_rows=3).error() is not None
            assert counts() == (3, 1, 2, 1, 5)
            # A worker-side hit (the result landed after submit's probe).
            key = server.engine.result_key(CROSS)
            with server._plan_lock:
                blocker = server.submit(QUERY, cache=False)
                assert blocker.wait_running(5.0)
                late = server.submit(CROSS)            # front door: miss
                cache.put(key, result_of(2))
            assert len(late.result(5.0)) == 2 and late.cache_state == "hit"
            blocker.result(5.0)
            assert counts() == (4, 1, 3, 1, 7)

    def test_cache_true_forces_insertion_then_hits_at_the_front_door(self):
        cache = ResultCache(max_entry_bytes=1)  # rejects everything
        with QueryServer(Engine(small_graph()), workers=1,
                         result_cache=cache) as server:
            assert server.submit(QUERY).result() is not None
            assert len(cache) == 0 and cache.stats.rejected == 1
            forced = server.submit(QUERY, cache=True)
            forced.result()
            assert forced.cache_state == "miss" and len(cache) == 1
            for mode in ("auto", True):
                ticket = server.submit(QUERY, cache=mode)
                assert ticket.done() and ticket.cache_state == "hit"
            bypass = server.submit(QUERY, cache=False)
            bypass.result()
            assert bypass.cache_state == "bypass" and bypass.elapsed > 0.0


class _ReadWriteGate:
    """Readers share, a waiting writer goes first and excludes: ``Graph``
    is not safe to mutate while a query reads it."""

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False

    @contextmanager
    def read(self):
        with self._cond:
            while self._writing:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                self._cond.notify_all()

    @contextmanager
    def write(self):
        with self._cond:
            while self._writing:
                self._cond.wait()
            self._writing = True
            while self._readers:
                self._cond.wait()
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()


class TestSubmitStorm:
    TEXTS = (QUERY,
             "SELECT (COUNT(?s) AS ?n) WHERE { ?s <http://x/p> ?v }",
             "SELECT ?s WHERE { ?s <http://x/p> ?v FILTER(?v >= 100) }")

    def test_concurrent_submits_and_writes_never_serve_a_stale_bag(self):
        """8 submitters over 3 texts race front-door hits, worker-side
        hits, coalescing and the text memo against a writer; every reply
        must equal a from-scratch evaluation of the graph as it stood."""
        graph = small_graph()
        engine = Engine(graph, plan_cache_size=1)  # memo holds 2 of 3
        cache = ResultCache(max_entries=2)
        gate = _ReadWriteGate()
        errors, states = [], []
        stop = threading.Event()

        def submitter(k):
            truth = Engine(graph, plan_cache_size=0)
            try:
                for i in range(120):
                    text = self.TEXTS[(i + k) % 3]
                    with gate.read():
                        ticket = server.submit(text, tenant="t%d" % k)
                        got = named_bag(ticket.result(timeout=30.0))
                        assert got == named_bag(truth.query(text)), text
                    states.append(ticket.cache_state)
            except BaseException as exc:  # re-raised by the test body
                errors.append(exc)

        def writer():
            try:
                for i in range(100, 100000):
                    if stop.is_set():
                        return
                    with gate.write():
                        graph.add(URIRef("http://x/w%d" % i),
                                  URIRef("http://x/p"), Literal(i))
                        if i % 3 == 0:
                            graph.remove(URIRef("http://x/w%d" % (i - 1)),
                                         URIRef("http://x/p"),
                                         Literal(i - 1))
                    time.sleep(0.002)
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryServer(engine, workers=3, queue_size=16,
                             result_cache=cache) as server:
                threads = [threading.Thread(target=submitter, args=(k,))
                           for k in range(8)]
                writing = threading.Thread(target=writer)
                writing.start()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
                stop.set()
                writing.join(timeout=10.0)
                alive = [t for t in threads + [writing] if t.is_alive()]
                stats = server.stats.as_dict()
        finally:
            sys.setswitchinterval(interval)
        assert not alive
        if errors:
            raise errors[0]
        assert len(states) == 8 * 120
        assert "hit" in states and "miss" in states
        assert stats["submitted"] == stats["admitted"] == 8 * 120
        assert stats["completed"] == 8 * 120
        assert len(engine._text_memo) <= 2


# ---------------------------------------------------------------------------
# Single-flight coalescing
# ---------------------------------------------------------------------------

class _GatedEngine:
    """Wraps ``engine.evaluate_plan`` with an entry event, a release gate
    and a call counter, so coalescing tests control exactly when the
    leader's execution finishes."""

    def __init__(self, engine):
        self.engine = engine
        self.calls = 0
        self.entered = threading.Event()
        self.gate = threading.Event()
        self.tokens = []
        self._inner = engine.evaluate_plan
        self._lock = threading.Lock()
        engine.evaluate_plan = self._wrapped

    def _wrapped(self, plan, default_graph_uri=None, timeout=None,
                 cancel=None, max_rows=None):
        with self._lock:
            self.calls += 1
            self.tokens.append(cancel)
        self.entered.set()
        assert self.gate.wait(5.0), "coalescing test gate never released"
        if cancel is not None and cancel.cancelled:
            raise QueryCancelled("cancelled at test checkpoint")
        return self._inner(plan, default_graph_uri=default_graph_uri,
                           timeout=timeout, cancel=cancel,
                           max_rows=max_rows)


def _wait_for_waiters(cache, server, key, count, timeout=5.0):
    """Park until ``count`` followers are coalesced behind ``key``."""
    deadline = time.monotonic() + timeout
    while cache.flight_waiters(key) < count:
        assert time.monotonic() < deadline, \
            "only %d waiters materialized" % cache.flight_waiters(key)
        time.sleep(0.002)


class TestCoalescing:
    def test_n_concurrent_identical_submits_one_execution(self):
        n = 4
        engine = Engine(small_graph())
        cache = ResultCache()
        gated = _GatedEngine(engine)
        with QueryServer(engine, workers=n, result_cache=cache) as server:
            key = engine.result_key(QUERY)
            tickets = [server.submit(QUERY) for _ in range(n)]
            assert gated.entered.wait(5.0)
            _wait_for_waiters(cache, server, key, n - 1)
            gated.gate.set()
            results = [t.result(5.0) for t in tickets]
        assert gated.calls == 1
        bags = [named_bag(r) for r in results]
        assert all(bag == bags[0] for bag in bags)
        states = sorted(t.cache_state for t in tickets)
        assert states == ["coalesced"] * (n - 1) + ["miss"]
        assert server.stats.coalesced == n - 1
        assert server.stats.cache_misses == 1
        assert server.stats.completed == n

    def test_cancelled_leader_does_not_poison_followers(self):
        engine = Engine(small_graph())
        cache = ResultCache()
        gated = _GatedEngine(engine)
        with QueryServer(engine, workers=2, result_cache=cache) as server:
            key = engine.result_key(QUERY)
            leader = server.submit(QUERY)
            assert gated.entered.wait(5.0)
            follower = server.submit(QUERY)
            _wait_for_waiters(cache, server, key, 1)
            assert leader.cancel_token is gated.tokens[0]
            leader.cancel("client gave up")
            gated.gate.set()
            # Leader resolves cancelled; the follower re-leads and wins.
            assert isinstance(leader.error(5.0), QueryCancelled)
            assert len(follower.result(5.0)) == 8
        assert gated.calls == 2  # aborted leader + the follower's re-run
        assert follower.cache_state == "miss"
        assert server.stats.cancelled == 1
        assert server.stats.completed == 1
        assert len(cache) == 1  # only the successful execution inserted

    def test_follower_cancelled_while_parked_resolves_cancelled(self):
        engine = Engine(small_graph())
        cache = ResultCache()
        gated = _GatedEngine(engine)
        with QueryServer(engine, workers=2, result_cache=cache) as server:
            key = engine.result_key(QUERY)
            leader = server.submit(QUERY)
            assert gated.entered.wait(5.0)
            follower = server.submit(QUERY)
            _wait_for_waiters(cache, server, key, 1)
            follower.cancel("follower gave up")
            gated.gate.set()
            assert len(leader.result(5.0)) == 8
            assert isinstance(follower.error(5.0), QueryCancelled)
        assert gated.calls == 1
