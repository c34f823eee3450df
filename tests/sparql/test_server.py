"""The concurrent serving tier: admission control, budgets, cancellation."""

import threading

import pytest

import repro.sparql.engine as engine_module
from repro.rdf import Graph, Literal, URIRef
from repro.sparql import (Engine, MalformedQuery, QueryCancelled,
                          QueryServer, ResourceExhausted, ResultCache,
                          ServerOverloaded, TransientError, parse)


def uri(name):
    return URIRef("http://x/" + name)


def small_graph(n=20):
    g = Graph("http://g")
    for i in range(n):
        g.add(uri("s%d" % i), uri("p"), Literal(i))
    return g


QUERY = "SELECT ?s ?v WHERE { ?s <http://x/p> ?v }"
#: A two-pattern cross product: n rows -> n*n intermediate rows, slow
#: enough (pure Python) to cancel or time out mid-evaluation.
CROSS = "SELECT * WHERE { ?a <http://x/p> ?b . ?c <http://x/p> ?d }"


@pytest.fixture
def server():
    with QueryServer(Engine(small_graph()), workers=2) as s:
        yield s


class TestBasicServing:
    def test_submit_and_result(self, server):
        ticket = server.submit(QUERY)
        result = ticket.result(timeout=10.0)
        assert len(result) == 20
        assert ticket.state == "done"
        assert ticket.error() is None
        assert ticket.waited is not None and ticket.elapsed is not None

    def test_execute_sync_helper(self, server):
        assert len(server.execute(QUERY)) == 20

    def test_stats_after_success(self, server):
        server.execute(QUERY)
        stats = server.stats.as_dict()
        assert stats["submitted"] == stats["admitted"] == 1
        assert stats["completed"] == 1
        assert stats["shed"] == stats["failed"] == stats["cancelled"] == 0

    def test_in_flight_drains_to_zero(self, server):
        tickets = [server.submit(QUERY) for _ in range(4)]
        for ticket in tickets:
            ticket.result(timeout=10.0)
        # Event-driven drain: resolved tickets release their in-flight
        # slots just after resolving; wait on the idle condition instead
        # of polling wall-clock.
        assert server.wait_idle(timeout=5.0)
        assert server.in_flight == 0

    def test_matches_direct_engine(self, server):
        direct = sorted(server.engine.query(QUERY).rows, key=repr)
        tickets = [server.submit(QUERY) for _ in range(6)]
        for ticket in tickets:
            assert sorted(ticket.result(timeout=10.0).rows,
                          key=repr) == direct


class TestConcurrency:
    def test_many_tenants_under_load(self):
        """No deadlock, no lost tickets, results identical to the direct
        engine, even with mixed malformed traffic."""
        engine = Engine(small_graph(50))
        direct = sorted(engine.query(QUERY).rows, key=repr)
        with QueryServer(engine, workers=4, queue_size=64) as server:
            outcomes = []

            def client(k):
                query = QUERY if k % 5 else "SELECT nope"
                try:
                    ticket = server.submit(query, tenant="t%d" % (k % 3))
                    outcomes.append(("ok", ticket.result(timeout=30.0)))
                except MalformedQuery:
                    outcomes.append(("malformed", None))
                except ServerOverloaded:
                    outcomes.append(("shed", None))

            threads = [threading.Thread(target=client, args=(k,))
                       for k in range(30)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            stats = server.stats.as_dict()
        assert len(outcomes) == 30
        kinds = [kind for kind, _ in outcomes]
        assert kinds.count("malformed") == 6
        for kind, result in outcomes:
            if kind == "ok":
                assert sorted(result.rows, key=repr) == direct
        assert stats["completed"] + stats["failed"] + stats["shed"] == 30
        assert stats["failed"] == 6
        assert stats["peak_in_flight"] >= 1


class TestAdmissionControl:
    def test_tenant_cap_sheds(self):
        engine = Engine(small_graph())
        with QueryServer(engine, workers=1, queue_size=8,
                         max_inflight_per_tenant=2) as server:
            with server._plan_lock:  # pin the worker mid-ticket
                first = server.submit(QUERY, tenant="greedy")
                second = server.submit(QUERY, tenant="greedy")
                with pytest.raises(ServerOverloaded, match="greedy"):
                    server.submit(QUERY, tenant="greedy")
                # Another tenant is unaffected by greedy's cap.
                other = server.submit(QUERY, tenant="polite")
            for ticket in (first, second, other):
                assert len(ticket.result(timeout=10.0)) == 20
            assert server.stats.shed == 1

    def test_queue_full_sheds_and_releases_tenant_count(self):
        engine = Engine(small_graph())
        with QueryServer(engine, workers=1, queue_size=1) as server:
            with server._plan_lock:
                running = server.submit(QUERY)   # occupies the worker
                # The running event fires once the worker dequeued the
                # ticket (just before it blocks on the held plan lock),
                # guaranteeing the queue slot is free — no polling.
                assert running.wait_running(timeout=5.0)
                queued = server.submit(QUERY)    # fills the queue
                with pytest.raises(ServerOverloaded, match="queue full"):
                    server.submit(QUERY)
            assert len(running.result(timeout=10.0)) == 20
            assert len(queued.result(timeout=10.0)) == 20
        # The shed request must not leak an in-flight slot.
        assert server.in_flight == 0
        assert server.stats.shed == 1
        assert server.stats.admitted == 2

    def test_shed_request_consumes_no_evaluator_time(self):
        engine = Engine(small_graph())
        with QueryServer(engine, workers=1, queue_size=4,
                         max_inflight_per_tenant=1) as server:
            with server._plan_lock:
                first = server.submit(QUERY, tenant="t")
                executed = engine.queries_executed
                with pytest.raises(ServerOverloaded):
                    server.submit(QUERY, tenant="t")
                assert engine.queries_executed == executed
            first.result(timeout=10.0)

    def test_submit_after_shutdown_sheds(self):
        server = QueryServer(Engine(small_graph()), workers=1)
        server.shutdown()
        with pytest.raises(ServerOverloaded, match="shut down"):
            server.submit(QUERY)


class TestFrontDoorHits:
    """A result-cache hit is answered inside ``submit()``: no parse, no
    plan, no queue slot, no worker."""

    OTHER = "SELECT ?s WHERE { ?s <http://x/p> 3 }"

    def test_warm_hit_neither_parses_nor_plans_after_plan_eviction(
            self, monkeypatch):
        # Plan cache 1, result cache 8: the hit's plan is long evicted.
        engine = Engine(small_graph(), plan_cache_size=1)
        with QueryServer(engine, workers=1,
                         result_cache=ResultCache(max_entries=8)) as server:
            server.execute(QUERY)
            server.execute(self.OTHER)  # evicts QUERY's plan
            assert list(engine._plan_cache) \
                == [engine.result_key(self.OTHER)]
            parses = []
            monkeypatch.setattr(
                engine_module, "parse",
                lambda text: parses.append(text) or parse(text))
            planned = (engine.plan_cache_hits, engine.plan_cache_misses)
            ticket = server.submit(QUERY)
            assert ticket.cache_state == "hit"
            assert len(ticket.result(timeout=0)) == 20
            assert parses == []
            assert (engine.plan_cache_hits,
                    engine.plan_cache_misses) == planned

    def test_hit_resolves_inside_submit_without_queue_or_tenant_slot(self):
        engine = Engine(small_graph())
        with QueryServer(engine, workers=1, queue_size=1,
                         result_cache=ResultCache()) as server:
            server.execute(QUERY)  # warm
            assert server.wait_idle(timeout=5.0)
            with server._plan_lock:  # pin the worker mid-ticket
                running = server.submit(CROSS)
                assert running.wait_running(timeout=5.0)
                queued = server.submit(self.OTHER)  # fills the queue
                with pytest.raises(ServerOverloaded, match="queue full"):
                    server.submit(CROSS)
                hit = server.submit(QUERY)  # admitted all the same
                assert hit.done() and hit.state == "done"
                assert hit.cache_state == "hit"
                assert hit.waited == 0.0 and hit.elapsed == 0.0
                assert hit.wait_running(timeout=0)
                assert len(hit.result(timeout=0)) == 20
                assert server.in_flight == 2  # running + queued only
            running.result(timeout=30.0)
            queued.result(timeout=10.0)
            stats = server.stats.as_dict()
        assert stats["submitted"] == stats["admitted"] + stats["shed"] == 5
        assert stats["shed"] == 1
        assert stats["completed"] == 4

    def test_idle_server_stays_idle_across_a_hit(self):
        with QueryServer(Engine(small_graph()), workers=1,
                         result_cache=ResultCache()) as server:
            server.execute(QUERY)
            assert server.wait_idle(timeout=5.0)
            ticket = server.submit(QUERY)
            assert ticket.done()
            assert server.in_flight == 0 and server.wait_idle(timeout=0)

    def test_capped_tenant_is_shed_before_the_probe(self):
        cache = ResultCache()
        with QueryServer(Engine(small_graph()), workers=1,
                         max_inflight_per_tenant=1,
                         result_cache=cache) as server:
            server.execute(QUERY, tenant="t")  # warm
            assert server.wait_idle(timeout=5.0)
            with server._plan_lock:
                blocked = server.submit(CROSS, tenant="t")
                assert blocked.wait_running(timeout=5.0)
                before = cache.stats.as_dict()
                with pytest.raises(ServerOverloaded, match="cap 1"):
                    server.submit(QUERY, tenant="t")
                assert cache.stats.as_dict() == before
                # The cap is per tenant: another tenant's hit is served.
                assert server.submit(QUERY, tenant="u").done()
            blocked.result(timeout=30.0)
            assert server.stats.shed == 1

    def test_shut_down_server_sheds_before_the_probe(self):
        cache = ResultCache()
        server = QueryServer(Engine(small_graph()), workers=1,
                             result_cache=cache)
        server.execute(QUERY)
        server.shutdown()
        before = cache.stats.as_dict()
        with pytest.raises(ServerOverloaded, match="shut down"):
            server.submit(QUERY)
        assert cache.stats.as_dict() == before

    def test_malformed_query_still_fails_on_the_ticket(self):
        with QueryServer(Engine(small_graph()), workers=1,
                         result_cache=ResultCache()) as server:
            ticket = server.submit("SELECT nope")  # must not raise here
            assert isinstance(ticket.error(timeout=10.0), MalformedQuery)
            assert server.stats.failed == 1


class TestBudgets:
    def test_per_request_timeout(self):
        with QueryServer(Engine(small_graph(60)), workers=1) as server:
            ticket = server.submit(CROSS, timeout=0.0)
            with pytest.raises(TransientError):
                ticket.result(timeout=10.0)
            assert ticket.state == "failed"
            assert server.stats.errors_by_class == {"TransientError": 1}

    def test_per_request_row_budget(self):
        with QueryServer(Engine(small_graph(60)), workers=1) as server:
            error = server.submit(CROSS, max_rows=100).error(timeout=10.0)
            assert isinstance(error, ResourceExhausted)

    def test_default_budgets_apply(self):
        with QueryServer(Engine(small_graph(60)), workers=1,
                         default_max_rows=100) as server:
            assert isinstance(server.submit(CROSS).error(timeout=10.0),
                              ResourceExhausted)
            # A per-request override loosens the default.
            result = server.submit(CROSS, max_rows=10000).result(timeout=30.0)
            assert len(result) == 3600

    def test_malformed_query_classified(self, server):
        error = server.submit("SELECT WHERE {").error(timeout=10.0)
        assert isinstance(error, MalformedQuery)
        assert not error.retryable


class TestCancellation:
    def test_cancel_while_queued_costs_nothing(self):
        engine = Engine(small_graph())
        with QueryServer(engine, workers=1, queue_size=4) as server:
            with server._plan_lock:
                blocker = server.submit(QUERY)
                victim = server.submit(QUERY)
                victim.cancel("client went away")
                executed = engine.queries_executed
            with pytest.raises(QueryCancelled):
                victim.result(timeout=10.0)
            assert victim.state == "cancelled"
            # Zero evaluator work: fresh stats, nothing pulled.
            assert victim.stats is not None
            assert victim.stats.intermediate_rows == 0
            assert victim.stats.rows_pulled == 0
            assert engine.queries_executed == executed
            blocker.result(timeout=10.0)
            assert server.stats.cancelled == 1

    def test_cancel_mid_query_stops_evaluator_work(self):
        # 300 rows -> a 90k-row cross product, far more evaluator work
        # than the cancellation checkpoints' ~1k-row granularity.
        engine = Engine(small_graph(300))
        with QueryServer(engine, workers=1) as server:
            ticket = server.submit(CROSS, max_rows=10_000_000)
            # Cancel as soon as a worker owns the ticket (event-driven):
            # the token lands before or during evaluation, and the
            # evaluator's checkpoints stop the cross product mid-stream.
            assert ticket.wait_running(timeout=10.0)
            ticket.cancel("impatient test")
            error = ticket.error(timeout=30.0)
            assert isinstance(error, QueryCancelled)
            assert ticket.state == "cancelled"
            # The evaluator stopped mid-stream: the stats attached to the
            # failure show it produced only a fraction of the 90k rows.
            assert ticket.stats is not None
            produced = max(ticket.stats.intermediate_rows,
                           ticket.stats.rows_pulled)
            assert produced < 90_000
            assert server.stats.cancelled == 1

    def test_cancel_after_completion_is_noop(self, server):
        ticket = server.submit(QUERY)
        result = ticket.result(timeout=10.0)
        ticket.cancel("too late")
        assert ticket.state == "done"
        assert ticket.result() is result


class TestLifecycle:
    def test_shutdown_drains_queue(self):
        server = QueryServer(Engine(small_graph()), workers=2)
        tickets = [server.submit(QUERY) for _ in range(5)]
        server.shutdown(wait=True)
        for ticket in tickets:
            assert len(ticket.result(timeout=1.0)) == 20

    def test_shutdown_idempotent(self):
        server = QueryServer(Engine(small_graph()), workers=1)
        server.shutdown()
        server.shutdown()

    def test_constructor_validation(self):
        engine = Engine(small_graph())
        with pytest.raises(ValueError):
            QueryServer(engine, workers=0)
        with pytest.raises(ValueError):
            QueryServer(engine, queue_size=0)
