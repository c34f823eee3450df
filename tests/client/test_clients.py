"""Unit tests for the execution clients (pagination, retries, formats)."""

import pytest

from repro.client import ClientError, EngineClient, FlakyEndpoint, HttpClient
from repro.rdf import Graph, Literal, URIRef
from repro.sparql import Endpoint, Engine


def uri(name):
    return URIRef("http://x/" + name)


@pytest.fixture
def engine():
    g = Graph("http://g")
    for i in range(37):
        g.add(uri("s%d" % i), uri("p"), Literal(i))
    g.add(uri("s0"), uri("q"), uri("s1"))
    return Engine(g)


QUERY = "PREFIX x: <http://x/>\nSELECT ?s ?v WHERE { ?s x:p ?v }"


class TestEngineClient:
    def test_execute_returns_dataframe(self, engine):
        df = EngineClient(engine).execute(QUERY)
        assert len(df) == 37
        assert df.columns == ["s", "v"]

    def test_values_converted(self, engine):
        df = EngineClient(engine).execute(QUERY)
        assert isinstance(df.column("v")[0], int)
        assert isinstance(df.column("s")[0], str)

    def test_execute_terms_keeps_terms(self, engine):
        df = EngineClient(engine).execute_terms(QUERY)
        assert isinstance(df.column("v")[0], Literal)

    def test_default_graph_uri(self, engine):
        client = EngineClient(engine, default_graph_uri="http://g")
        assert len(client.execute(QUERY)) == 37

    def test_execute_model_runs_its_text(self, engine):
        from repro.core import KnowledgeGraph
        kg = KnowledgeGraph(graph_uri="http://g",
                            prefixes={"x": "http://x/"})
        frame = kg.seed("s", "x:p", "v")
        client = EngineClient(engine)
        df = client.execute_model(frame.query_model())
        assert engine.last_plan.source == "text"
        assert df.equals_bag(client.execute(frame.to_sparql()))
        assert engine.plan_cache_misses == 1  # one text, one plan

    def test_frame_execute_sends_text(self, engine):
        from repro.core import KnowledgeGraph
        kg = KnowledgeGraph(graph_uri="http://g",
                            prefixes={"x": "http://x/"})
        df = kg.seed("s", "x:p", "v").execute(EngineClient(engine))
        assert len(df) == 37
        assert engine.last_plan.source == "text"


class TestHttpClientPagination:
    def test_assembles_all_pages(self, engine):
        endpoint = Endpoint(engine, max_rows=10)
        client = HttpClient(endpoint)
        df = client.execute(QUERY)
        assert len(df) == 37
        assert client.pages_fetched == 4

    def test_single_page_when_small(self, engine):
        endpoint = Endpoint(engine, max_rows=1000)
        client = HttpClient(endpoint)
        assert len(client.execute(QUERY)) == 37
        assert client.pages_fetched == 1

    def test_page_size_parameter(self, engine):
        endpoint = Endpoint(engine, max_rows=1000)
        client = HttpClient(endpoint, page_size=5)
        client.execute(QUERY)
        assert client.pages_fetched == 8

    def test_exact_multiple_of_page_size(self, engine):
        endpoint = Endpoint(engine, max_rows=37)
        client = HttpClient(endpoint)
        assert len(client.execute(QUERY)) == 37
        assert client.pages_fetched == 1

    def test_empty_result(self, engine):
        endpoint = Endpoint(engine, max_rows=10)
        client = HttpClient(endpoint)
        df = client.execute("PREFIX x: <http://x/>\n"
                            "SELECT ?a WHERE { ?a x:nope ?b }")
        assert len(df) == 0

    def test_pagination_matches_engine_result(self, engine):
        direct = EngineClient(engine).execute(QUERY)
        paged = HttpClient(Endpoint(engine, max_rows=7)).execute(QUERY)
        assert direct.equals_bag(paged)

    def test_execute_terms_via_http(self, engine):
        endpoint = Endpoint(engine, max_rows=10)
        df = HttpClient(endpoint).execute_terms(QUERY)
        assert isinstance(df.column("v")[0], Literal)

    def test_unbound_values_survive_the_wire(self, engine):
        endpoint = Endpoint(engine, max_rows=10)
        df = HttpClient(endpoint).execute("""
            PREFIX x: <http://x/>
            SELECT ?s ?o WHERE { ?s x:p ?v OPTIONAL { ?s x:q ?o } }""")
        assert df.column("o").count(None) == 36


class TestRetries:
    def test_retry_succeeds_after_transient_failures(self, engine):
        endpoint = FlakyEndpoint(engine, failures_per_query=2, max_rows=10)
        client = HttpClient(endpoint, max_retries=3)
        assert len(client.execute(QUERY)) == 37

    def test_retries_exhausted_raises(self, engine):
        endpoint = FlakyEndpoint(engine, failures_per_query=5, max_rows=10)
        client = HttpClient(endpoint, max_retries=1)
        with pytest.raises(ClientError):
            client.execute(QUERY)

    def test_exponential_backoff_schedule(self, engine):
        endpoint = FlakyEndpoint(engine, failures_per_query=3, max_rows=100)
        client = HttpClient(endpoint, max_retries=3, retry_delay=0.1,
                            max_retry_delay=10.0)
        sleeps = []
        client._sleep = sleeps.append
        client.execute(QUERY)
        assert sleeps == [0.1, 0.2, 0.4]

    def test_backoff_is_capped(self, engine):
        client = HttpClient(Endpoint(engine), retry_delay=1.0,
                            max_retry_delay=2.5)
        assert [client._backoff_delay(k) for k in range(4)] \
            == [1.0, 2.0, 2.5, 2.5]

    def test_no_sleep_after_final_failure(self, engine):
        endpoint = FlakyEndpoint(engine, failures_per_query=9, max_rows=10)
        client = HttpClient(endpoint, max_retries=2, retry_delay=0.1)
        sleeps = []
        client._sleep = sleeps.append
        with pytest.raises(ClientError):
            client.execute(QUERY)
        # 3 attempts -> sleeps only *between* them, never after the last.
        assert len(sleeps) == 2

    def test_error_reports_failing_offset(self, engine):
        # Pages at offset 0..9 succeed, the one at offset 10 keeps failing.
        class FailsAtOffset(Endpoint):
            def request(self, query_text, offset=0, limit=None):
                from repro.sparql import EndpointError
                if offset >= 10:
                    raise EndpointError("boom")
                return super().request(query_text, offset=offset,
                                       limit=limit)

        client = HttpClient(FailsAtOffset(engine, max_rows=10),
                            max_retries=1)
        with pytest.raises(ClientError, match="offset 10"):
            client.execute(QUERY)


class CountingFailures:
    """Duck-typed endpoint stub: always raises ``error_factory()``."""

    def __init__(self, error_factory):
        self.error_factory = error_factory
        self.calls = 0

    def request(self, query_text, offset=0, limit=None):
        self.calls += 1
        raise self.error_factory()


class TestRetryPolicy:
    """Classified failures: retryable classes burn retries, deterministic
    classes fail fast with the original chained as ``__cause__``."""

    def test_malformed_query_fails_fast(self, engine):
        from repro.sparql import MalformedQuery
        endpoint = Endpoint(engine, max_rows=10)
        client = HttpClient(endpoint, max_retries=3, retry_delay=0.1)
        sleeps = []
        client._sleep = sleeps.append
        with pytest.raises(ClientError, match="not retried") as excinfo:
            client.execute("SELECT WHERE {")
        assert isinstance(excinfo.value.__cause__, MalformedQuery)
        assert endpoint.requests_served == 1   # one attempt, no retries
        assert client.retries_performed == 0
        assert sleeps == []                    # and no backoff sleeps

    def test_resource_exhausted_fails_fast(self, engine):
        from repro.sparql import ResourceExhausted
        stub = CountingFailures(lambda: ResourceExhausted("row budget"))
        client = HttpClient(stub, max_retries=5)
        with pytest.raises(ClientError, match="ResourceExhausted"):
            client.execute(QUERY)
        assert stub.calls == 1

    def test_exhausted_retries_chain_the_last_error(self, engine):
        from repro.sparql import TransientError
        endpoint = FlakyEndpoint(engine, failures_per_query=99, max_rows=10)
        client = HttpClient(endpoint, max_retries=2)
        with pytest.raises(ClientError) as excinfo:
            client.execute(QUERY)
        assert isinstance(excinfo.value.__cause__, TransientError)

    def test_retries_performed_counter(self, engine):
        # 37 rows at max_rows=10 -> 4 pages, each failing twice first.
        endpoint = FlakyEndpoint(engine, failures_per_query=2, max_rows=10)
        client = HttpClient(endpoint, max_retries=3)
        assert len(client.execute(QUERY)) == 37
        assert client.retries_performed == 8

    def test_corrupt_payload_retried_and_absorbed(self, engine):
        class CorruptsFirstServe(Endpoint):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._corrupted = set()

            def request(self, query_text, offset=0, limit=None):
                response = super().request(query_text, offset=offset,
                                           limit=limit)
                if offset not in self._corrupted:
                    self._corrupted.add(offset)
                    response.payload = response.payload[:7]
                return response

        endpoint = CorruptsFirstServe(engine, max_rows=10)
        client = HttpClient(endpoint, max_retries=2)
        df = client.execute(QUERY)
        assert len(df) == 37                   # never silently truncated
        assert client.retries_performed == 4   # one decode retry per page


class TestCircuitBreaker:
    def make_client(self, endpoint, threshold, **kwargs):
        from repro.sparql import CircuitBreaker
        client = HttpClient(endpoint, breaker_threshold=threshold, **kwargs)
        self.clock = [0.0]
        client.breaker = CircuitBreaker(failure_threshold=threshold,
                                        cooldown=5.0,
                                        clock=lambda: self.clock[0])
        return client

    def test_breaker_opens_and_fails_fast(self, engine):
        from repro.sparql import CircuitOpenError, TransientError
        stub = CountingFailures(lambda: TransientError("blip"))
        client = self.make_client(stub, threshold=2, max_retries=5)
        with pytest.raises(ClientError) as excinfo:
            client.execute(QUERY)
        # Two real attempts tripped the breaker; the third failed fast
        # without touching the endpoint.
        assert stub.calls == 2
        assert isinstance(excinfo.value.__cause__, CircuitOpenError)
        assert client.breaker.trips == 1

    def test_half_open_probe_recovers(self, engine):
        endpoint = FlakyEndpoint(engine, failures_per_query=1, max_rows=100)
        client = self.make_client(endpoint, threshold=1, max_retries=3)
        with pytest.raises(ClientError):
            client.execute(QUERY)          # first failure opens the circuit
        self.clock[0] = 6.0                # cooldown elapsed -> half-open
        assert len(client.execute(QUERY)) == 37
        assert client.breaker.state == client.breaker.CLOSED

    def test_deterministic_verdicts_do_not_trip_breaker(self, engine):
        from repro.sparql import MalformedQuery, TransientError
        client = self.make_client(Endpoint(engine), threshold=2)
        client._record_breaker_outcome(TransientError("blip"))
        client._record_breaker_outcome(MalformedQuery("bad query"))
        client._record_breaker_outcome(TransientError("blip"))
        # The malformed-query verdict reset the streak in between.
        assert client.breaker.state == client.breaker.CLOSED
        assert client.breaker.trips == 0

    def test_breaker_disabled(self, engine):
        endpoint = FlakyEndpoint(engine, failures_per_query=3, max_rows=100)
        client = HttpClient(endpoint, breaker_threshold=None, max_retries=3)
        assert client.breaker is None
        assert len(client.execute(QUERY)) == 37


class TestFrameExecution:
    def test_frame_execute_via_http(self, engine):
        from repro.core import KnowledgeGraph
        kg = KnowledgeGraph(graph_uri="http://g",
                            prefixes={"x": "http://x/"})
        frame = kg.seed("s", "x:p", "v")
        endpoint = Endpoint(engine, max_rows=10)
        df = frame.execute(HttpClient(endpoint))
        assert len(df) == 37

    def test_return_format_records(self, engine):
        from repro.core import KnowledgeGraph
        kg = KnowledgeGraph(graph_uri="http://g",
                            prefixes={"x": "http://x/"})
        frame = kg.seed("s", "x:p", "v")
        records = frame.execute(EngineClient(engine),
                                return_format="records")
        assert isinstance(records, list)
        assert len(records) == 37

    def test_unknown_return_format(self, engine):
        from repro.core import KnowledgeGraph, RDFFrameError
        kg = KnowledgeGraph(graph_uri="http://g",
                            prefixes={"x": "http://x/"})
        frame = kg.seed("s", "x:p", "v")
        with pytest.raises(RDFFrameError):
            frame.execute(EngineClient(engine), return_format="parquet")


class TestMalformedPayload:
    def test_malformed_json_payload_raises_client_error(self, engine):
        endpoint = Endpoint(engine, max_rows=10)
        original_request = endpoint.request

        def corrupting_request(query, offset=0, limit=None):
            response = original_request(query, offset=offset, limit=limit)
            response.payload = "{not json"
            return response

        endpoint.request = corrupting_request
        client = HttpClient(endpoint)
        with pytest.raises(ClientError):
            client.execute(QUERY)


class TestEngineSafetyValve:
    def test_runaway_query_aborted(self):
        from repro.sparql import EvaluationError
        g = Graph("http://g")
        for i in range(60):
            g.add(uri("s%d" % i), uri("p"), uri("o"))
        bounded = Engine(g, max_intermediate_rows=500)
        # A Cartesian-ish self-join: 60 x 60 rows > 500.
        with pytest.raises(EvaluationError):
            bounded.query("PREFIX x: <http://x/>\n"
                          "SELECT * WHERE { ?a x:p ?o . ?b x:p ?o }")

    def test_normal_query_unaffected(self):
        g = Graph("http://g")
        for i in range(60):
            g.add(uri("s%d" % i), uri("p"), uri("o%d" % i))
        bounded = Engine(g, max_intermediate_rows=500)
        assert len(bounded.query("PREFIX x: <http://x/>\n"
                                 "SELECT * WHERE { ?a x:p ?o }")) == 60


class TestStreamingPagination:
    """Page fetches ride the engine's streaming cursor: serving the page
    at ``offset`` pulls O(offset + page) rows, not the full result."""

    @pytest.fixture
    def big_engine(self):
        g = Graph("http://g")
        for i in range(400):
            g.add(uri("s%d" % i), uri("p"), Literal(i))
        return Engine(g)

    BIG_QUERY = "PREFIX x: <http://x/>\nSELECT ?s ?v WHERE { ?s x:p ?v }"

    def test_endpoint_page_pulls_offset_plus_n_rows(self, big_engine):
        endpoint = Endpoint(big_engine, max_rows=20)
        response = endpoint.request(self.BIG_QUERY)
        assert len(response.result) == 20
        assert response.has_more
        pulled = big_engine.last_stats.rows_pulled
        assert 0 < pulled < 400  # nowhere near the full 400-row result
        # The next page only pulls the *additional* rows.
        endpoint.request(self.BIG_QUERY, offset=20)
        assert big_engine.last_stats.rows_pulled < 400

    def test_endpoint_pagination_result_complete(self, big_engine):
        endpoint = Endpoint(big_engine, max_rows=32)
        client = HttpClient(endpoint)
        df = client.execute(self.BIG_QUERY)
        direct = EngineClient(big_engine).execute(self.BIG_QUERY)
        assert df.equals_bag(direct)

    def test_http_client_execute_page(self, big_engine):
        endpoint = Endpoint(big_engine, max_rows=1000)
        client = HttpClient(endpoint)
        page = client.execute_page(self.BIG_QUERY, offset=5, limit=10)
        assert len(page) == 10
        assert client.pages_fetched == 1  # one request filled the window
        assert big_engine.last_stats.rows_pulled < 200

    def test_engine_client_execute_page(self, big_engine):
        client = EngineClient(big_engine)
        full = client.execute(self.BIG_QUERY)
        page = client.execute_page(self.BIG_QUERY, offset=10, limit=25)
        assert len(page) == 25
        assert client.last_stats.rows_pulled < 200
        assert page.column("s") == full.column("s")[10:35]

    def test_engine_client_execute_page_model(self, big_engine):
        from repro.core import KnowledgeGraph
        kg = KnowledgeGraph(graph_uri="http://g",
                            prefixes={"x": "http://x/"})
        frame = kg.seed("s", "x:p", "v")
        client = EngineClient(big_engine)
        page = client.execute_page(frame.query_model(), limit=7)
        assert len(page) == 7

    def test_execute_page_spans_endpoint_cap(self, big_engine):
        # A window larger than the endpoint's per-response cap is filled
        # by several requests — never silently truncated at the cap.
        endpoint = Endpoint(big_engine, max_rows=50)
        client = HttpClient(endpoint)
        full = EngineClient(big_engine).execute(self.BIG_QUERY)
        page = client.execute_page(self.BIG_QUERY, offset=10, limit=120)
        assert len(page) == 120
        assert client.pages_fetched == 3
        assert page.column("s") == full.column("s")[10:130]

    def test_execute_page_window_past_end(self, big_engine):
        endpoint = Endpoint(big_engine, max_rows=50)
        page = HttpClient(endpoint).execute_page(self.BIG_QUERY,
                                                 offset=390, limit=120)
        assert len(page) == 10

    def test_endpoint_timeout_budgets_each_request(self, big_engine):
        # The per-query timeout bounds each page's evaluation, not the
        # cursor's wall-clock lifetime: client think-time between page
        # requests must not accumulate into a QueryTimeout.
        import time as _time
        endpoint = Endpoint(big_engine, max_rows=10, timeout=0.5)
        endpoint.request(self.BIG_QUERY)
        _time.sleep(0.6)  # longer than the whole budget
        response = endpoint.request(self.BIG_QUERY, offset=10)
        assert len(response.result) == 10

    def test_failed_request_does_not_poison_cursor_cache(self, big_engine):
        # A request that times out must not leave a dead cursor behind:
        # once the pressure clears, the same query re-executes fresh.
        # (The endpoint boundary classifies the timeout as retryable.)
        from repro.sparql import QueryTimeout, TransientError
        cross = ("PREFIX x: <http://x/>\n"
                 "SELECT * WHERE { ?a x:p ?v . ?b x:p ?w }")
        endpoint = Endpoint(big_engine, max_rows=10, timeout=0.0)
        with pytest.raises(TransientError) as excinfo:
            endpoint.request(cross)
        assert isinstance(excinfo.value.__cause__, QueryTimeout)
        endpoint.timeout = None
        response = endpoint.request(cross)
        assert len(response.result) == 10
        assert response.has_more

    def test_engine_stream_matches_query_and_reference(self, big_engine):
        # The cursor path used by endpoints runs the same operators as
        # query(): same rows, same order; the reference plane agrees as
        # a bag.
        engine = Engine(big_engine.dataset)
        cursor = engine.stream(self.BIG_QUERY)
        assert cursor.result().rows == engine.query(self.BIG_QUERY).rows
        reference = Engine(big_engine.dataset, columnar=False)
        assert sorted(map(repr, cursor.rows)) == sorted(
            map(repr, reference.query(self.BIG_QUERY).rows))
