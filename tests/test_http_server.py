"""HTTP SPARQL service tier: protocol conformance and service behaviour.

Drives a real server over a real socket — status codes, content
negotiation, malformed requests, per-client admission, the
``data_version``-keyed page cache, backpressure and graceful shutdown.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.endpoint.client import EndpointClient
from repro.endpoint.log import QueryLog
from repro.endpoint.policy import AccessPolicy
from repro.endpoint.simulation import SimulatedSparqlEndpoint
from repro.errors import (
    EndpointError,
    ParseError,
    QueryBudgetExceeded,
    ResultTruncated,
)
from repro.http import HttpSparqlClient, serve_http
from repro.http.protocol import MAX_BODY_BYTES
from repro.obs.metrics import MetricsRegistry
from repro.rdf.namespace import Namespace
from repro.rdf.terms import IRI, Literal
from repro.rdf.triple import Triple
from repro.store.triplestore import TripleStore

EX = Namespace("http://example.org/kb1/")
PREFIX = "PREFIX ex: <http://example.org/kb1/> "
SELECT_USA = PREFIX + "SELECT ?p WHERE { ?p ex:bornIn ex:USA }"
SELECT_ALL_PEOPLE = PREFIX + "SELECT ?p ?c WHERE { ?p ex:bornIn ?c }"
ASK_SINATRA = PREFIX + "ASK { ex:Frank_Sinatra ex:bornIn ex:USA }"


def _people_store() -> TripleStore:
    store = TripleStore(name="people")
    store.add_all(
        [
            Triple(EX["Frank_Sinatra"], EX.bornIn, EX.USA),
            Triple(EX["Frank_Sinatra"], EX.name, Literal("Frank Sinatra")),
            Triple(EX["Albert_Einstein"], EX.bornIn, EX.Germany),
            Triple(EX["Albert_Einstein"], EX.name, Literal("Albert Einstein")),
            Triple(EX["Marie_Curie"], EX.bornIn, EX.Poland),
        ]
    )
    return store


@pytest.fixture(scope="module")
def server():
    """One shared unlimited server for the read-only protocol tests."""
    with serve_http(
        store=_people_store(), name="conformance", metrics=MetricsRegistry()
    ) as running:
        yield running


@pytest.fixture()
def client(server):
    with HttpSparqlClient(server.url) as running:
        yield running


class TestProtocolConformance:
    def test_select_over_post_form(self, client):
        result = client.select(SELECT_USA)
        assert result.column("p") == [EX["Frank_Sinatra"]]

    def test_select_over_get(self, server):
        with HttpSparqlClient(server.url, method="get") as client:
            result = client.select(SELECT_ALL_PEOPLE)
            assert len(result) == 3

    def test_post_raw_sparql_query_media_type(self, client):
        status, _, body = client.request_raw(
            "POST",
            "/sparql",
            body=ASK_SINATRA.encode("utf-8"),
            headers={"Content-Type": "application/sparql-query"},
        )
        assert status == 200
        assert json.loads(body)["boolean"] is True

    def test_json_document_shape(self, client):
        status, headers, body = client.request_raw(
            "POST",
            "/sparql",
            body=SELECT_ALL_PEOPLE.encode("utf-8"),
            headers={"Content-Type": "application/sparql-query"},
        )
        assert status == 200
        assert headers["content-type"] == "application/sparql-results+json"
        document = json.loads(body)
        assert document["head"]["vars"] == ["p", "c"]
        bindings = document["results"]["bindings"]
        assert len(bindings) == 3
        assert all(entry["p"]["type"] == "uri" for entry in bindings)

    def test_tsv_negotiation(self, client):
        content_type, text = client.query_text(
            SELECT_USA, accept="text/tab-separated-values"
        )
        assert content_type == "text/tab-separated-values"
        assert text == "?p\n<http://example.org/kb1/Frank_Sinatra>\n"

    def test_ask_is_always_json(self, client):
        # TSV has no boolean form; the server answers ASK with JSON even
        # when the client asked for TSV.
        content_type, text = client.query_text(
            ASK_SINATRA, accept="text/tab-separated-values"
        )
        assert content_type == "application/sparql-results+json"
        assert json.loads(text)["boolean"] is True

    def test_not_acceptable_406(self, client):
        status, _, body = client.request_raw(
            "GET",
            "/sparql?query=" + ASK_SINATRA.replace(" ", "%20"),
            headers={"Accept": "application/xml"},
        )
        assert status == 406
        assert json.loads(body)["error"] == "NotAcceptable"

    def test_missing_query_parameter_400(self, client):
        status, _, body = client.request_raw("GET", "/sparql")
        assert status == 400
        assert "query" in json.loads(body)["message"]

    def test_missing_form_field_400(self, client):
        status, _, _ = client.request_raw(
            "POST",
            "/sparql",
            body=b"update=DELETE",
            headers={"Content-Type": "application/x-www-form-urlencoded"},
        )
        assert status == 400

    def test_bad_sparql_is_parse_error_400(self, client):
        with pytest.raises(ParseError):
            client.select("SELECT WHERE garbage {")

    def test_unknown_path_404(self, client):
        status, _, _ = client.request_raw("GET", "/nope")
        assert status == 404

    def test_method_not_allowed_405(self, client):
        status, headers, _ = client.request_raw("DELETE", "/sparql")
        assert status == 405
        assert headers["allow"] == "GET, POST"

    def test_unsupported_media_type_415(self, client):
        status, _, _ = client.request_raw(
            "POST",
            "/sparql",
            body=b"{}",
            headers={"Content-Type": "application/json"},
        )
        assert status == 415

    def test_oversized_body_413(self, server, client):
        status, _, _ = client.request_raw(
            "POST",
            "/sparql",
            body=b"x" * 16,
            headers={
                "Content-Type": "application/sparql-query",
                # Announcing an over-limit body is enough to be refused;
                # nothing that large is ever transmitted.
                "Content-Length": str(MAX_BODY_BYTES + 1),
            },
        )
        assert status == 413

    def test_malformed_request_line_400(self, server):
        with socket.create_connection((server.host, server.port), timeout=5) as raw:
            raw.sendall(b"NONSENSE\r\n\r\n")
            response = raw.recv(4096)
        assert response.startswith(b"HTTP/1.1 400 ")

    def test_headers_too_large_431(self, server):
        with socket.create_connection((server.host, server.port), timeout=5) as raw:
            raw.sendall(
                b"GET /health HTTP/1.1\r\nX-Huge: "
                + b"a" * (128 * 1024)
                + b"\r\n\r\n"
            )
            response = raw.recv(4096)
        assert response.startswith(b"HTTP/1.1 431 ")

    def test_keep_alive_reuses_one_connection(self, client):
        client.select(SELECT_USA)
        first = client._conn
        client.ask(ASK_SINATRA)
        assert client._conn is first

    def test_connection_close_honoured(self, client):
        status, headers, _ = client.request_raw(
            "GET", "/health", headers={"Connection": "close"}
        )
        assert status == 200
        assert headers["connection"] == "close"
        assert client._conn is None  # client dropped it in response

    def test_health_document(self, client, server):
        health = client.health()
        assert health["status"] == "ok"
        assert health["dataset_size"] == 5
        assert health["shards"] == 1
        assert health["endpoint"] == "conformance"

    def test_metrics_document(self, client):
        client.select(SELECT_USA)
        snapshot = client.metrics()
        assert snapshot["counters"]["http.requests"] >= 1
        assert snapshot["counters"]["http.responses.200"] >= 1
        assert snapshot["histograms"]["http.latency"]["count"] >= 1


class TestTypedClientOverHttp:
    def test_endpoint_client_runs_unchanged(self, server):
        with HttpSparqlClient(server.url) as http_client:
            typed = EndpointClient(http_client)
            assert typed.count_facts(EX.bornIn) == 3
            assert typed.has_fact(EX["Marie_Curie"], EX.bornIn, EX.Poland)
            relations = typed.relations()
            assert EX.bornIn in relations and EX.name in relations


class TestAdmission:
    def test_full_scan_rejected_403(self):
        store = _people_store()
        with serve_http(
            store=store,
            policy=AccessPolicy(allow_full_scan=False),
            metrics=MetricsRegistry(),
        ) as running:
            with HttpSparqlClient(running.url) as client:
                with pytest.raises(EndpointError):
                    client.select("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
                # Selective queries still pass the same policy.
                assert len(client.select(SELECT_USA)) == 1

    def test_truncation_policy_maps_to_403(self):
        store = _people_store()
        policy = AccessPolicy(max_result_rows=1, fail_on_truncation=True)
        with serve_http(
            store=store, policy=policy, metrics=MetricsRegistry()
        ) as running:
            with HttpSparqlClient(running.url) as client:
                with pytest.raises(ResultTruncated):
                    client.select(SELECT_ALL_PEOPLE)

    def test_per_client_budgets_are_independent(self):
        store = _people_store()
        with serve_http(
            store=store,
            client_policy=AccessPolicy(max_queries=2),
            metrics=MetricsRegistry(),
        ) as running:
            alice = HttpSparqlClient(running.url, client_id="alice")
            bob = HttpSparqlClient(running.url, client_id="bob")
            try:
                alice.ask(ASK_SINATRA)
                alice.ask(ASK_SINATRA)
                with pytest.raises(QueryBudgetExceeded):
                    alice.ask(ASK_SINATRA)
                # Bob's budget is untouched by Alice's exhaustion.
                assert bob.ask(ASK_SINATRA) is True
                assert sorted(running.server.client_ids()) == ["alice", "bob"]
            finally:
                alice.close()
                bob.close()

    def test_budget_exhaustion_carries_retry_after(self):
        store = _people_store()
        with serve_http(
            store=store,
            client_policy=AccessPolicy(max_queries=1),
            metrics=MetricsRegistry(),
        ) as running:
            with HttpSparqlClient(running.url, client_id="carol") as client:
                client.ask(ASK_SINATRA)
                status, headers, body = client.request_raw(
                    "POST",
                    "/sparql",
                    body=ASK_SINATRA.encode("utf-8"),
                    headers={"Content-Type": "application/sparql-query"},
                )
                assert status == 429
                assert headers["retry-after"] == "1"
                assert json.loads(body)["error"] == "QueryBudgetExceeded"


class TestPageCache:
    def test_cache_hit_still_charges_budget_and_logs(self):
        store = _people_store()
        metrics = MetricsRegistry()
        with serve_http(
            store=store,
            client_policy=AccessPolicy(max_queries=3),
            metrics=metrics,
        ) as running:
            with HttpSparqlClient(running.url, client_id="dave") as client:
                for _ in range(3):
                    assert len(client.select(SELECT_USA)) == 1
                # Cached or not, the fourth request is over budget: the
                # cache must not let a client dodge its quota.
                with pytest.raises(QueryBudgetExceeded):
                    client.select(SELECT_USA)
            assert metrics.value("http.cache.hits") == 2
            assert metrics.value("http.cache.misses") == 1
            records = [
                record
                for client_id, record in running.server.access_log_records()
                if client_id == "dave"
            ]
            assert len(records) == 3  # every admitted request is logged
            assert [record.mode for record in records].count("cached") == 2

    def test_cached_count_is_logged_as_count(self):
        count_born = PREFIX + "SELECT (COUNT(*) AS ?n) WHERE { ?p ex:bornIn ?c }"
        metrics = MetricsRegistry()
        with serve_http(store=_people_store(), metrics=metrics) as running:
            with HttpSparqlClient(running.url) as client:
                for _ in range(2):
                    assert client.select(count_born).column("n") == [Literal(3)]
                assert client.ask(ASK_SINATRA)
                assert client.ask(ASK_SINATRA)
            assert metrics.value("http.cache.hits") == 2
            merged = QueryLog(
                [record for _, record in running.server.access_log_records()]
            )
            assert merged.by_form() == {"COUNT": 2, "ASK": 2}
            assert merged.by_mode()["cached"] == 2

    def test_mutation_invalidates_cached_pages(self):
        store = _people_store()
        metrics = MetricsRegistry()
        with serve_http(store=store, metrics=metrics) as running:
            with HttpSparqlClient(running.url) as client:
                assert len(client.select(SELECT_USA)) == 1
                assert len(client.select(SELECT_USA)) == 1  # served cached
                store.add(Triple(EX["Elvis"], EX.bornIn, EX.USA))
                result = client.select(SELECT_USA)
                assert len(result) == 2  # data_version moved: fresh page
            assert metrics.value("http.cache.hits") == 1


class TestBackpressureAndShutdown:
    def test_overload_returns_503(self):
        store = _people_store()
        # ~0.1 virtual seconds per query, slept at full scale: requests
        # dwell long enough to pile up behind max_in_flight=1.
        slow = SimulatedSparqlEndpoint(
            store,
            name="slow",
            policy=AccessPolicy(latency_per_query=0.3),
            latency_scale=1.0,
        )
        metrics = MetricsRegistry()
        with serve_http(
            slow,
            max_in_flight=1,
            max_queue=0,
            metrics=metrics,
            own_endpoint=True,
        ) as running:
            statuses = []
            lock = threading.Lock()

            def fire():
                with HttpSparqlClient(running.url) as client:
                    status, _, _ = client.request_raw(
                        "POST",
                        "/sparql",
                        body=ASK_SINATRA.encode("utf-8"),
                        headers={"Content-Type": "application/sparql-query"},
                    )
                with lock:
                    statuses.append(status)

            threads = [threading.Thread(target=fire) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert statuses.count(200) >= 1
            assert statuses.count(503) >= 1
            assert metrics.value("http.rejected.overload") >= 1

    def test_stop_drains_in_flight_queries(self):
        store = _people_store()
        slow = SimulatedSparqlEndpoint(
            store,
            name="drain",
            policy=AccessPolicy(latency_per_query=0.4),
            latency_scale=1.0,
        )
        running = serve_http(slow, metrics=MetricsRegistry(), own_endpoint=True)
        outcome = {}

        def slow_query():
            with HttpSparqlClient(running.url) as client:
                outcome["status"] = client.request_raw(
                    "POST",
                    "/sparql",
                    body=ASK_SINATRA.encode("utf-8"),
                    headers={"Content-Type": "application/sparql-query"},
                )[0]

        worker = threading.Thread(target=slow_query)
        worker.start()
        time.sleep(0.1)  # let the query reach the evaluator
        running.stop()  # must wait for the in-flight response
        worker.join(timeout=5)
        assert outcome["status"] == 200
        # The listener is really gone.
        with pytest.raises(OSError):
            socket.create_connection((running.host, running.port), timeout=0.5)

    def test_requests_during_shutdown_get_503(self):
        store = _people_store()
        with serve_http(store=store, metrics=MetricsRegistry()) as running:
            client = HttpSparqlClient(running.url)
            client.health()  # open a keep-alive connection pre-shutdown
            running.server._closing = True
            status, _, _ = client.request_raw("GET", "/health")
            assert status == 503
            client.close()
            running.server._closing = False

class TestAcceptQValues:
    """RFC 9110 content negotiation: ``;q=`` weights decide the format."""

    def test_highest_q_wins(self):
        from repro.http.server import _negotiate

        accept = "application/sparql-results+json;q=0.2, text/tab-separated-values;q=0.9"
        assert _negotiate(accept) == "tsv"

    def test_q_zero_is_unacceptable(self):
        from repro.http.server import _negotiate

        assert _negotiate("application/sparql-results+json;q=0") is None
        assert _negotiate("text/*;q=0.0, application/xml") is None

    def test_missing_q_defaults_to_one(self):
        from repro.http.server import _negotiate

        # TSV at q=1 (implicit) beats JSON demoted to 0.5.
        assert _negotiate("application/json;q=0.5, text/tab-separated-values") == "tsv"

    def test_malformed_q_is_ignored(self):
        from repro.http.server import _negotiate

        assert _negotiate("application/json;q=banana") == "json"

    def test_wildcard_carries_its_weight(self):
        from repro.http.server import _negotiate

        assert _negotiate("text/*;q=0.3, */*;q=0.8") == "json"
        assert _negotiate("*/*;q=0.1, text/tab-separated-values;q=0.2") == "tsv"

    def test_unknown_types_do_not_mask_a_known_one(self):
        from repro.http.server import _negotiate

        assert _negotiate("application/xml;q=1.0, application/json;q=0.4") == "json"

    def test_q_values_drive_the_wire_response(self, client):
        status, headers, _ = client.request_raw(
            "POST",
            "/sparql",
            body=SELECT_USA.encode("utf-8"),
            headers={
                "Content-Type": "application/sparql-query",
                "Accept": "application/sparql-results+json;q=0.1, "
                "text/tab-separated-values;q=0.9",
            },
        )
        assert status == 200
        assert headers["content-type"] == "text/tab-separated-values"

    def test_all_zero_q_is_406(self, client):
        status, _, body = client.request_raw(
            "POST",
            "/sparql",
            body=SELECT_USA.encode("utf-8"),
            headers={
                "Content-Type": "application/sparql-query",
                "Accept": "application/sparql-results+json;q=0, text/*;q=0",
            },
        )
        assert status == 406
        assert json.loads(body)["error"] == "NotAcceptable"


class TestSharedParseCache:
    def test_per_client_endpoints_share_one_parse_cache(self):
        store = _people_store()
        # page_cache_size=0: a page-cache hit would answer Bob before
        # the parser ever ran, hiding the thing under test.
        with serve_http(
            store=store,
            client_policy=AccessPolicy(max_queries=10),
            page_cache_size=0,
            metrics=MetricsRegistry(),
        ) as running:
            alice = HttpSparqlClient(running.url, client_id="alice")
            bob = HttpSparqlClient(running.url, client_id="bob")
            try:
                alice.select(SELECT_ALL_PEOPLE)
                base = running.server.endpoint.parse_cache
                after_alice = base.cache_info()
                bob.select(SELECT_ALL_PEOPLE)
                after_bob = base.cache_info()
            finally:
                alice.close()
                bob.close()
            # Bob's identical query hit the cache Alice warmed: one parse
            # served both clients, and no second cache was ever created.
            assert after_bob.hits > after_alice.hits
            assert after_bob.currsize == after_alice.currsize
            for client_id in running.server.client_ids():
                endpoint = running.server._client_endpoints[client_id]
                assert endpoint.parse_cache is base


class TestLiveRefresh:
    def _sharded_store(self, count=120):
        from repro.shard.sharded_store import ShardedTripleStore

        store = ShardedTripleStore(num_shards=2)
        store.bulk_load(
            [Triple(EX[f"p{i:03d}"], EX.bornIn, EX[f"c{i % 7}"]) for i in range(count)]
        )
        return store

    def test_health_reports_generation(self):
        with serve_http(store=_people_store(), metrics=MetricsRegistry()) as running:
            with HttpSparqlClient(running.url) as client:
                assert client.health()["generation"] == 0
                running.refresh()
                assert client.health()["generation"] == 1

    def test_refresh_requires_a_refreshable_endpoint(self):
        from repro.endpoint.endpoint import SparqlEndpoint

        endpoint = SparqlEndpoint(_people_store(), name="plain")
        with serve_http(endpoint, metrics=MetricsRegistry()) as running:
            with pytest.raises(EndpointError):
                running.refresh()

    def test_refresh_under_live_requests_never_errors(self):
        store = self._sharded_store()
        select = PREFIX + "SELECT ?p ?c WHERE { ?p ex:bornIn ?c }"
        with serve_http(
            store=store,
            client_policy=AccessPolicy(max_queries=None, max_result_rows=None),
            metrics=MetricsRegistry(),
        ) as running:
            statuses = []
            counts = []
            stop = threading.Event()

            def hammer(client_id):
                with HttpSparqlClient(running.url, client_id=client_id) as client:
                    while not stop.is_set():
                        status, _, body = client.request_raw(
                            "POST",
                            "/sparql",
                            body=select.encode("utf-8"),
                            headers={"Content-Type": "application/sparql-query"},
                        )
                        statuses.append(status)
                        if status == 200:
                            counts.append(
                                len(json.loads(body)["results"]["bindings"])
                            )

            threads = [
                threading.Thread(target=hammer, args=(f"client{i}",))
                for i in range(3)
            ]
            for thread in threads:
                thread.start()
            try:
                def grow(target):
                    for i in range(40):
                        target.add(Triple(EX[f"new{i}"], EX.bornIn, EX.Atlantis))

                report = running.refresh(mutate=grow, rebalance=True)
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
            assert set(statuses) == {200}  # zero 5xx across the handover
            # Every page was rendered from exactly one generation.
            assert set(counts) <= {120, 160}
            assert report["rebalance"]["moved"] >= 0
            with HttpSparqlClient(running.url) as client:
                assert len(client.select(select)) == 160
