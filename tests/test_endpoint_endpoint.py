"""Unit tests for the SPARQL endpoint facade."""

import pytest

from repro.endpoint.endpoint import SparqlEndpoint
from repro.endpoint.policy import AccessPolicy
from repro.errors import EndpointError, QueryBudgetExceeded, ResultTruncated
from repro.sparql.results import AskResult, ResultSet

from tests.conftest import EX

PREFIX = "PREFIX ex: <http://example.org/kb1/> "


class TestQueryExecution:
    def test_select_returns_result_set(self, people_store):
        endpoint = SparqlEndpoint(people_store)
        result = endpoint.query(PREFIX + "SELECT ?s WHERE { ?s ex:bornIn ?c }")
        assert isinstance(result, ResultSet)
        assert len(result) == 3

    def test_ask_helper(self, people_store):
        endpoint = SparqlEndpoint(people_store)
        assert endpoint.ask(PREFIX + "ASK { ex:Marie_Curie ex:bornIn ex:Poland }")

    def test_select_helper_rejects_ask(self, people_store):
        endpoint = SparqlEndpoint(people_store)
        with pytest.raises(EndpointError):
            endpoint.select(PREFIX + "ASK { ?s ?p ?o }")

    def test_ask_helper_rejects_select(self, people_store):
        endpoint = SparqlEndpoint(people_store)
        with pytest.raises(EndpointError):
            endpoint.ask(PREFIX + "SELECT ?s WHERE { ?s ?p ?o }")

    def test_dataset_size(self, people_store):
        endpoint = SparqlEndpoint(people_store)
        assert endpoint.dataset_size() == len(people_store)


class TestPolicyEnforcement:
    def test_query_budget(self, people_store):
        endpoint = SparqlEndpoint(people_store, policy=AccessPolicy(max_queries=2))
        endpoint.query(PREFIX + "ASK { ?s ex:bornIn ?c }")
        assert endpoint.queries_remaining == 1
        endpoint.query(PREFIX + "ASK { ?s ex:bornIn ?c }")
        with pytest.raises(QueryBudgetExceeded):
            endpoint.query(PREFIX + "ASK { ?s ex:bornIn ?c }")

    def test_budget_survives_log_reset(self, people_store):
        endpoint = SparqlEndpoint(people_store, policy=AccessPolicy(max_queries=1))
        endpoint.query(PREFIX + "ASK { ?s ex:bornIn ?c }")
        endpoint.reset_accounting()
        assert endpoint.log.query_count == 0
        with pytest.raises(QueryBudgetExceeded):
            endpoint.query(PREFIX + "ASK { ?s ex:bornIn ?c }")

    def test_row_cap_truncates_silently(self, people_store):
        endpoint = SparqlEndpoint(people_store, policy=AccessPolicy(max_result_rows=2))
        result = endpoint.select(PREFIX + "SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
        assert len(result) == 2
        assert result.truncated
        assert endpoint.log.truncated_count == 1

    def test_row_cap_can_fail_hard(self, people_store):
        policy = AccessPolicy(max_result_rows=2, fail_on_truncation=True)
        endpoint = SparqlEndpoint(people_store, policy=policy)
        with pytest.raises(ResultTruncated):
            endpoint.select(PREFIX + "SELECT ?s ?p ?o WHERE { ?s ?p ?o }")

    def test_full_scan_forbidden(self, people_store):
        endpoint = SparqlEndpoint(people_store, policy=AccessPolicy(allow_full_scan=False))
        with pytest.raises(EndpointError):
            endpoint.select("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")

    def test_constant_pattern_allowed_under_no_full_scan(self, people_store):
        endpoint = SparqlEndpoint(people_store, policy=AccessPolicy(allow_full_scan=False))
        result = endpoint.select(PREFIX + "SELECT ?s WHERE { ?s ex:bornIn ?c }")
        assert len(result) == 3

    def test_unlimited_queries_reports_none_remaining(self, people_store):
        endpoint = SparqlEndpoint(people_store)
        assert endpoint.queries_remaining is None


class TestAccounting:
    def test_log_records_query_forms(self, people_store):
        endpoint = SparqlEndpoint(people_store)
        endpoint.query(PREFIX + "SELECT ?s WHERE { ?s ex:bornIn ?c }")
        endpoint.query(PREFIX + "ASK { ?s ex:bornIn ?c }")
        endpoint.query(PREFIX + "SELECT (COUNT(*) AS ?c) WHERE { ?s ex:bornIn ?c }")
        assert endpoint.log.by_form() == {"SELECT": 1, "ASK": 1, "COUNT": 1}

    def test_log_records_rows_and_cost(self, people_store):
        policy = AccessPolicy(latency_per_query=1.0, latency_per_row=0.0)
        endpoint = SparqlEndpoint(people_store, policy=policy)
        endpoint.query(PREFIX + "SELECT ?s WHERE { ?s ex:bornIn ?c }")
        assert endpoint.log.total_rows == 3
        assert endpoint.log.total_virtual_seconds == pytest.approx(1.0)

    def test_repr_contains_name(self, people_store):
        endpoint = SparqlEndpoint(people_store, name="yago-endpoint")
        assert "yago-endpoint" in repr(endpoint)


class TestParseCache:
    def test_repeated_query_text_parses_once(self, people_store):
        from repro.endpoint.endpoint import clear_parse_cache, parse_cache_info

        clear_parse_cache()
        endpoint = SparqlEndpoint(people_store)
        query = PREFIX + "SELECT ?s WHERE { ?s ex:bornIn ?c }"
        first = endpoint.query(query)
        before = parse_cache_info()
        second = endpoint.query(query)
        after = parse_cache_info()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses
        assert [row for row in first] == [row for row in second]

    def test_cache_shared_across_endpoints(self, people_store):
        from repro.endpoint.endpoint import clear_parse_cache, parse_cache_info

        clear_parse_cache()
        query = PREFIX + "ASK { ?s ex:bornIn ?c }"
        SparqlEndpoint(people_store, name="a").query(query)
        SparqlEndpoint(people_store, name="b").query(query)
        assert parse_cache_info().hits >= 1
        assert parse_cache_info().misses == 1


class TestColumnarTruncation:
    """The row cap slices every column of a columnar result alike, and
    the quota and the log agree on both truncation paths."""

    QUERIES = [
        "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",  # block kernels
        "SELECT ?s ?c WHERE { ?s ?p ?o OPTIONAL { ?s ex:bornIn ?c } }",  # per row
        "SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?o",  # ordered rows
    ]
    CAP = 3

    @pytest.mark.parametrize("query", QUERIES)
    def test_silent_cap_slices_every_column(self, people_store, query):
        full = SparqlEndpoint(people_store).select(PREFIX + query)
        assert len(full) > self.CAP
        policy = AccessPolicy(max_queries=4, max_result_rows=self.CAP)
        endpoint = SparqlEndpoint(people_store, policy=policy)
        result = endpoint.select(PREFIX + query)
        assert result.truncated
        assert len(result) == self.CAP
        assert [len(column) for column in result.columns] == [self.CAP] * len(
            result.variables
        )
        assert result.to_dicts() == full.to_dicts()[: self.CAP]
        record = list(endpoint.log)[0]
        assert record.truncated and record.row_count == self.CAP
        assert endpoint.queries_remaining + endpoint.log.query_count == 4

    @pytest.mark.parametrize("query", QUERIES)
    def test_hard_cap_logs_the_capped_count(self, people_store, query):
        policy = AccessPolicy(
            max_queries=4, max_result_rows=self.CAP, fail_on_truncation=True
        )
        endpoint = SparqlEndpoint(people_store, policy=policy)
        with pytest.raises(ResultTruncated):
            endpoint.select(PREFIX + query)
        record = list(endpoint.log)[0]
        assert record.truncated and record.row_count == self.CAP
        assert endpoint.queries_remaining + endpoint.log.query_count == 4
        assert endpoint.log.query_count == 1


class TestAccountingInvariants:
    """The quota and the log must never diverge: every consumed budget
    slot corresponds to exactly one QueryRecord, whatever the outcome."""

    def test_hard_truncation_is_still_logged(self, people_store):
        policy = AccessPolicy(
            max_queries=5, max_result_rows=2, fail_on_truncation=True
        )
        endpoint = SparqlEndpoint(people_store, policy=policy)
        with pytest.raises(ResultTruncated):
            endpoint.select(PREFIX + "SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
        # The query ran and consumed budget, so it must be on the log —
        # marked truncated, with the capped row count the policy allowed.
        assert endpoint.queries_remaining == 4
        assert endpoint.log.query_count == 1
        record = list(endpoint.log)[0]
        assert record.truncated
        assert record.row_count == 2

    def test_budget_and_log_agree_across_outcomes(self, people_store):
        policy = AccessPolicy(
            max_queries=10, max_result_rows=2, fail_on_truncation=True
        )
        endpoint = SparqlEndpoint(people_store, policy=policy)
        endpoint.query(PREFIX + "ASK { ?s ex:bornIn ?c }")
        with pytest.raises(ResultTruncated):
            endpoint.query(PREFIX + "SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
        endpoint.query(PREFIX + "SELECT ?s WHERE { ?s ex:profession ex:Physicist }")
        consumed = policy.max_queries - endpoint.queries_remaining
        assert consumed == endpoint.log.query_count == 3

    def test_charge_cached_consumes_budget_and_logs(self, people_store):
        endpoint = SparqlEndpoint(
            people_store, policy=AccessPolicy(max_queries=2)
        )
        endpoint.charge_cached("SELECT ...", "SELECT", row_count=7)
        assert endpoint.queries_remaining == 1
        assert endpoint.log.query_count == 1
        record = list(endpoint.log)[0]
        assert record.mode == "cached"
        assert record.row_count == 7

    def test_charge_cached_respects_exhausted_budget(self, people_store):
        endpoint = SparqlEndpoint(
            people_store, policy=AccessPolicy(max_queries=1)
        )
        endpoint.query(PREFIX + "ASK { ?s ex:bornIn ?c }")
        with pytest.raises(QueryBudgetExceeded):
            endpoint.charge_cached("SELECT ...", "SELECT", row_count=1)
        # The rejected charge logged nothing, like a rejected query.
        assert endpoint.log.query_count == 1

    def test_data_version_tracks_store_mutations(self, people_store):
        from repro.rdf.triple import Triple

        endpoint = SparqlEndpoint(people_store)
        before = endpoint.data_version
        people_store.add(
            Triple(EX["Nikola_Tesla"], EX.bornIn, EX.Serbia)
        )
        assert endpoint.data_version > before


class TestQueryLogConcurrency:
    def test_aggregate_readers_race_appenders_and_reset(self, people_store):
        """Aggregates read under the log's lock: hammering them during
        concurrent appends and resets must never raise or tear."""
        import threading

        from repro.endpoint.log import QueryLog, QueryRecord

        log = QueryLog()
        stop = threading.Event()
        failures = []

        def appender():
            while not stop.is_set():
                log.record(
                    QueryRecord("q", "SELECT", 3, False, 0.5, 0.001, "single")
                )

        def resetter():
            while not stop.is_set():
                log.reset()

        def reader():
            try:
                while not stop.is_set():
                    assert log.query_count >= 0
                    assert log.total_rows >= 0
                    assert log.total_virtual_seconds >= 0
                    assert log.truncated_count == 0
                    for counts in (log.by_form(), log.by_mode()):
                        assert all(value > 0 for value in counts.values())
                    log.snapshot()
            except Exception as error:  # pragma: no cover - failure path
                failures.append(error)

        threads = [
            threading.Thread(target=target)
            for target in (appender, appender, resetter, reader, reader)
        ]
        for thread in threads:
            thread.start()
        import time

        time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join()
        assert not failures
