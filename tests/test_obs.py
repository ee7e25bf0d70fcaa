"""Unit tests for the observability layer (``repro.obs``).

Covers the three obs modules in isolation — validated env config,
metrics registry (counters / gauges / fixed-bucket histograms with
percentile snapshots) and the trace recorder (span trees, stream spans,
worker-payload round-trips) — plus the endpoint surfaces built on them:
``profile()``, the ``REPRO_TRACE`` JSON-lines sink, the extended query
log export and ``WaveScheduler.wave_report()``.
"""

import json
import threading
from pathlib import Path

import pytest

from repro.endpoint.policy import AccessPolicy
from repro.endpoint.simulation import SimulatedSparqlEndpoint, WaveScheduler
from repro.errors import ConfigError, QueryBudgetExceeded
from repro.obs import config
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    TraceRecorder,
    count_rows,
    recorder,
)
from repro.rdf.namespace import Namespace
from repro.rdf.triple import Triple
from repro.shard.sharded_store import ShardedTripleStore
from repro.store.triplestore import TripleStore

EX = Namespace("http://obs.test/")

JOIN_QUERY = (
    "SELECT ?s ?a ?b WHERE { ?s <http://obs.test/p0> ?a . "
    "?s <http://obs.test/p1> ?b }"
)
COUNT_QUERY = (
    "SELECT (COUNT(*) AS ?c) WHERE { ?s <http://obs.test/p0> ?a . "
    "?s <http://obs.test/p1> ?b }"
)


def _triples(count=60):
    triples = []
    for i in range(count):
        triples.append(Triple(EX[f"s{i}"], EX.p0, EX[f"a{i % 7}"]))
        triples.append(Triple(EX[f"s{i}"], EX.p1, EX[f"b{i % 5}"]))
    return triples


# ---------------------------------------------------------------------- #
# config: validated REPRO_* parsing
# ---------------------------------------------------------------------- #
class TestConfig:
    def test_env_int_unset_and_blank_mean_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_INT", raising=False)
        assert config.env_int("REPRO_TEST_INT", 7) == 7
        monkeypatch.setenv("REPRO_TEST_INT", "   ")
        assert config.env_int("REPRO_TEST_INT", 7) == 7

    def test_env_int_parses_and_strips(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", " 42 ")
        assert config.env_int("REPRO_TEST_INT", 7) == 42

    def test_env_int_rejects_garbage_naming_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "bogus")
        with pytest.raises(ConfigError, match="REPRO_TEST_INT.*'bogus'"):
            config.env_int("REPRO_TEST_INT", 7)

    def test_env_int_enforces_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "0")
        with pytest.raises(ConfigError, match="must be >= 1"):
            config.env_int("REPRO_TEST_INT", 7, minimum=1)

    def test_world_cache_root_vocabulary(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_WORLD_CACHE", raising=False)
        assert config.world_cache_root() == Path.home() / ".cache" / "repro-worlds"
        for off in ("", "0", "OFF", " none ", "Disabled"):
            monkeypatch.setenv("REPRO_WORLD_CACHE", off)
            assert config.world_cache_root() is None, off
        monkeypatch.setenv("REPRO_WORLD_CACHE", str(tmp_path))
        assert config.world_cache_root() == tmp_path

    def test_env_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_PATH", raising=False)
        assert config.env_path("REPRO_TEST_PATH") is None
        monkeypatch.setenv("REPRO_TEST_PATH", "  ")
        assert config.env_path("REPRO_TEST_PATH") is None
        monkeypatch.setenv("REPRO_TEST_PATH", " /tmp/t.jsonl ")
        assert config.env_path("REPRO_TEST_PATH") == "/tmp/t.jsonl"

    def test_engine_knobs_wired_to_validators(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_WINDOW", "0")
        with pytest.raises(ConfigError, match="REPRO_RESULT_WINDOW"):
            config.result_window()
        monkeypatch.setenv("REPRO_BROADCAST_LIMIT", "-1")
        with pytest.raises(ConfigError, match="REPRO_BROADCAST_LIMIT"):
            config.broadcast_limit()
        # A malformed cache cap used to mean "no cap" silently.
        monkeypatch.setenv("REPRO_WORLD_CACHE_LIMIT", "10GB")
        with pytest.raises(ConfigError, match="REPRO_WORLD_CACHE_LIMIT"):
            config.world_cache_limit()
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert config.trace_path() is None


# ---------------------------------------------------------------------- #
# metrics: counters, gauges, histograms, registry switch
# ---------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_and_gauge_basics(self):
        reg = MetricsRegistry()
        reg.increment("hits")
        reg.increment("hits", 4)
        assert reg.value("hits") == 5
        reg.set_gauge("depth", 3.5)
        assert reg.value("depth") == 3.5
        reg.gauge("depth").inc(0.5)
        assert reg.value("depth") == 4.0
        assert reg.value("never-written") == 0

    def test_single_sample_histogram_reports_it_everywhere(self):
        hist = Histogram("lat")
        hist.record(0.25)
        for q in (50, 95, 99):
            assert hist.percentile(q) == pytest.approx(0.25)
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert snap["min"] == snap["max"] == snap["p99"] == pytest.approx(0.25)

    def test_percentiles_are_ordered_and_clamped(self):
        hist = Histogram("lat")
        samples = [0.001 * (i + 1) for i in range(200)]
        for value in samples:
            hist.record(value)
        p50, p95, p99 = (hist.percentile(q) for q in (50, 95, 99))
        assert min(samples) <= p50 <= p95 <= p99 <= max(samples)
        # The geometric buckets are coarse; percentile estimates should
        # still land within one bucket of the exact answer.
        assert p50 == pytest.approx(0.1, rel=0.6)
        assert p99 >= 0.15

    def test_empty_histogram(self):
        hist = Histogram("lat")
        assert hist.percentile(50) is None
        assert hist.snapshot() == {"count": 0}

    def test_registry_disable_turns_hot_paths_off(self):
        reg = MetricsRegistry(enabled=False)
        reg.increment("hits")
        reg.observe("lat", 0.1)
        reg.set_gauge("depth", 9)
        snap = reg.snapshot()
        assert snap["counters"] == {} and snap["histograms"] == {}
        reg.set_enabled(True)
        reg.increment("hits")
        assert reg.value("hits") == 1

    def test_prefix_reads_and_reset(self):
        reg = MetricsRegistry()
        reg.increment("scatter.mode.fold", 2)
        reg.increment("scatter.mode.ship")
        reg.increment("other")
        assert reg.counters_with_prefix("scatter.mode.") == {"fold": 2, "ship": 1}
        reg.reset()
        assert reg.snapshot()["counters"] == {}

    def test_concurrent_increments_do_not_lose_updates(self):
        reg = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                reg.increment("n")
                reg.observe("lat", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert reg.value("n") == 8000
        assert reg.histogram("lat").count == 8000


# ---------------------------------------------------------------------- #
# trace: spans, recorder, payload round-trips
# ---------------------------------------------------------------------- #
class TestSpan:
    def test_finish_is_idempotent(self):
        span = Span("stage")
        span.finish()
        first = span.duration
        span.finish(status="error", error=ValueError("late"))
        assert span.duration == first and span.status == "ok"

    def test_tree_introspection(self):
        root = Span("query")
        child = root.child("scatter", shards=2)
        child.child("worker:exec")
        child.child("worker:exec")
        assert [s.name for s in root.iter_spans()] == [
            "query", "scatter", "worker:exec", "worker:exec",
        ]
        assert root.find("scatter") is child
        assert root.find("missing") is None
        assert len(root.find_all("worker:exec")) == 2

    def test_payload_round_trip_preserves_worker_provenance(self):
        span = Span("worker:exec", {"shard": 3}, process="worker")
        span.child("decode").finish()
        span.finish(status="error", error=RuntimeError("boom"))
        rebuilt = Span.from_payload(span.to_dict())
        assert rebuilt.name == "worker:exec"
        assert rebuilt.process == "worker"
        assert rebuilt.attributes == {"shard": 3}
        assert rebuilt.status == "error" and "boom" in rebuilt.error
        assert rebuilt.duration == pytest.approx(span.duration, abs=1e-3)
        assert [c.name for c in rebuilt.children] == ["decode"]
        assert "worker:exec" in rebuilt.describe()

    def test_null_span_absorbs_everything(self):
        NULL_SPAN.annotate(rows=1)
        assert NULL_SPAN.child("x") is NULL_SPAN
        NULL_SPAN.finish(status="error", error=ValueError())


class TestTraceRecorder:
    def test_inactive_recorder_costs_nothing_visible(self):
        tracer = TraceRecorder()
        assert tracer.active is False
        assert tracer.current() is None
        with tracer.span("stage") as span:
            assert span is NULL_SPAN
        assert tracer.stream_span("stage") is None
        assert tracer.attach(Span("orphan")) is False

    def test_begin_end_builds_one_tree(self):
        tracer = TraceRecorder()
        root = tracer.begin("query")
        with tracer.span("parse"):
            pass
        with tracer.span("evaluate", backend="thread") as evaluate:
            inner = tracer.stream_span("scatter", shards=2)
            assert inner in evaluate.children
            inner.finish()
        tracer.end(root)
        assert tracer.active is False
        assert [c.name for c in root.children] == ["parse", "evaluate"]
        assert root.duration is not None

    def test_end_closes_abandoned_inner_spans(self):
        tracer = TraceRecorder()
        root = tracer.begin("query")
        tracer.begin("stage")  # never explicitly ended
        tracer.end(root, status="error", error=RuntimeError("crash"))
        assert tracer.active is False
        assert root.status == "error"
        assert root.children[0].duration is not None

    def test_span_context_records_exceptions(self):
        tracer = TraceRecorder()
        root = tracer.begin("query")
        with pytest.raises(ValueError):
            with tracer.span("evaluate"):
                raise ValueError("bad query")
        assert root.children[0].status == "error"
        assert "bad query" in root.children[0].error
        tracer.end(root)

    def test_count_rows_annotates_and_finishes(self):
        span = Span("step:join")
        assert list(count_rows(span, iter([1, 2, 3]))) == [1, 2, 3]
        assert span.attributes["rows"] == 3 and span.status == "ok"

    def test_count_rows_early_close_is_clean(self):
        span = Span("scatter")
        stream = count_rows(span, iter(range(100)))
        next(stream)
        stream.close()
        assert span.attributes == {"rows": 1, "closed_early": True}
        assert span.status == "ok"

    def test_count_rows_marks_errors(self):
        span = Span("scatter")

        def explode():
            yield 1
            raise RuntimeError("worker died")

        stream = count_rows(span, explode())
        next(stream)
        with pytest.raises(RuntimeError):
            next(stream)
        assert span.status == "error" and "worker died" in span.error


# ---------------------------------------------------------------------- #
# endpoint surfaces: profile(), REPRO_TRACE, log export, wave_report
# ---------------------------------------------------------------------- #
class TestEndpointObservability:
    def test_profile_returns_one_tree_with_engine_stages(self):
        store = ShardedTripleStore(num_shards=2, triples=_triples())
        endpoint = SimulatedSparqlEndpoint(store)
        profile = endpoint.profile(JOIN_QUERY)
        assert profile.error is None
        assert len(profile.result) == len(endpoint.query(JOIN_QUERY))
        trace = profile.trace
        assert trace.name == "query" and trace.duration is not None
        assert trace.find("parse") is not None
        assert trace.find("evaluate") is not None
        scatter = trace.find("scatter")
        assert scatter is not None
        assert scatter.attributes["rows"] == len(profile.result)
        assert trace.attributes["mode"] == "scatter"
        assert "scatter" in profile.describe()
        # The recorder's stack is clean afterwards: plain queries do not
        # accidentally nest under a leaked profile root.
        assert recorder().active is False

    def test_profile_captures_endpoint_family_errors(self):
        endpoint = SimulatedSparqlEndpoint(
            TripleStore(triples=_triples()),
            policy=AccessPolicy(max_queries=0),
        )
        profile = endpoint.profile(JOIN_QUERY)
        assert profile.result is None
        assert isinstance(profile.error, QueryBudgetExceeded)
        assert profile.trace.status == "error"
        assert recorder().active is False

    def test_profile_reraises_unrelated_errors(self):
        endpoint = SimulatedSparqlEndpoint(TripleStore(triples=_triples()))
        with pytest.raises(Exception):
            endpoint.profile("SELEC bogus")
        assert recorder().active is False

    def test_repro_trace_appends_json_lines(self, tmp_path, monkeypatch):
        sink = tmp_path / "trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(sink))
        store = ShardedTripleStore(num_shards=2, triples=_triples())
        endpoint = SimulatedSparqlEndpoint(store)
        endpoint.query(JOIN_QUERY)
        endpoint.query(COUNT_QUERY)
        lines = sink.read_text().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["name"] == "query"
        assert first["attributes"]["mode"] == "scatter"
        assert second["attributes"]["mode"] in ("fold", "fast-count")
        stages = [c["name"] for c in first["children"]]
        assert "parse" in stages and "evaluate" in stages

    def test_access_log_export_carries_mode_and_latency(self, tmp_path):
        store = ShardedTripleStore(num_shards=2, triples=_triples())
        endpoint = SimulatedSparqlEndpoint(store)
        endpoint.query(JOIN_QUERY)
        endpoint.query(COUNT_QUERY)
        assert endpoint.log.by_mode().get("scatter") == 1
        path = tmp_path / "access.jsonl"
        assert endpoint.export_access_log(path) == 2
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["mode"] for r in records] == [
            "scatter",
            records[1]["mode"],  # fold or fast-count depending on plan
        ]
        assert all(r["duration_ms"] >= 0 for r in records)
        assert records[0]["rows"] == len(endpoint.query(JOIN_QUERY))

    def test_wave_report_percentiles_per_mode(self):
        store = ShardedTripleStore(num_shards=2, triples=_triples())
        endpoint = SimulatedSparqlEndpoint(store)
        with WaveScheduler(endpoint, max_workers=4) as scheduler:
            result = scheduler.run_wave([JOIN_QUERY] * 4 + [COUNT_QUERY] * 2)
        assert not result.errors
        report = scheduler.wave_report()
        assert report["queries"] == 6
        assert report["errors"] == 0 and report["crashes"] == 0
        for key in ("p50", "p95", "p99"):
            assert report["latency"][key] >= 0
        assert report["modes"]["scatter"]["count"] == 4
        assert sum(m["count"] for m in report["modes"].values()) == 6

    def test_wave_report_counts_failures(self):
        endpoint = SimulatedSparqlEndpoint(
            TripleStore(triples=_triples()),
            policy=AccessPolicy(max_queries=1),
        )
        with WaveScheduler(endpoint, max_workers=2) as scheduler:
            result = scheduler.run_wave([JOIN_QUERY, JOIN_QUERY])
        assert len(result.errors) == 1
        report = scheduler.wave_report()
        assert report["queries"] == 1
        assert report["errors"] == 1
        assert report["crashes"] == 0
