"""The traced layers: which public functions are wrapped, and what they yield.

Layers are named after the modules that own them.  :func:`install`
wraps the entry points of the aligner, the typed endpoint client, the
endpoint, the SPARQL parse cache and evaluator and result
serialisation; :func:`install_writes` wraps worker-pool boot and
snapshot-delta persistence.
:func:`engine_counters` reads the always-on counters the engine keeps
itself (plan cache, kernels, ship plans, endpoint errors, parse cache),
so a pass can report their change.  :func:`layer_metrics` turns one
traced pass into the per-layer metrics every workload reports; layers a
workload does not exercise report 0.
"""

from __future__ import annotations

from typing import Dict, List

from perfbench.common import mean_ms, percentile, ratio
from perfbench.spans import LayerStats, SpanTracer

#: Execution modes the evaluators note per query.
MODES = ("single", "fast-count", "fold", "scatter", "ship", "global")

#: Span layers whose self time is attributed (the rest is unattributed).
ATTRIBUTED = ("align", "client", "endpoint", "parse", "evaluate", "serialize")

#: Metrics only the ``align`` workload measures.
ALIGN_ONLY = ("align.table1_s", "align.queries_spent")

#: Metrics only the serving workload measures.
SERVING_ONLY = (
    "workers.rows_per_result_row", "workers.batches_per_query",
    "workers.acks_per_query", "workers.queue_wait_ms", "workers.exec_ms",
    "workers.crashed", "workers.boot_ms",
    "http.server_p50_ms", "http.server_p99_ms", "http.edge_self_ms",
    "http.client_side_ms", "http.cache_hit_ratio", "http.rejected",
    "loadgen.late_p99_ms",
    "refresh.writer_p50_ms", "refresh.first_ms", "refresh.paused_ms",
    "refresh.mutate_ms", "persist.save_delta_ms", "persist.bytes_per_triple",
    "persist.chain_length",
)


def _rows(result) -> int:
    """Rows a layer call returned (a boolean or a scalar counts as one)."""
    try:
        return len(result)
    except TypeError:
        return 1


def _observe_rows(stats: LayerStats, args, result, seconds) -> None:
    stats.add("rows", _rows(result))


def _observe_candidates(stats: LayerStats, args, result, seconds) -> None:
    stats.add("candidates", len(result.candidates))


def _observe_evaluate(stats: LayerStats, args, result, seconds) -> None:
    mode = args[0].last_mode()
    stats.add("mode." + mode)
    stats.add("rows", _rows(result))
    stats.sample(mode, seconds)


def _observe_serialize(stats: LayerStats, args, result, seconds) -> None:
    stats.add("bytes", len(result))
    stats.add("rows", _rows(args[0]))


def install(tracer: SpanTracer) -> None:
    """Wrap the entry points of the layers that answer queries."""
    from repro.align.aligner import SofyaAligner
    from repro.endpoint.client import EndpointClient
    from repro.endpoint.endpoint import ParseCache, SparqlEndpoint
    from repro.http import server as http_server
    from repro.sparql import serialize
    from repro.sparql.evaluate import QueryEvaluator

    tracer.wrap(SofyaAligner, "align_relation", "align", _observe_candidates)
    for name, member in vars(EndpointClient).items():
        if not name.startswith("_") and callable(member):
            tracer.wrap(EndpointClient, name, "client", _observe_rows)
    tracer.wrap(SparqlEndpoint, "query", "endpoint")
    tracer.wrap(ParseCache, "parse", "parse")
    tracer.wrap(QueryEvaluator, "evaluate", "evaluate", _observe_evaluate)
    tracer.wrap(serialize, "to_sparql_json", "serialize", _observe_serialize)
    tracer.wrap(http_server, "to_sparql_json", "serialize", _observe_serialize)


def install_writes(tracer: SpanTracer) -> None:
    """Wrap worker-pool boot and snapshot-delta persistence (the refresh path)."""
    from repro.shard.sharded_store import ShardedTripleStore

    tracer.wrap(ShardedTripleStore, "serve", "boot")
    tracer.wrap(ShardedTripleStore, "save_delta", "save_delta")


def engine_counters() -> Dict[str, float]:
    """The engine's own counters, plus the shared parse cache's hits/misses."""
    from repro.endpoint.endpoint import parse_cache_info
    from repro.obs.metrics import registry

    counters = dict(registry().snapshot()["counters"])
    info = parse_cache_info()
    counters["parse_cache.hits"] = info.hits
    counters["parse_cache.misses"] = info.misses
    return counters


def counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def _p(samples: List[float], q: float) -> float:
    return percentile(samples, q) * 1000.0 if samples else 0.0


def layer_metrics(tracer: SpanTracer, counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``counters`` is the change of :func:`engine_counters` over the pass.
    :data:`ALIGN_ONLY` and :data:`SERVING_ONLY` metrics start at 0; the
    workloads that measure them overwrite them.
    """
    layers = tracer.layers
    empty = LayerStats()
    align = layers.get("align", empty)
    client = layers.get("client", empty)
    endpoint = layers.get("endpoint", empty)
    parse = layers.get("parse", empty)
    evaluate = layers.get("evaluate", empty)
    serialize = layers.get("serialize", empty)

    kernel_fallbacks = sum(
        value for name, value in counters.items() if name.startswith("kernel.fallback.")
    )
    vectorized = counters.get("kernel.vectorized", 0)
    plan_hits = counters.get("plan.cache_hit", 0)
    parse_hits = counters.get("parse_cache.hits", 0)
    ship_queries = evaluate.counts.get("mode.ship", 0)

    metrics = {
        "align.self_ms": mean_ms(align.self_time, align.calls),
        "align.queries_per_relation": ratio(endpoint.calls, align.calls),
        "align.candidates_per_relation": ratio(align.counts.get("candidates", 0), align.calls),
        "client.self_ms": mean_ms(client.self_time, client.calls),
        "client.rows_per_query": ratio(client.counts.get("rows", 0), client.calls),
        "endpoint.self_ms": mean_ms(endpoint.self_time, endpoint.calls),
        "endpoint.errors": counters.get("endpoint.errors", 0),
        "parse.ms": mean_ms(parse.self_time, parse.calls),
        "parse.hit_ratio": ratio(parse_hits, parse_hits + counters.get("parse_cache.misses", 0)),
        "evaluate.p50_ms": _p(evaluate.durations, 50),
        "evaluate.p99_ms": _p(evaluate.durations, 99),
        "plan.hit_ratio": ratio(plan_hits, plan_hits + counters.get("plan.cache_miss", 0)),
        "kernel.vectorized_ratio": ratio(vectorized, vectorized + kernel_fallbacks),
        "ship.broadcast_rows_per_query": ratio(
            counters.get("ship.broadcast_rows", 0), ship_queries
        ),
        "serialize.ms": mean_ms(serialize.self_time, serialize.calls),
        "serialize.bytes_per_row": ratio(
            serialize.counts.get("bytes", 0), serialize.counts.get("rows", 0)
        ),
    }
    for mode in MODES:
        metrics[f"scatter.mode_share.{mode}"] = ratio(
            evaluate.counts.get("mode." + mode, 0), evaluate.calls
        )
        metrics[f"scatter.{mode}.p99_ms"] = _p(
            evaluate.series.get(mode, []), 99
        )
    for name in ALIGN_ONLY + SERVING_ONLY:
        metrics[name] = 0.0
    return metrics


def attributed_seconds(tracer: SpanTracer) -> float:
    """Self time summed over the attributed layers."""
    return sum(
        tracer.layers[name].self_time for name in ATTRIBUTED if name in tracer.layers
    )
