"""Record process- vs thread-backend wave throughput into ``BENCH_proc.json``.

The thread-backend waves of PR 3 overlap simulated *latency* well but
serialise the CPU-bound per-shard join pipelines on the GIL
(BENCH_shard.json records the resulting sub-linear 6.2x at 8 shards).
This benchmark measures the quantity the process workers exist to move:
**CPU-bound wave throughput** — no latency sleeps, a co-partitioned
multi-pattern star-join workload whose per-shard pipelines do real work —
served three ways on the paper-scale preset at 8 shards:

* ``wave_seq_qps`` — the queries issued sequentially (floor);
* ``wave_thread8_qps`` — a :class:`WaveScheduler` thread-pool wave
  against the in-process scatter backend (the PR 3 path);
* ``wave_proc8_qps`` — the same wave against
  ``backend="process"``: one worker process per shard over the
  per-shard snapshot files.

``proc_vs_thread8`` is the headline ratio.  **It scales with the
machine**: worker processes evaluate shards on separate cores, so the
ratio approaches min(cores, shards) on real hardware and degenerates to
~1x (parallelism-free, IPC overhead included) on a single-core runner.
``cpu_count`` is recorded alongside so the artefact is interpretable,
and ``--check`` derives its floor from the runner's cores:

* ``cpu_count >= 3``: the acceptance floor ``--min-speedup`` (default
  1.5) applies as-is — a multi-core runner that cannot beat the GIL by
  1.5x at 8 shards means the executor is broken;
* ``cpu_count == 2``: floor ``1.2``;
* ``cpu_count == 1``: floor ``0.4`` — no parallelism is available, so
  the check only guards against pathological protocol overhead
  (measured ~0.5-0.65x on a single core).

PR 7 adds two pushdown scenarios, measured with bare evaluators on a
shared thread pool (no endpoint accounting, the protocol is the thing
under test):

* **Aggregate wave** — two-pattern COUNT / COUNT DISTINCT star queries
  (two patterns so the single-pattern index-count intercept cannot
  answer them).  ``agg_proc8_qps`` uses worker-side fold partials;
  ``agg_stream_proc8_qps`` forces the pre-PR 7 behaviour (every row
  streams to the parent, which folds).  ``agg_fold_vs_stream8`` is the
  headline ratio — it reflects *transfer* saved, so it exceeds 1 even
  on a single core and the ``--min-agg-speedup`` floor (default 3.0)
  scales down to 1.5 / 1.1 on 2- / 1-core runners.
* **Cross-shard join wave** — s–o chains that are never co-partitioned;
  before PR 7 they ran on the single-threaded merged view, now they
  scatter with the cheapest relation broadcast (``xjoin_ship_engaged``
  counts how many workload queries actually shipped).  Each shard
  seeds its anchor ``?s <big> ?a`` with the few distinct ``?a`` keys
  of the broadcast ``?a <small> ?z`` (one index lookup per key) instead
  of scanning it, so the chains cost in proportion to the small
  relation.  That saving is pure CPU and the thread backend keeps all
  of it, while the process backend still pays the IPC per task — so
  ``xjoin_proc_vs_thread8`` falls below 1 on small machines.  It is
  reported, not gated.

``--check COMMITTED.json`` additionally applies the usual relative
regression guard to every ``*_qps`` metric (must not fall below the
committed number by more than ``--max-regression``), like the other
recorders.  ``--smoke`` shrinks the world for CI.

Usage::

    PYTHONPATH=src python benchmarks/record_proc.py --label pr5 --out BENCH_proc.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

_ROOT = Path(__file__).parent.parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.endpoint.policy import AccessPolicy  # noqa: E402
from repro.endpoint.simulation import (  # noqa: E402
    SimulatedSparqlEndpoint,
    WaveScheduler,
    sharded_endpoint,
)
from repro.shard.sharded_store import ShardedTripleStore  # noqa: E402
from repro.sparql.evaluate import QueryEvaluator  # noqa: E402
from repro.sparql.scatter import ShardedQueryEvaluator  # noqa: E402
from repro.synthetic.generator import generate_world  # noqa: E402
from repro.synthetic.presets import yago_dbpedia_spec  # noqa: E402

SHARDS = 8
WAVE_REPEATS = 3


class _StreamingAggEvaluator(ShardedQueryEvaluator):
    """The pre-PR 7 aggregate path: rows stream back, the parent folds."""

    def _fold_pushdown(self, query):
        return None


def _policy() -> AccessPolicy:
    base = AccessPolicy.public_endpoint()
    return AccessPolicy(
        max_queries=None,
        max_result_rows=None,
        latency_per_query=base.latency_per_query,
        latency_per_row=base.latency_per_row,
        allow_full_scan=True,
    )


def _cpu_workload(kb, store) -> list:
    """Co-partitioned star joins with real per-shard compute.

    Two shapes per top relation, both guaranteed to produce work on
    every shard that holds the relation:

    * ``?s <p> ?a . ?s <p> ?b`` — the per-subject object cross product,
      a dense merge/hash pipeline with a mid-size result;
    * ``?s <p> ?a . ?s ?q ?o`` — a selective anchor joined against the
      subject's full description (the shape of the aligner's entity
      probes), heavy on index scans and result rows.
    """
    relations = sorted(kb.relations(), key=lambda info: -info.fact_count)[:4]
    if len(relations) < 2:
        raise SystemExit("preset too small for the star-join workload")
    queries = []
    for info in relations:
        p = info.iri.value
        queries.extend(
            [
                f"SELECT ?s ?a ?b WHERE {{ ?s <{p}> ?a . ?s <{p}> ?b }}",
                f"SELECT ?s ?a ?b WHERE {{ ?s <{p}> ?a . ?s <{p}> ?b }}",
                f"SELECT ?s ?q ?o WHERE {{ ?s <{p}> ?a . ?s ?q ?o }}",
            ]
        )
    return queries


def _agg_workload(kb) -> list:
    """Two-pattern COUNT waves the fold pushdown handles end to end.

    Two patterns keep the single-pattern index-count intercept out of the
    way; the DISTINCT pair covers both merge modes (the subject is the
    partition variable — sizes sum — while ``?o`` needs the hybrid
    set-union merge).
    """
    relations = sorted(kb.relations(), key=lambda info: -info.fact_count)[:4]
    queries = []
    for info in relations:
        p = info.iri.value
        queries.extend(
            [
                f"SELECT (COUNT(*) AS ?c) WHERE {{ ?s <{p}> ?a . ?s <{p}> ?b }}",
                f"SELECT (COUNT(DISTINCT ?s) AS ?c) (COUNT(DISTINCT ?o) AS ?d) "
                f"WHERE {{ ?s <{p}> ?a . ?s ?q ?o }}",
            ]
        )
    return queries


def _chain_workload(kb) -> list:
    """s–o chains: never co-partitioned, the join-shipping target shape.

    The smallest relation is the second hop, so the broadcast side stays
    cheap and shipping engages on every data scale.
    """
    relations = sorted(kb.relations(), key=lambda info: -info.fact_count)
    if len(relations) < 2:
        raise SystemExit("preset too small for the chain-join workload")
    small = relations[-1].iri.value
    return [
        f"SELECT ?s ?a ?z WHERE {{ ?s <{info.iri.value}> ?a . "
        f"?a <{small}> ?z }}"
        for info in relations[:4]
    ]


def _best_wave_qps(endpoint, queries, workers: int) -> float:
    best = 0.0
    with WaveScheduler(endpoint, max_workers=workers) as scheduler:
        for _ in range(WAVE_REPEATS):
            wave = scheduler.run_wave(queries)
            assert not wave.errors, wave.errors[:1]
            best = max(best, wave.throughput)
    return round(best, 2)


def _best_pool_qps(evaluator, queries, workers: int) -> float:
    """Best-of-N wave throughput against a bare evaluator (no endpoint)."""
    best = 0.0
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for _ in range(WAVE_REPEATS):
            start = time.perf_counter()
            for result in pool.map(evaluator.evaluate, queries):
                assert result is not None
            best = max(best, len(queries) / (time.perf_counter() - start))
    return round(best, 2)


def _seq_qps(evaluator, queries) -> float:
    start = time.perf_counter()
    for query in queries:
        evaluator.evaluate(query)
    return round(len(queries) / (time.perf_counter() - start), 2)


def run_benchmarks(spec=None) -> dict:
    world = generate_world(spec if spec is not None else yago_dbpedia_spec())
    yago = world.kb("yago")
    triples = list(yago.store)
    results: dict = {"triples": len(triples), "cpu_count": os.cpu_count()}

    sharded = ShardedTripleStore(num_shards=SHARDS, name="bench", triples=triples)
    queries = _cpu_workload(yago, yago.store)
    results["wave_queries"] = len(queries)
    policy = _policy()

    # Sequential floor (single store, no waves).
    endpoint = SimulatedSparqlEndpoint(yago.store, policy=policy)
    start = time.perf_counter()
    for query in queries:
        endpoint.query(query)
    results["wave_seq_qps"] = round(
        len(queries) / (time.perf_counter() - start), 2
    )

    # Thread backend (PR 3 path): in-process scatter + thread-pool waves.
    thread_endpoint = sharded_endpoint(sharded, policy=policy)
    results[f"wave_thread{SHARDS}_qps"] = _best_wave_qps(
        thread_endpoint, queries, workers=SHARDS
    )

    # Process backend: snapshot + one worker per shard.
    snapshot_dir = Path(tempfile.mkdtemp(prefix="bench-proc-")) / "snap"
    with sharded_endpoint(
        sharded, policy=policy, backend="process", snapshot_dir=snapshot_dir
    ) as proc_endpoint:
        results[f"wave_proc{SHARDS}_qps"] = _best_wave_qps(
            proc_endpoint, queries, workers=SHARDS
        )

    thread_qps = results[f"wave_thread{SHARDS}_qps"]
    if thread_qps:
        results[f"proc_vs_thread{SHARDS}"] = round(
            results[f"wave_proc{SHARDS}_qps"] / thread_qps, 2
        )

    # ---- PR 7 pushdown scenarios (bare evaluators, shared pool) ---- #
    single_eval = QueryEvaluator(yago.store)
    thread_eval = ShardedQueryEvaluator(sharded)

    agg_queries = _agg_workload(yago)
    results["agg_queries"] = len(agg_queries)
    results["agg_seq_qps"] = _seq_qps(single_eval, agg_queries)
    results[f"agg_thread{SHARDS}_qps"] = _best_pool_qps(
        thread_eval, agg_queries, SHARDS
    )

    chain_queries = _chain_workload(yago)
    results["xjoin_queries"] = len(chain_queries)
    results["xjoin_ship_engaged"] = sum(
        1 for query in chain_queries if thread_eval.explain(query).mode == "ship"
    )
    results["xjoin_seq_qps"] = _seq_qps(single_eval, chain_queries)
    results[f"xjoin_thread{SHARDS}_qps"] = _best_pool_qps(
        thread_eval, chain_queries, SHARDS
    )

    pushdown_dir = Path(tempfile.mkdtemp(prefix="bench-proc-")) / "snap"
    with sharded.serve(pushdown_dir) as executor:
        fold_eval = ShardedQueryEvaluator(
            sharded, backend="process", executor=executor
        )
        stream_eval = _StreamingAggEvaluator(
            sharded, backend="process", executor=executor
        )
        results[f"agg_proc{SHARDS}_qps"] = _best_pool_qps(
            fold_eval, agg_queries, SHARDS
        )
        results[f"agg_stream_proc{SHARDS}_qps"] = _best_pool_qps(
            stream_eval, agg_queries, SHARDS
        )
        results[f"xjoin_proc{SHARDS}_qps"] = _best_pool_qps(
            fold_eval, chain_queries, SHARDS
        )

    if results[f"agg_stream_proc{SHARDS}_qps"]:
        results[f"agg_fold_vs_stream{SHARDS}"] = round(
            results[f"agg_proc{SHARDS}_qps"]
            / results[f"agg_stream_proc{SHARDS}_qps"],
            2,
        )
    if results[f"agg_thread{SHARDS}_qps"]:
        results[f"agg_proc_vs_thread{SHARDS}"] = round(
            results[f"agg_proc{SHARDS}_qps"] / results[f"agg_thread{SHARDS}_qps"], 2
        )
    if results[f"xjoin_thread{SHARDS}_qps"]:
        results[f"xjoin_proc_vs_thread{SHARDS}"] = round(
            results[f"xjoin_proc{SHARDS}_qps"]
            / results[f"xjoin_thread{SHARDS}_qps"],
            2,
        )
    return results


def _speedup_floor(cpu_count: int, acceptance: float) -> float:
    """The enforceable process-vs-thread floor for this runner's cores.

    On one core the protocol can only lose (measured ~0.5-0.65x: queue
    round-trips plus binding serialisation with zero parallelism to
    win back), so the floor there merely catches pathological overhead
    regressions.
    """
    if cpu_count >= 3:
        return acceptance
    if cpu_count == 2:
        return 1.2
    return 0.4


def _agg_floor(cpu_count: int, acceptance: float) -> float:
    """The fold-vs-stream floor: transfer saved, not cores, drives it.

    Folding replaces O(solutions) pickled row batches with one partial
    per shard, so it wins even single-core — but the margin there is
    only the serialisation cost, hence the reduced floors.
    """
    if cpu_count >= 3:
        return acceptance
    if cpu_count == 2:
        return 1.5
    return 1.1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny world for CI smoke checks"
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="COMMITTED_JSON",
        help="fail when *_qps falls below the committed artefact by more "
        "than --max-regression, or when proc_vs_thread8 falls below the "
        "core-scaled speedup floor",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="allowed throughput-loss factor vs committed (default 2.0)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="acceptance floor for proc_vs_thread8 on runners with >= 3 "
        "cores (scaled down automatically on smaller runners)",
    )
    parser.add_argument(
        "--min-agg-speedup",
        type=float,
        default=3.0,
        help="acceptance floor for agg_fold_vs_stream8 (worker-side fold "
        "vs streamed rows) on runners with >= 3 cores; scaled down to "
        "1.5 / 1.1 on 2- / 1-core runners",
    )
    args = parser.parse_args()

    spec = None
    if args.smoke:
        spec = yago_dbpedia_spec(families=5, people=60, works=40, places=20, orgs=15)

    results = {
        "benchmark": "benchmarks/record_proc.py",
        "preset": (
            "smoke world" if args.smoke
            else "yago_dbpedia_spec() (paper-scale, largest preset)"
        ),
        "baseline": "PR 3 thread-backend scatter waves (same queries, same "
        "store, 8 shards, 8 wave workers, no simulated latency)",
        "note": "proc_vs_thread8 scales with available cores; cpu_count is "
        "recorded so artefacts from different machines stay comparable",
        "label": args.label,
        "results": run_benchmarks(spec),
    }
    Path(args.out).write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(results, indent=2))

    if args.check:
        committed = json.loads(Path(args.check).read_text(encoding="utf-8"))
        reference = committed.get("results", {})
        measured_all = results["results"]
        failures = []
        for key, reference_value in reference.items():
            measured = measured_all.get(key)
            if not key.endswith("_qps"):
                continue
            if not isinstance(reference_value, (int, float)) or not isinstance(
                measured, (int, float)
            ):
                continue
            if measured < reference_value / args.max_regression:
                failures.append(
                    f"REGRESSION {key}: {measured:.2f} qps is below "
                    f"{args.max_regression:g}x headroom on committed "
                    f"{reference_value:.2f}"
                )
        cpu_count = measured_all.get("cpu_count") or 1
        floor = _speedup_floor(cpu_count, args.min_speedup)
        speedup = measured_all.get(f"proc_vs_thread{SHARDS}", 0.0)
        if speedup < floor:
            failures.append(
                f"ACCEPTANCE proc_vs_thread{SHARDS}: {speedup:.2f} is below "
                f"the floor {floor:g} for a {cpu_count}-core runner"
            )
        agg_floor = _agg_floor(cpu_count, args.min_agg_speedup)
        agg_speedup = measured_all.get(f"agg_fold_vs_stream{SHARDS}", 0.0)
        if agg_speedup < agg_floor:
            failures.append(
                f"ACCEPTANCE agg_fold_vs_stream{SHARDS}: {agg_speedup:.2f} "
                f"is below the floor {agg_floor:g} for a {cpu_count}-core "
                f"runner"
            )
        if not measured_all.get("xjoin_ship_engaged"):
            failures.append(
                "ACCEPTANCE xjoin_ship_engaged: no chain query used join "
                "shipping — the cross-shard path regressed to merged-view "
                "fallback"
            )
        if failures:
            for line in failures:
                print(line)
            sys.exit(2)
        print(
            f"regression check ok (qps headroom {args.max_regression:g}x, "
            f"speedup floor {floor:g} at {cpu_count} cores: measured "
            f"{speedup:.2f}; agg fold floor {agg_floor:g}: measured "
            f"{agg_speedup:.2f}; ship engaged on "
            f"{measured_all.get('xjoin_ship_engaged')} chain queries)"
        )


if __name__ == "__main__":
    main()
