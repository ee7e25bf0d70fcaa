"""Record live-mutation benchmark numbers into ``BENCH_mutation.json``.

Three families of metrics for the live-mutable store lifecycle, on the
paper-scale synthetic preset:

* **Delta persistence** — ``delta_save_ms`` vs ``full_save_ms``: cost of
  appending a mutation burst as per-shard snapshot deltas
  (:meth:`~repro.shard.sharded_store.ShardedTripleStore.save_delta`)
  against rewriting the whole sharded snapshot; ``delta_open_ms`` is the
  cold reopen that replays the chain, ``compact_ms`` folds it back into
  fresh base files, and ``rebalance_ms`` re-splits the boundaries from
  live shard counts.
* **Handover latency** — a live query wave hammers a
  :class:`~repro.endpoint.simulation.SimulatedSparqlEndpoint` while
  :meth:`refresh` mutates, persists and swaps the serving generation:
  ``steady_p99_ms`` (no refresh in sight) vs ``handover_p99_ms``
  (queries overlapping the refresh window).  The refresh pauses intake
  only for the mutation+persist instant (``refresh_paused_ms``), so the
  spike must stay bounded — and **zero** queries may error.
* **Process generation swap** — ``process_refresh_ms``: a full refresh
  on the worker-process backend, including booting the next generation's
  pool over the refreshed snapshot while the bridge keeps serving.

Usage::

    PYTHONPATH=src python benchmarks/record_mutation.py --label pr10 --out BENCH_mutation.json

``--check COMMITTED.json`` turns the run into a CI regression guard:
``*_ms`` metrics must not exceed the committed numbers by more than
``--max-regression``.  ``--smoke`` uses a much smaller world for cheap
CI runs; the handover section additionally hard-fails on any errored or
dropped query regardless of thresholds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

_ROOT = Path(__file__).parent.parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
if str(_ROOT) not in sys.path:
    sys.path.append(str(_ROOT))

from benchmarks.timing import best_of  # noqa: E402
from repro.endpoint.policy import AccessPolicy  # noqa: E402
from repro.endpoint.simulation import SimulatedSparqlEndpoint  # noqa: E402
from repro.rdf.namespace import Namespace  # noqa: E402
from repro.rdf.ntriples import term_to_ntriples  # noqa: E402
from repro.rdf.triple import Triple  # noqa: E402
from repro.shard.sharded_store import ShardedTripleStore  # noqa: E402
from repro.synthetic.generator import generate_world  # noqa: E402
from repro.synthetic.presets import yago_dbpedia_spec  # noqa: E402

#: Timed runs per metric; the best one counts.
REPEATS = 3

EX = Namespace("http://bench.mutation/")

NUM_SHARDS = 4
BURST = 2_000
HAMMER_THREADS = 4
STEADY_SECONDS = 0.6
TAIL_SECONDS = 0.25


def _burst_triples(count: int, start: int = 0) -> list:
    return [
        Triple(EX[f"burst{start + i}"], EX.touched, EX[f"o{i % 17}"])
        for i in range(count)
    ]


def _p99(samples: list) -> float:
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100)[98]


def _bench_delta_lifecycle(triples: list, results: dict) -> None:
    tmp = Path(tempfile.mkdtemp(prefix="bench-mutation-"))
    store = ShardedTripleStore(num_shards=NUM_SHARDS, name="bench")
    store.bulk_load(triples, parallel=True)
    base_dir = tmp / "base"
    store.save(base_dir)

    burst = _burst_triples(BURST)
    for triple in burst:
        store.add(triple)
    results["burst_triples"] = len(burst)

    # Full rewrite baseline: the same mutated state into fresh
    # directories, from a copy — saving the original elsewhere would
    # consume its journals and forfeit the delta path below.
    clone = store.copy()
    round_counter = [0]

    def full_save():
        round_counter[0] += 1
        clone.save(tmp / f"full{round_counter[0]}")

    results["full_save_ms"] = best_of(full_save, REPEATS)

    start = time.perf_counter()
    wrote = store.save_delta(base_dir)
    delta_seconds = time.perf_counter() - start
    assert wrote, "the burst must produce a delta"
    results["delta_save_ms"] = delta_seconds * 1000.0
    results["delta_triples_per_s"] = round(len(burst) / delta_seconds, 1)
    if results["delta_save_ms"]:
        results["delta_vs_full_speedup"] = round(
            results["full_save_ms"] / results["delta_save_ms"], 2
        )

    results["delta_open_ms"] = best_of(
        lambda: ShardedTripleStore.open(base_dir), REPEATS
    )
    reopened = ShardedTripleStore.open(base_dir)
    assert len(reopened) == len(store), "delta chain must replay fully"

    start = time.perf_counter()
    store.compact(base_dir)
    results["compact_ms"] = (time.perf_counter() - start) * 1000.0
    results["compacted_open_ms"] = best_of(
        lambda: ShardedTripleStore.open(base_dir), REPEATS
    )

    start = time.perf_counter()
    moved = store.rebalance()["moved"]
    results["rebalance_ms"] = (time.perf_counter() - start) * 1000.0
    results["rebalance_moved"] = moved


def _bench_handover(triples: list, results: dict, backend: str) -> None:
    store = ShardedTripleStore(num_shards=NUM_SHARDS, name="bench")
    store.bulk_load(triples, parallel=True)
    probes = [
        f"ASK {{ {term_to_ntriples(triple.subject)} ?p ?o }}"
        for triple in triples[:64]
    ]
    policy = AccessPolicy(
        max_queries=None, max_result_rows=None, allow_full_scan=True
    )
    tmp = Path(tempfile.mkdtemp(prefix="bench-handover-"))
    kwargs = {}
    if backend == "process":
        kwargs = {"backend": "process", "snapshot_dir": tmp / "snap", "pool_size": 2}
    else:
        store.save(tmp / "snap")
    with SimulatedSparqlEndpoint(store, policy=policy, **kwargs) as endpoint:
        latencies: list = []  # (finished_at, seconds, started_before_refresh)
        errors: list = []
        stop = threading.Event()
        refresh_window = [None, None]

        def hammer(index: int) -> None:
            cursor = index
            while not stop.is_set():
                query = probes[cursor % len(probes)]
                cursor += 1
                begin = time.perf_counter()
                try:
                    endpoint.query(query)
                except Exception as error:  # noqa: BLE001 - hard gate below
                    errors.append(error)
                else:
                    latencies.append((begin, time.perf_counter() - begin))

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(HAMMER_THREADS)
        ]
        for thread in threads:
            thread.start()
        try:
            time.sleep(STEADY_SECONDS)
            refresh_window[0] = time.perf_counter()
            report = endpoint.refresh(
                mutate=lambda s: [s.add(t) for t in _burst_triples(500, start=90_000)],
                rebalance=True,
            )
            refresh_window[1] = time.perf_counter()
            time.sleep(TAIL_SECONDS)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        if errors:
            raise SystemExit(
                f"handover ({backend}) errored {len(errors)} queries: {errors[:3]}"
            )
        steady = [
            seconds * 1000.0
            for begin, seconds in latencies
            if begin + seconds < refresh_window[0]
        ]
        overlapping = [
            seconds * 1000.0
            for begin, seconds in latencies
            if begin + seconds >= refresh_window[0] and begin <= refresh_window[1]
        ]
        prefix = "" if backend == "thread" else "process_"
        results[f"{prefix}steady_p99_ms"] = round(_p99(steady), 3)
        results[f"{prefix}handover_p99_ms"] = round(_p99(overlapping), 3)
        results[f"{prefix}refresh_paused_ms"] = round(
            report["paused_seconds"] * 1000.0, 3
        )
        results[f"{prefix}handover_queries"] = len(latencies)
        if backend == "process":
            results["process_refresh_ms"] = round(
                (refresh_window[1] - refresh_window[0]) * 1000.0, 3
            )


def run_benchmarks(spec=None) -> dict:
    world = generate_world(spec if spec is not None else yago_dbpedia_spec())
    triples = list(world.kb("yago").store)
    results: dict = {"triples": len(triples)}
    _bench_delta_lifecycle(triples, results)
    _bench_handover(triples, results, backend="thread")
    _bench_handover(triples, results, backend="process")
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny run for CI smoke checks"
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="COMMITTED_JSON",
        help="fail when any *_ms metric regresses above the committed "
        "artefact by more than --max-regression",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=3.0,
        help="allowed slowdown factor for --check (default 3.0 — handover "
        "percentiles are scheduler-sensitive on shared runners)",
    )
    parser.add_argument(
        "--noise-floor",
        type=float,
        default=2.0,
        help="absolute slack in ms added to every *_ms threshold",
    )
    args = parser.parse_args()

    spec = None
    if args.smoke:
        spec = yago_dbpedia_spec(families=5, people=60, works=40, places=20, orgs=15)

    results = {
        "benchmark": "benchmarks/record_mutation.py",
        "preset": (
            "smoke world" if args.smoke
            else "yago_dbpedia_spec() (paper-scale, largest preset)"
        ),
        "baseline": "full sharded snapshot rewrite + steady-state query latency",
        "label": args.label,
        "results": run_benchmarks(spec),
    }
    Path(args.out).write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(results, indent=2))

    if args.check:
        committed = json.loads(Path(args.check).read_text(encoding="utf-8"))
        reference = committed.get("results", {})
        failures = []
        for key, reference_value in reference.items():
            measured = results["results"].get(key)
            if not key.endswith("_ms") or not isinstance(
                reference_value, (int, float)
            ) or not isinstance(measured, (int, float)):
                continue
            limit = reference_value * args.max_regression + args.noise_floor
            if measured > limit:
                failures.append((key, reference_value, measured))
        if failures:
            for key, reference_value, measured in failures:
                print(
                    f"REGRESSION {key}: {measured:.4f}ms exceeds "
                    f"{args.max_regression:g}x headroom on committed "
                    f"{reference_value:.4f}ms"
                )
            sys.exit(2)
        checked = sum(1 for key in reference if key.endswith("_ms"))
        print(
            f"regression check ok ({checked} metrics, "
            f"{args.max_regression:g}x headroom)"
        )


if __name__ == "__main__":
    main()
