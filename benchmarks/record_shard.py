"""Record sharded-store benchmark numbers into ``BENCH_shard.json``.

Two families of metrics on the largest synthetic preset (the paper-scale
YAGO-like/DBpedia-like pair), at 1/2/4/8 shards against the PR 2
single-store baseline:

* **Sharded build time** — ``build_shards{n}_ms``: bulk-loading the
  preset's triples into a :class:`ShardedTripleStore` (per-shard columnar
  builds on a thread pool) vs ``build_single_ms`` (one
  ``TripleStore.bulk_load``).
* **Wave throughput** — ``wave_shards{n}_qps``: an alignment-style query
  batch (VALUES entity descriptions, per-subject ASK probes, relation
  counts) issued as concurrent waves by the
  :class:`~repro.endpoint.simulation.WaveScheduler` against a sharded
  :class:`~repro.endpoint.simulation.SimulatedSparqlEndpoint`, vs
  ``wave_seq_qps``: the same queries issued sequentially against the
  single-store endpoint.  Both endpoints charge the same simulated
  per-query latency (scaled from the public-endpoint policy's virtual
  cost), the quantity that bounds real experiments; overlapping waves
  hide it the way an async client hides network round-trips.

Usage::

    PYTHONPATH=src python benchmarks/record_shard.py --label pr3 --out BENCH_shard.json

``--check COMMITTED.json`` turns the run into a CI regression guard:
``*_ms`` metrics must not exceed the committed numbers by more than
``--max-regression``, and ``*_qps`` metrics must not fall below the
committed numbers by more than the same factor.  ``--smoke`` uses a much
smaller world (cheaper queries, identical latency model), so honest code
clears the committed thresholds comfortably.
"""

from __future__ import annotations

import argparse
import json
import sys
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
from repro.endpoint.simulation import (  # noqa: E402
    SimulatedSparqlEndpoint,
    WaveScheduler,
    sharded_endpoint,
)
from repro.rdf.ntriples import term_to_ntriples  # noqa: E402
from repro.shard.sharded_store import ShardedTripleStore  # noqa: E402
from repro.store.triplestore import TripleStore  # noqa: E402
from repro.synthetic.generator import generate_world  # noqa: E402
from repro.synthetic.presets import yago_dbpedia_spec  # noqa: E402

#: Timed runs per metric; the best one counts.
REPEATS = 3

SHARD_COUNTS = (1, 2, 4, 8)

#: Real seconds charged per virtual second of the policy's estimated cost.
#: public_endpoint() charges 0.35 virtual sec/query, so ~1.4 ms of real
#: latency per query — small enough to benchmark, large enough to dominate
#: a sequential client the way live endpoint latency does.
LATENCY_SCALE = 0.004


def _policy() -> AccessPolicy:
    base = AccessPolicy.public_endpoint()
    # Full scans stay forbidden in spirit, but the workload below never
    # issues one; unlimited rows keep result handling identical per path.
    return AccessPolicy(
        max_queries=None,
        max_result_rows=base.max_result_rows,
        latency_per_query=base.latency_per_query,
        latency_per_row=base.latency_per_row,
        allow_full_scan=True,
    )


def _alignment_workload(kb, store, subjects_per_wave: int = 96) -> list:
    """Alignment-style query batch: VALUES descriptions, ASK probes, counts."""
    relations = sorted(kb.relations(), key=lambda info: -info.fact_count)[:4]
    top = relations[0].iri
    subjects = list(store.subjects(top))[:subjects_per_wave]
    queries = []
    for start in range(0, len(subjects), 8):
        chunk = subjects[start : start + 8]
        values = " ".join(term_to_ntriples(subject) for subject in chunk)
        queries.append(f"SELECT ?s ?p ?o WHERE {{ VALUES ?s {{ {values} }} ?s ?p ?o }}")
    for subject in subjects:
        nt = term_to_ntriples(subject)
        queries.append(f"ASK {{ {nt} <{top.value}> ?o }}")
    for info in relations:
        queries.append(
            f"SELECT (COUNT(*) AS ?c) WHERE {{ ?s <{info.iri.value}> ?o }}"
        )
    return queries


def run_benchmarks(spec=None) -> dict:
    world = generate_world(spec if spec is not None else yago_dbpedia_spec())
    yago = world.kb("yago")
    store = yago.store
    triples = list(store)
    results: dict = {"triples": len(triples)}

    # ------------------------------------------------------------------ #
    # Build times: single columnar load vs shard-parallel loads.
    # ------------------------------------------------------------------ #
    results["build_single_ms"] = best_of(
        lambda: TripleStore(name="bench").bulk_load(triples), REPEATS
    )
    for count in SHARD_COUNTS:
        results[f"build_shards{count}_ms"] = best_of(
            lambda count=count: ShardedTripleStore(
                num_shards=count, name="bench"
            ).bulk_load(triples, parallel=True),
            REPEATS,
        )

    # ------------------------------------------------------------------ #
    # Wave throughput: sequential single-store baseline vs sharded waves.
    # ------------------------------------------------------------------ #
    queries = _alignment_workload(yago, store)
    results["wave_queries"] = len(queries)
    policy = _policy()

    def sequential() -> float:
        endpoint = SimulatedSparqlEndpoint(
            store, policy=policy, latency_scale=LATENCY_SCALE
        )
        start = time.perf_counter()
        for query in queries:
            endpoint.query(query)
        return len(queries) / (time.perf_counter() - start)

    results["wave_seq_qps"] = round(max(sequential() for _ in range(3)), 2)

    for count in SHARD_COUNTS:
        sharded = ShardedTripleStore(num_shards=count, name="bench", triples=triples)
        endpoint = sharded_endpoint(sharded, policy=policy, latency_scale=LATENCY_SCALE)
        with WaveScheduler(endpoint, max_workers=count) as scheduler:
            best = 0.0
            for _ in range(3):
                wave = scheduler.run_wave(queries)
                assert not wave.errors
                best = max(best, wave.throughput)
        results[f"wave_shards{count}_qps"] = round(best, 2)

    for count in SHARD_COUNTS:
        baseline = results["wave_seq_qps"]
        if baseline:
            results[f"wave_shards{count}_speedup"] = round(
                results[f"wave_shards{count}_qps"] / baseline, 2
            )
    if results["build_single_ms"]:
        for count in SHARD_COUNTS:
            results[f"build_shards{count}_speedup"] = round(
                results["build_single_ms"] / results[f"build_shards{count}_ms"], 2
            )
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny run for CI smoke checks")
    parser.add_argument(
        "--check",
        default=None,
        metavar="COMMITTED_JSON",
        help="fail when *_ms regresses above, or *_qps falls below, the "
        "committed artefact by more than --max-regression",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="allowed slowdown/throughput-loss factor for --check (default 2.0)",
    )
    parser.add_argument(
        "--noise-floor",
        type=float,
        default=0.05,
        help="absolute slack in ms added to every *_ms threshold",
    )
    args = parser.parse_args()

    spec = None
    if args.smoke:
        spec = yago_dbpedia_spec(families=5, people=60, works=40, places=20, orgs=15)

    results = {
        "benchmark": "benchmarks/record_shard.py",
        "preset": (
            "smoke world" if args.smoke
            else "yago_dbpedia_spec() (paper-scale, largest preset)"
        ),
        "baseline": "PR 2 single TripleStore + sequential SimulatedSparqlEndpoint",
        "latency_scale": LATENCY_SCALE,
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
            if not isinstance(reference_value, (int, float)) or not isinstance(
                measured, (int, float)
            ):
                continue
            if key.endswith("_ms"):
                limit = reference_value * args.max_regression + args.noise_floor
                if measured > limit:
                    failures.append((key, reference_value, measured, "slower"))
            elif key.endswith("_qps"):
                limit = reference_value / args.max_regression
                if measured < limit:
                    failures.append((key, reference_value, measured, "lower"))
        if failures:
            for key, reference_value, measured, direction in failures:
                print(
                    f"REGRESSION {key}: {measured:.4f} is {direction} than "
                    f"{args.max_regression:g}x headroom on committed {reference_value:.4f}"
                )
            sys.exit(2)
        checked = sum(
            1 for key in reference if key.endswith("_ms") or key.endswith("_qps")
        )
        print(f"regression check ok ({checked} metrics, {args.max_regression:g}x headroom)")


if __name__ == "__main__":
    main()
