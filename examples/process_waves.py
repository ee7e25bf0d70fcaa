"""Quickstart: process-parallel shard workers serving query waves.

Demonstrates the PR 5 deployment shape end to end:

1. build a sharded store (8 subject-range shards, shared dictionary);
2. ``serve()`` — snapshot the store to a directory (skipped when an
   up-to-date snapshot is already there) and boot one worker process
   per shard, each mmap-opening its shard's columns plus the shared
   dictionary: nothing is pickled, nothing re-interned;
3. run thread-pool query waves against a process-backed simulated
   endpoint and compare against the in-process thread backend;
4. peek at the worker diagnostics the fault-injection tests rely on.

The worker protocol is snapshot-first by design: workers only ever see
the on-disk columns, so the store must be snapshotted (``serve()`` does
it on demand) and must not be mutated while being served — the evaluator
rejects a stale executor instead of answering from two versions.

Run with::

    PYTHONPATH=src python examples/process_waves.py
"""

import tempfile
from pathlib import Path

from repro.endpoint.policy import AccessPolicy
from repro.endpoint.simulation import WaveScheduler, sharded_endpoint
from repro.rdf.namespace import Namespace
from repro.rdf.triple import Triple

from repro.shard.sharded_store import ShardedTripleStore

EX = Namespace("http://example.org/proc/")


def build_store() -> ShardedTripleStore:
    triples = [
        Triple(EX[f"person{i}"], EX[p], EX[f"{p}_{i % 23}"])
        for i in range(4000)
        for p in ("worksAt", "bornIn", "knows")
    ]
    return ShardedTripleStore(num_shards=8, name="people", triples=triples)


def main() -> None:
    store = build_store()
    snapshot_dir = Path(tempfile.mkdtemp(prefix="process-waves-")) / "snap"

    # An alignment-style co-partitioned wave: every pattern shares the
    # subject variable, so each query scatters cleanly over the shards.
    wave = [
        "SELECT ?s ?a ?b WHERE { ?s <http://example.org/proc/worksAt> ?a . "
        "?s <http://example.org/proc/bornIn> ?b }",
        "SELECT ?s ?o WHERE { ?s <http://example.org/proc/knows> ?o . "
        "?s ?p ?x }",
        "ASK { ?s <http://example.org/proc/worksAt> "
        "<http://example.org/proc/worksAt_3> }",
    ] * 8
    policy = AccessPolicy(max_result_rows=None, allow_full_scan=True)

    # Thread backend: in-process scatter, waves overlap on the GIL.
    with WaveScheduler(
        sharded_endpoint(store, policy=policy), max_workers=8
    ) as scheduler:
        thread_wave = scheduler.run_wave(wave)
    print(
        f"thread backend : {thread_wave.succeeded} queries, "
        f"{thread_wave.throughput:.0f} q/s"
    )

    # Process backend: serve() snapshots (store is dirty the first time)
    # and boots one worker per shard; the endpoint owns the pool.
    with sharded_endpoint(
        store, policy=policy, backend="process", snapshot_dir=snapshot_dir
    ) as endpoint:
        with WaveScheduler(endpoint, max_workers=8) as scheduler:
            process_wave = scheduler.run_wave(wave)
        print(
            f"process backend: {process_wave.succeeded} queries, "
            f"{process_wave.throughput:.0f} q/s "
            "(scales with cores; see BENCH_proc.json)"
        )

        # Worker diagnostics: one process per shard, nothing interned,
        # every shard index still frozen — queries crossed the process
        # boundary as serialized ID-binding batches, not as objects.
        for info in endpoint.executor.ping_all():
            print(
                f"  worker {info['worker']} pid={info['pid']} "
                f"shards={info['shards']} "
                f"interned={info['interned']} "
                f"tasks={info['tasks_served']}"
            )

    # The snapshot is reusable: a second serve() boots instantly without
    # rewriting (the store tracks its last-saved mutation stamp).
    with store.serve(snapshot_dir) as executor:
        print(f"re-served {executor.num_shards} shards from {snapshot_dir}")


if __name__ == "__main__":
    main()
