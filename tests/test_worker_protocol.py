"""Unit tests for the process-shard worker protocol.

Covers the :class:`~repro.shard.workers.ProcessShardExecutor` machinery
itself: result parity with the in-process thread backend, the serialized
binding batches, cancel messages (ASK/LIMIT short-circuit), pool sizing,
diagnostics pings, lifecycle validation, and the start-method matrix
(fork / spawn / forkserver, skipping methods the platform lacks).

``REPRO_WORKER_START_METHOD`` selects the start method for every test in
the worker suite (the CI matrix sets it); unset, the platform default is
used.
"""

import multiprocessing
import os
import pickle
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.errors import StoreError
from repro.rdf.namespace import Namespace
from repro.rdf.terms import IRI, BlankNode, Literal
from repro.rdf.triple import Triple
from repro.shard.sharded_store import ShardedTripleStore
from repro.shard.workers import (
    ProcessShardExecutor,
    decode_binding,
    encode_binding,
)
from repro.sparql.bindings import IdBinding, Variable
from repro.sparql.evaluate import QueryEvaluator
from repro.sparql.parser import parse_query
from repro.sparql.scatter import ShardedQueryEvaluator
from repro.store.triplestore import TripleStore

EX = Namespace("http://workers.test/")

#: Start method under test; the CI matrix job exports this.
START_METHOD = os.environ.get("REPRO_WORKER_START_METHOD") or None
if START_METHOD and START_METHOD not in multiprocessing.get_all_start_methods():
    pytest.skip(
        f"start method {START_METHOD!r} unsupported on this platform",
        allow_module_level=True,
    )

QUERY_BATTERY = [
    "SELECT ?s ?a ?b WHERE { ?s <http://workers.test/p0> ?a . "
    "?s <http://workers.test/p1> ?b }",
    "SELECT ?s ?a ?b WHERE { ?s <http://workers.test/p0> ?a . "
    "OPTIONAL { ?s <http://workers.test/p2> ?b } }",
    "SELECT ?s ?a WHERE { { ?s <http://workers.test/p0> ?a } UNION "
    "{ ?s <http://workers.test/p1> ?a } }",
    "SELECT ?s ?a WHERE { VALUES ?s { <http://workers.test/s3> "
    "<http://workers.test/s5> } ?s <http://workers.test/p0> ?a }",
    "ASK { ?s <http://workers.test/p1> <http://workers.test/o4> }",
    "ASK { ?s <http://workers.test/p1> <http://workers.test/missing> }",
    "SELECT (COUNT(*) AS ?c) WHERE { ?s <http://workers.test/p0> ?a . "
    "?s <http://workers.test/p1> ?b }",
]


def _triples(count=400):
    return [
        Triple(EX[f"s{i % 50}"], EX[f"p{i % 3}"], EX[f"o{i % 7}"])
        for i in range(count)
    ]


def _multiset(result):
    return Counter(frozenset(row.items()) for row in result)


@pytest.fixture(scope="module")
def served():
    """One 4-shard store, its snapshot and a booted executor, shared by
    the module (worker boots dominate the cost of these tests)."""
    store = ShardedTripleStore(num_shards=4, triples=_triples())
    with tempfile.TemporaryDirectory(prefix="workers-proto-") as tmp, store.serve(
        tmp, start_method=START_METHOD
    ) as executor:
        yield store, executor


class TestResultParity:
    def test_battery_matches_thread_backend(self, served):
        store, executor = served
        thread_eval = ShardedQueryEvaluator(store)
        proc_eval = ShardedQueryEvaluator(
            store, backend="process", executor=executor
        )
        for query in QUERY_BATTERY:
            expected = thread_eval.evaluate(query)
            actual = proc_eval.evaluate(query)
            if hasattr(expected, "rows"):
                assert _multiset(actual) == _multiset(expected), query
            else:
                assert bool(actual) == bool(expected), query

    def test_limit_page_has_right_size(self, served):
        store, executor = served
        proc_eval = ShardedQueryEvaluator(
            store, backend="process", executor=executor
        )
        query = (
            "SELECT ?s ?a WHERE { ?s <http://workers.test/p0> ?a } LIMIT 7"
        )
        assert len(proc_eval.evaluate(query)) == 7

    def test_run_group_streams_id_bindings(self, served):
        store, executor = served
        group = parse_query(QUERY_BATTERY[0]).where
        rows = list(executor.run_group(range(store.num_shards), group))
        locals_ = [QueryEvaluator(shard) for shard in store.shards]
        expected = [
            binding
            for local in locals_
            for binding in local._evaluate_group(group, IdBinding.EMPTY)
        ]
        assert Counter(map(hash, rows)) == Counter(map(hash, expected))
        assert all(
            type(value) is int for row in rows for _, value in row.items()
        )


class TestBindingSerialisation:
    def test_round_trip_ids_and_terms(self):
        binding = IdBinding(
            {Variable("a"): 7, Variable("b"): EX.unknown, Variable("c"): 0}
        )
        memo = {}
        decoded = decode_binding(encode_binding(binding), memo)
        assert decoded == binding
        # Variable instances are shared through the memo.
        assert decoded.get(memo["a"]) == 7

    def test_terms_and_variables_pickle(self):
        for value in (
            IRI("http://workers.test/x"),
            Literal("v"),
            Literal("v", language="en"),
            Literal(7),
            Literal("d", datatype="http://workers.test/dt"),
            BlankNode("b1"),
            Variable("x"),
        ):
            assert pickle.loads(pickle.dumps(value)) == value

    def test_parsed_query_pickles(self):
        query = parse_query(QUERY_BATTERY[1])
        assert pickle.loads(pickle.dumps(query)) == query


class TestCancellation:
    def test_limit_cancels_inflight_shard_scans(self, tmp_path):
        store = ShardedTripleStore(num_shards=2, triples=_triples(1000))
        with store.serve(
            tmp_path / "snap", start_method=START_METHOD, batch_rows=1
        ) as executor:
            proc_eval = ShardedQueryEvaluator(
                store, backend="process", executor=executor
            )
            query = (
                "SELECT ?s ?a WHERE { ?s <http://workers.test/p0> ?a } LIMIT 2"
            )
            assert len(proc_eval.evaluate(query)) == 2
            # The cancel left the workers alive and serviceable.
            ask = proc_eval.evaluate(
                "ASK { ?s <http://workers.test/p0> ?o }"
            )
            assert bool(ask) is True
            assert all(pid is not None for pid in executor.worker_pids())

    def test_stall_tasks_are_cancellable(self, served):
        # A cancelled task's terminal message is deliberately dropped
        # (the parent forgot the task), so prove the cancel through its
        # effect: the 30s stall aborts and the worker serves the next
        # task almost immediately.
        _, executor = served
        stream = executor.stall(0, seconds=30.0)
        time.sleep(0.05)
        executor._cancel(stream)
        start = time.monotonic()
        assert executor.ping(0, timeout=10.0)["pid"] is not None
        assert time.monotonic() - start < 5.0


class TestPoolAndDiagnostics:
    def test_pool_smaller_than_shards(self, tmp_path):
        store = ShardedTripleStore(num_shards=4, triples=_triples())
        with store.serve(
            tmp_path / "snap", start_method=START_METHOD, pool_size=2
        ) as executor:
            assert executor.num_workers == 2
            assert executor.num_shards == 4
            assert [executor.worker_for_shard(i) for i in range(4)] == [
                0, 1, 0, 1,
            ]
            infos = executor.ping_all()
            assert sorted(sum((d["shards"] for d in infos), [])) == [0, 1, 2, 3]
            thread_eval = ShardedQueryEvaluator(store)
            proc_eval = ShardedQueryEvaluator(
                store, backend="process", executor=executor
            )
            for query in QUERY_BATTERY[:3]:
                assert _multiset(proc_eval.evaluate(query)) == _multiset(
                    thread_eval.evaluate(query)
                ), query

    def test_ping_reports_worker_state(self, served):
        store, executor = served
        info = executor.ping(2)
        assert info["pid"] in executor.worker_pids()
        assert info["worker"] == executor.worker_for_shard(2)
        assert 2 in info["shards"]
        assert info["triples"][2] == len(store.shards[2])
        assert info["interned"] == 0
        assert all(info["frozen"].values())

    def test_worker_pids_one_process_per_worker(self, served):
        _, executor = served
        pids = executor.worker_pids()
        assert len(pids) == executor.num_workers
        assert len(set(pids)) == len(pids)
        assert os.getpid() not in pids


class TestLifecycle:
    def test_dispatch_after_close_raises(self, tmp_path):
        store = ShardedTripleStore(num_shards=2, triples=_triples(100))
        executor = store.serve(tmp_path / "snap", start_method=START_METHOD)
        executor.close()
        executor.close()  # idempotent
        with pytest.raises(StoreError):
            executor.ping(0)

    def test_serve_reuses_clean_snapshot(self, tmp_path):
        store = ShardedTripleStore(num_shards=2, triples=_triples(100))
        directory = tmp_path / "snap"
        with store.serve(directory, start_method=START_METHOD):
            pass
        manifest = directory / "manifest.json"
        stamp = manifest.stat().st_mtime_ns
        with store.serve(directory, start_method=START_METHOD):
            pass
        assert manifest.stat().st_mtime_ns == stamp  # not rewritten
        store.add(Triple(EX.fresh, EX.p0, EX.o0))
        with store.serve(directory, start_method=START_METHOD):
            pass
        assert manifest.stat().st_mtime_ns > stamp  # dirty -> resnapshotted

    def test_mutation_after_serve_is_rejected(self, tmp_path):
        store = ShardedTripleStore(num_shards=2, triples=_triples(100))
        with store.serve(tmp_path / "snap", start_method=START_METHOD) as executor:
            proc_eval = ShardedQueryEvaluator(
                store, backend="process", executor=executor
            )
            store.add(Triple(EX.mutant, EX.p0, EX.o0))
            with pytest.raises(StoreError, match="mutated"):
                proc_eval.evaluate(QUERY_BATTERY[0])

    def test_mutation_rejected_on_fallback_and_empty_routes_too(self, tmp_path):
        # The staleness guard must fire before routing: neither a
        # non-co-partitioned fallback group (which would run in-process
        # against the mutated view) nor a query whose routing prunes
        # every shard may slip through.
        store = ShardedTripleStore(num_shards=2, triples=_triples(100))
        with store.serve(tmp_path / "snap", start_method=START_METHOD) as executor:
            proc_eval = ShardedQueryEvaluator(
                store, backend="process", executor=executor
            )
            removed = next(iter(store))
            assert store.remove(removed)
            chain = (
                "SELECT ?s ?o ?x WHERE { ?s <http://workers.test/p0> ?o . "
                "?o <http://workers.test/p1> ?x }"
            )
            with pytest.raises(StoreError, match="mutated"):
                proc_eval.evaluate(chain)
            with pytest.raises(StoreError, match="mutated"):
                proc_eval.evaluate(
                    "SELECT ?a WHERE { ?s <http://workers.test/nowhere> ?a }"
                )

    def test_mutation_before_evaluator_construction_is_rejected(self, tmp_path):
        # The guard must not depend on construction order: mutating
        # between serve() and building the evaluator is just as stale.
        store = ShardedTripleStore(num_shards=2, triples=_triples(100))
        with store.serve(tmp_path / "snap", start_method=START_METHOD) as executor:
            store.add(Triple(EX.mutant, EX.p0, EX.o0))
            with pytest.raises(StoreError, match="mutated"):
                ShardedQueryEvaluator(
                    store, backend="process", executor=executor
                )

    def test_foreign_snapshot_executor_is_rejected(self, tmp_path):
        # An executor over some *other* dataset's snapshot (same shard
        # count) must not pass validation — IDs would decode wrongly.
        store = ShardedTripleStore(num_shards=2, triples=_triples(100))
        other = ShardedTripleStore(num_shards=2, triples=_triples(80))
        with other.serve(tmp_path / "other", start_method=START_METHOD) as executor:
            with pytest.raises(ValueError, match="never"):
                ShardedQueryEvaluator(
                    store, backend="process", executor=executor
                )

    def test_evaluator_construction_validation(self, served):
        store, executor = served
        with pytest.raises(ValueError, match="backend"):
            ShardedQueryEvaluator(store, backend="fibers")
        with pytest.raises(ValueError, match="requires"):
            ShardedQueryEvaluator(store, backend="process")
        other = ShardedTripleStore(num_shards=2, triples=_triples(50))
        with pytest.raises(ValueError, match="shards"):
            ShardedQueryEvaluator(other, backend="process", executor=executor)

    def test_pool_size_validation(self, tmp_path):
        store = ShardedTripleStore(num_shards=2, triples=_triples(50))
        store.save(tmp_path / "snap")
        with pytest.raises(StoreError):
            ProcessShardExecutor(tmp_path / "snap", pool_size=0)

    def test_endpoint_owns_and_removes_auto_snapshot_dir(self):
        from repro.endpoint.policy import AccessPolicy
        from repro.endpoint.simulation import sharded_endpoint

        store = ShardedTripleStore(num_shards=2, triples=_triples(100))
        policy = AccessPolicy(max_result_rows=None, allow_full_scan=True)
        with sharded_endpoint(
            store, policy=policy, backend="process", start_method=START_METHOD
        ) as endpoint:
            owned = Path(endpoint.executor.directory)
            assert owned.exists()
            endpoint.query(QUERY_BATTERY[0])
        assert not owned.exists()  # auto-created dir cleaned with the pool

    def test_endpoint_preserves_explicit_snapshot_dir(self, tmp_path):
        from repro.endpoint.policy import AccessPolicy
        from repro.endpoint.simulation import sharded_endpoint

        store = ShardedTripleStore(num_shards=2, triples=_triples(100))
        policy = AccessPolicy(max_result_rows=None, allow_full_scan=True)
        directory = tmp_path / "snap"
        with sharded_endpoint(
            store,
            policy=policy,
            backend="process",
            snapshot_dir=directory,
            start_method=START_METHOD,
        ):
            pass
        assert (directory / "manifest.json").exists()  # caller's to keep

    def test_endpoint_rejects_factory_with_process_backend(self):
        from repro.endpoint.simulation import SimulatedSparqlEndpoint
        from repro.errors import EndpointError

        store = ShardedTripleStore(num_shards=2, triples=_triples(50))
        with pytest.raises(EndpointError, match="evaluator_factory"):
            SimulatedSparqlEndpoint(
                store,
                backend="process",
                evaluator_factory=ShardedQueryEvaluator,
            )


class TestStartMethodMatrix:
    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_eval_under_every_start_method(self, tmp_path, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} unsupported here")
        store = ShardedTripleStore(num_shards=2, triples=_triples(120))
        with store.serve(tmp_path / "snap", start_method=method) as executor:
            proc_eval = ShardedQueryEvaluator(
                store, backend="process", executor=executor
            )
            expected = _multiset(
                ShardedQueryEvaluator(store).evaluate(QUERY_BATTERY[0])
            )
            assert _multiset(proc_eval.evaluate(QUERY_BATTERY[0])) == expected
            assert executor.ping(0)["interned"] == 0
