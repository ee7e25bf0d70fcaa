"""Fault injection for the process-shard worker pool.

SIGKILLs land on workers at deterministic moments (a ``stall`` task pins
the victim in-task) and the tests assert the three contracted outcomes:

* the wave surfaces a captured per-query
  :class:`~repro.errors.WorkerCrashError` instead of aborting;
* the endpoint's budget accounting refunds exactly the failed queries
  (PR 4 refund semantics: only queries that produced a result spend a
  slot, and only those reach the query log);
* the pool respawns the dead worker, so the next wave runs clean.

Also covered: a worker that dies *while boot-opening a corrupt snapshot*
reports the underlying corruption through the crash error, and a worker
killed while idle is respawned transparently (no query ever fails).
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.endpoint.policy import AccessPolicy
from repro.endpoint.simulation import WaveScheduler, sharded_endpoint
from repro.errors import WorkerCrashError
from repro.rdf.namespace import Namespace
from repro.rdf.triple import Triple
from repro.shard.sharded_store import ShardedTripleStore
from repro.shard.workers import ProcessShardExecutor
from repro.sparql.parser import parse_query
from repro.sparql.scatter import ShardedQueryEvaluator

EX = Namespace("http://faults.test/")

START_METHOD = os.environ.get("REPRO_WORKER_START_METHOD") or None
if START_METHOD and START_METHOD not in multiprocessing.get_all_start_methods():
    pytest.skip(
        f"start method {START_METHOD!r} unsupported on this platform",
        allow_module_level=True,
    )

#: Co-partitioned star join: scatters over every shard, so any dead
#: worker makes the query fail.
SCATTER_QUERY = (
    "SELECT ?s ?a ?b WHERE { ?s <http://faults.test/p0> ?a . "
    "?s <http://faults.test/p1> ?b }"
)


def _triples(count=400):
    return [
        Triple(EX[f"s{i % 40}"], EX[f"p{i % 3}"], EX[f"o{i % 5}"])
        for i in range(count)
    ]


def _store(num_shards=2):
    return ShardedTripleStore(num_shards=num_shards, triples=_triples())


def _stall_worker(executor, shard_index=0):
    """Pin a worker in a long stall task.  Returns its pid.

    Work dispatched afterwards queues deterministically *behind* the
    stall, so a SIGKILL delivered later is guaranteed to land while that
    work is in flight on the dead worker — without the stall, the
    executor's crash detection can win the race and transparently
    respawn before anything was dispatched, and no query would fail.
    """
    pid = executor.worker_pids()[executor.worker_for_shard(shard_index)]
    executor.stall(shard_index, seconds=60.0)
    return pid


def _kill_stalled_worker(executor, shard_index=0):
    """Pin a worker in a stall task, then SIGKILL it.  Returns its pid."""
    pid = _stall_worker(executor, shard_index)
    os.kill(pid, signal.SIGKILL)
    return pid


def _balanced(stats):
    return stats["dispatched"] == (
        stats["completed"] + stats["cancelled"] + stats["failed"] + stats["crashed"]
    )


def _await_respawn(executor, slot, old_pid, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        pids = executor.worker_pids()
        if pids[slot] is not None and pids[slot] != old_pid:
            return pids[slot]
        time.sleep(0.05)
    raise AssertionError(f"worker {slot} did not respawn within {timeout}s")


class TestExecutorCrash:
    def test_kill_mid_task_raises_worker_crash(self, tmp_path):
        store = _store()
        with store.serve(tmp_path / "snap", start_method=START_METHOD) as executor:
            pid = _stall_worker(executor, shard_index=0)
            group = parse_query(SCATTER_QUERY).where
            # Dispatch happens eagerly inside run_group: the shard-0 task
            # is now queued behind the stall on the doomed worker.
            stream = executor.run_group(range(store.num_shards), group)
            os.kill(pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashError, match="died"):
                list(stream)

    def test_kill_mid_stream_raises_after_partial_rows(self, tmp_path):
        # batch_rows=1 streams row by row; killing the worker after the
        # first row arrives must fail the rest of the stream, not hang.
        # The per-subject o x o cross product (10 x 50 x 50 = 25k rows)
        # keeps the worker busy streaming long past the kill.
        wide = [
            Triple(EX[f"w{s}"], EX[p], EX[f"{p}v{v}"])
            for s in range(10)
            for p in ("p0", "p1")
            for v in range(50)
        ]
        store = ShardedTripleStore(num_shards=1, triples=wide)
        with store.serve(
            tmp_path / "snap", start_method=START_METHOD, batch_rows=1
        ) as executor:
            group = parse_query(SCATTER_QUERY).where
            stream = executor.run_group([0], group)
            first = next(stream)
            assert first is not None
            os.kill(executor.worker_pids()[0], signal.SIGKILL)
            with pytest.raises(WorkerCrashError):
                for _ in stream:
                    pass

    def test_pool_respawns_after_kill(self, tmp_path):
        store = _store()
        with store.serve(tmp_path / "snap", start_method=START_METHOD) as executor:
            old_pid = _kill_stalled_worker(executor, shard_index=0)
            new_pid = _await_respawn(executor, 0, old_pid)
            assert new_pid != old_pid
            proc_eval = ShardedQueryEvaluator(
                store, backend="process", executor=executor
            )
            assert len(proc_eval.evaluate(SCATTER_QUERY)) > 0

    def test_idle_kill_is_invisible_to_queries(self, tmp_path):
        store = _store()
        with store.serve(tmp_path / "snap", start_method=START_METHOD) as executor:
            old_pid = executor.worker_pids()[0]
            os.kill(old_pid, signal.SIGKILL)
            _await_respawn(executor, 0, old_pid)
            proc_eval = ShardedQueryEvaluator(
                store, backend="process", executor=executor
            )
            result = proc_eval.evaluate(SCATTER_QUERY)
            assert len(result) > 0

    def test_boot_failure_reports_snapshot_corruption(self, tmp_path):
        store = _store()
        directory = tmp_path / "snap"
        store.save(directory)
        # Flip payload bytes in shard 0's columns file: the worker dies
        # in open_shard_stores and its fatal report must surface through
        # the crash error.
        shard_file = next(directory.glob("shard0-*.snap"))
        blob = bytearray(shard_file.read_bytes())
        blob[-20:] = b"\xff" * 20
        shard_file.write_bytes(bytes(blob))
        with ProcessShardExecutor(
            directory, start_method=START_METHOD
        ) as executor:
            with pytest.raises(WorkerCrashError, match="SnapshotCorruptError"):
                executor.ping(0)
            # A deterministic boot failure must not respawn-loop forever:
            # after a few consecutive fatal boots the slot is abandoned
            # and dispatch fails fast with the recorded reason.
            deadline = time.monotonic() + 15.0
            while True:
                with pytest.raises(WorkerCrashError) as info:
                    executor.ping(0)
                if "gave up respawning" in str(info.value):
                    assert "SnapshotCorruptError" in str(info.value)
                    break
                assert time.monotonic() < deadline, "slot never abandoned"
                time.sleep(0.05)
            # The healthy worker (shard 1 lives in a separate file) is
            # untouched by shard 0's abandonment.
            assert executor.ping(1)["interned"] == 0


class TestProtocolAccounting:
    """The stats ledger stays exact through cancels and crashes."""

    def _assert_balanced(self, stats):
        assert stats["dispatched"] == (
            stats["completed"]
            + stats["cancelled"]
            + stats["failed"]
            + stats["crashed"]
        ), stats
        assert stats["buffered_batches"] == 0, stats

    def test_ledger_balances_after_crashed_wave(self, tmp_path):
        store = _store()
        with store.serve(tmp_path / "snap", start_method=START_METHOD) as executor:
            pid = _stall_worker(executor, shard_index=0)
            group = parse_query(SCATTER_QUERY).where
            stream = executor.run_group(range(store.num_shards), group)
            os.kill(pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashError):
                list(stream)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                stats = executor.protocol_stats()
                if stats["crashed"] >= 1 and stats["dispatched"] == (
                    stats["completed"]
                    + stats["cancelled"]
                    + stats["failed"]
                    + stats["crashed"]
                ):
                    break
                time.sleep(0.05)
            assert stats["crashed"] >= 1
            self._assert_balanced(stats)

    def test_ledger_balances_after_cancelled_wave(self, tmp_path):
        # A LIMIT-satisfied scatter cancels its trailing tasks; the
        # buffered-batch refund happens at cancel-enqueue time (the
        # stalled worker provably has not drained its control queue yet).
        store = _store()
        with store.serve(
            tmp_path / "snap", start_method=START_METHOD, batch_rows=1
        ) as executor:
            executor.stall(0, seconds=0.4)
            evaluator = ShardedQueryEvaluator(
                store, backend="process", executor=executor
            )
            page = evaluator.evaluate(f"{SCATTER_QUERY} LIMIT 2")
            assert len(page) == 2
            stats = executor.protocol_stats()
            assert stats["cancelled"] >= 1
            self._assert_balanced(stats)


class TestWaveFaults:
    def test_sigkill_mid_wave_refunds_budget_exactly_and_respawns(self, tmp_path):
        """The headline contract, end to end.

        A worker is killed mid-wave; the wave reports per-query
        WorkerCrashErrors, the budget is charged only for the queries
        that produced results, the log records exactly those, and the
        next wave (after respawn) is clean.
        """
        store = _store(num_shards=2)
        policy = AccessPolicy(
            max_queries=12, max_result_rows=None, allow_full_scan=True
        )
        with sharded_endpoint(
            store,
            policy=policy,
            backend="process",
            snapshot_dir=tmp_path / "snap",
            start_method=START_METHOD,
        ) as endpoint:
            executor = endpoint.executor
            with WaveScheduler(endpoint, max_workers=4) as scheduler:
                clean = scheduler.run_wave([SCATTER_QUERY] * 4)
                assert clean.failed == 0
                assert endpoint.queries_remaining == 8
                assert endpoint.log.query_count == 4

                old_pid = _stall_worker(executor, shard_index=0)
                # Kill once the wave's tasks sit queued behind the stall:
                # every query then fails deterministically.
                killer = threading.Timer(
                    0.3, os.kill, (old_pid, signal.SIGKILL)
                )
                killer.start()
                wave = scheduler.run_wave([SCATTER_QUERY] * 4)
                killer.join()
                assert wave.failed > 0
                assert len(wave.results) == 4
                for index, error in wave.errors:
                    assert isinstance(error, WorkerCrashError)
                    assert wave.results[index] is None
                # Exact refund: only successful queries spent budget and
                # reached the log.
                assert (
                    endpoint.queries_remaining == 8 - wave.succeeded
                )
                assert endpoint.log.query_count == 4 + wave.succeeded

                _await_respawn(executor, 0, old_pid)
                after = scheduler.run_wave([SCATTER_QUERY] * 3)
                assert after.failed == 0
                assert (
                    endpoint.queries_remaining
                    == 8 - wave.succeeded - 3
                )

    def test_sigkill_mid_page_refunds_budget_and_balances_ledger(self, tmp_path):
        # A LIMIT/OFFSET page over one pattern takes the page step: one
        # ``page`` task per overlapping shard instead of a row stream.
        store = _store(num_shards=2)
        policy = AccessPolicy(
            max_queries=5, max_result_rows=None, allow_full_scan=True
        )
        page_query = (
            "SELECT ?s ?o WHERE { ?s <http://faults.test/p0> ?o } LIMIT 60"
        )
        with sharded_endpoint(
            store,
            policy=policy,
            backend="process",
            snapshot_dir=tmp_path / "snap",
            start_method=START_METHOD,
        ) as endpoint:
            executor = endpoint.executor
            expected = endpoint.query(page_query)
            assert endpoint.log.by_mode() == {"scatter": 1}
            before = executor.protocol_stats()
            assert before["rows"] == len(expected) and before["acks"] == 0

            old_pid = _stall_worker(executor, shard_index=0)
            killer = threading.Timer(0.3, os.kill, (old_pid, signal.SIGKILL))
            killer.start()
            with pytest.raises(WorkerCrashError):
                endpoint.query(page_query)
            killer.join()
            # Exact refund: the crashed page spent no slot and left no log.
            assert endpoint.queries_remaining == 4
            assert endpoint.log.query_count == 1

            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                stats = executor.protocol_stats()
                if stats["crashed"] >= 1 and stats["dispatched"] == (
                    stats["completed"]
                    + stats["cancelled"]
                    + stats["failed"]
                    + stats["crashed"]
                ):
                    break
                time.sleep(0.05)
            assert stats["crashed"] >= 1
            assert stats["dispatched"] == (
                stats["completed"]
                + stats["cancelled"]
                + stats["failed"]
                + stats["crashed"]
            ), stats
            assert stats["buffered_batches"] == 0

            _await_respawn(executor, 0, old_pid)
            assert endpoint.query(page_query).rows == expected.rows
            assert endpoint.queries_remaining == 3

    def test_sigkill_mid_seeded_ship_refunds_budget_and_balances_ledger(
        self, tmp_path
    ):
        # A chain from o1 broadcasts its two links and seeds the anchor
        # ``?m p0 ?x`` with them, dispatching only the keys' owner shard.
        triples = _triples() + [
            Triple(EX.o1, EX.link, EX.s0),
            Triple(EX.o1, EX.link, EX.s1),
        ]
        store = ShardedTripleStore(num_shards=2, triples=triples)
        owner = store.shard_index_for_subject(store.term_id(EX.s0))
        assert store.shard_index_for_subject(store.term_id(EX.s1)) == owner
        policy = AccessPolicy(
            max_queries=5, max_result_rows=None, allow_full_scan=True
        )
        chain_query = (
            "SELECT ?m ?x WHERE { <http://faults.test/o1> "
            "<http://faults.test/link> ?m . ?m <http://faults.test/p0> ?x }"
        )
        plan = ShardedQueryEvaluator(store).explain(chain_query)
        assert plan.mode == "ship" and plan.shards == (owner,)
        assert plan.anchors == ((owner, 2),)
        with sharded_endpoint(
            store,
            policy=policy,
            backend="process",
            snapshot_dir=tmp_path / "snap",
            start_method=START_METHOD,
        ) as endpoint:
            executor = endpoint.executor
            expected = endpoint.query(chain_query)
            assert len(expected) > 0
            assert endpoint.log.by_mode() == {"ship": 1}
            assert executor.protocol_stats()["dispatched"] == 1

            old_pid = _stall_worker(executor, shard_index=owner)
            killer = threading.Timer(0.3, os.kill, (old_pid, signal.SIGKILL))
            killer.start()
            with pytest.raises(WorkerCrashError):
                endpoint.query(chain_query)
            killer.join()
            # Exact refund: the crashed chain spent no slot and left no log.
            assert endpoint.queries_remaining == 4
            assert endpoint.log.query_count == 1

            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                stats = executor.protocol_stats()
                if stats["crashed"] >= 1 and _balanced(stats):
                    break
                time.sleep(0.05)
            assert stats["crashed"] >= 1
            assert _balanced(stats), stats
            assert stats["buffered_batches"] == 0

            slot = executor.worker_for_shard(owner)
            _await_respawn(executor, slot, old_pid)
            assert endpoint.query(chain_query).rows == expected.rows
            assert endpoint.queries_remaining == 3

    def test_trace_survives_worker_sigkill(self, tmp_path):
        """A profiled query crashed by SIGKILL still yields a full trace.

        The crashed shard appears as an error-status ``worker:exec`` span
        synthesized by the executor (the real worker died before it could
        ship its measured span), the merge stream span carries the crash,
        and the protocol ledger — mirrored into the executor's metrics
        gauges by ``protocol_stats()`` — balances afterwards.
        """
        store = _store(num_shards=2)
        with sharded_endpoint(
            store,
            backend="process",
            snapshot_dir=tmp_path / "snap",
            start_method=START_METHOD,
        ) as endpoint:
            executor = endpoint.executor
            old_pid = _stall_worker(executor, shard_index=0)
            killer = threading.Timer(0.3, os.kill, (old_pid, signal.SIGKILL))
            killer.start()
            profile = endpoint.profile(SCATTER_QUERY)
            killer.join()

            assert profile.result is None
            assert isinstance(profile.error, WorkerCrashError)
            trace = profile.trace
            assert trace.status == "error"
            assert "WorkerCrashError" in trace.error
            merge = trace.find("parent:merge/decode")
            assert merge is not None and merge.status == "error"
            crashed = [
                span
                for span in trace.find_all("worker:exec")
                if span.attributes.get("crashed")
            ]
            assert len(crashed) == 1
            assert crashed[0].status == "error"
            assert crashed[0].process == "worker"
            assert crashed[0].attributes["shard"] == 0

            # After respawn a profiled query produces measured worker
            # spans again — one per shard, each with its queue wait.
            _await_respawn(executor, 0, old_pid)
            clean = endpoint.profile(SCATTER_QUERY)
            assert clean.error is None
            workers = clean.trace.find_all("worker:exec")
            assert len(workers) == store.num_shards
            assert all(s.status == "ok" for s in workers)
            assert all("queue_wait_ms" in s.attributes for s in workers)

            # Ledger balances at quiescence and its mirror gauges agree.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                stats = executor.protocol_stats()
                if stats["crashed"] >= 1 and stats["dispatched"] == (
                    stats["completed"]
                    + stats["cancelled"]
                    + stats["failed"]
                    + stats["crashed"]
                ):
                    break
                time.sleep(0.05)
            assert stats["crashed"] >= 1
            for key, value in stats.items():
                assert executor.metrics.value("worker.protocol." + key) == value

    def test_refunded_slots_remain_spendable(self, tmp_path):
        # After crash-induced refunds, the quota still admits exactly
        # the refunded number of queries — no slot leaks either way.
        store = _store(num_shards=2)
        policy = AccessPolicy(
            max_queries=4, max_result_rows=None, allow_full_scan=True
        )
        with sharded_endpoint(
            store,
            policy=policy,
            backend="process",
            snapshot_dir=tmp_path / "snap",
            start_method=START_METHOD,
        ) as endpoint:
            executor = endpoint.executor
            with WaveScheduler(endpoint, max_workers=2) as scheduler:
                old_pid = _stall_worker(executor, shard_index=0)
                killer = threading.Timer(
                    0.3, os.kill, (old_pid, signal.SIGKILL)
                )
                killer.start()
                wave = scheduler.run_wave([SCATTER_QUERY] * 4)
                killer.join()
                refunded = wave.failed
                assert refunded > 0
                assert endpoint.queries_remaining == refunded
                _await_respawn(executor, 0, old_pid)
                final = scheduler.run_wave([SCATTER_QUERY] * (refunded + 2))
                assert final.succeeded == refunded
                assert final.failed == 2  # quota, not crashes
                assert endpoint.queries_remaining == 0
