"""Protocol-level tests for the distributed pushdown engine.

Asserts the wire-level contracts of PR 7 against the executor's
``protocol_stats()`` ledger:

* pushed-down aggregates transfer O(shards) fold partials — zero row
  batches reach the parent;
* credit-based flow control bounds parent-side buffering per in-flight
  task at ``result_window`` batches, however fast the worker produces;
* a cancelled (LIMIT-satisfied / abandoned) task refunds its buffered
  batches at cancel-enqueue time and frees the worker's credits so the
  next task on that worker starts promptly;
* a LIMIT/OFFSET page over one pattern dispatches only the shards that
  overlap it and ships exactly its rows, one ``page`` message per shard;
* a shipped chain whose broadcast keys pin the partition variable
  dispatches only the shards owning those keys, and an empty broadcast
  dispatches none;
* the task ledger balances exactly at quiescence:
  ``dispatched == completed + cancelled + failed + crashed``.

Runs under every worker start method (``REPRO_WORKER_START_METHOD``).
"""

import multiprocessing
import os
import time
from collections import Counter

import pytest

from repro.errors import ConfigError, StoreError
from repro.rdf.namespace import Namespace
from repro.rdf.triple import Triple
from repro.shard.sharded_store import ShardedTripleStore
from repro.shard.workers import DEFAULT_RESULT_WINDOW, ProcessShardExecutor
from repro.sparql.evaluate import QueryEvaluator
from repro.sparql.parser import parse_query
from repro.sparql.scatter import ShardedQueryEvaluator
from repro.store.triplestore import TripleStore

EX = Namespace("http://pushdown.test/")

START_METHOD = os.environ.get("REPRO_WORKER_START_METHOD") or None
if START_METHOD and START_METHOD not in multiprocessing.get_all_start_methods():
    pytest.skip(
        f"start method {START_METHOD!r} unsupported on this platform",
        allow_module_level=True,
    )


def _star_triples():
    triples = []
    for i in range(48):
        triples.append(Triple(EX[f"s{i}"], EX.p0, EX[f"a{i % 7}"]))
        triples.append(Triple(EX[f"s{i}"], EX.p1, EX[f"b{i % 5}"]))
    for i in range(7):
        triples.append(Triple(EX[f"a{i}"], EX.link, EX[f"z{i % 3}"]))
    return triples


def _wide_triples(subjects=4, values=25):
    """A per-subject cross product: subjects * values^2 join rows."""
    return [
        Triple(EX[f"w{s}"], EX[p], EX[f"{p}v{v}"])
        for s in range(subjects)
        for p in ("p0", "p1")
        for v in range(values)
    ]


STAR_QUERY = (
    "SELECT ?s ?a ?b WHERE { ?s <http://pushdown.test/p0> ?a . "
    "?s <http://pushdown.test/p1> ?b }"
)
COUNT_QUERY = (
    "SELECT (COUNT(*) AS ?c) (COUNT(DISTINCT ?s) AS ?d) "
    "(COUNT(DISTINCT ?a) AS ?e) WHERE { ?s <http://pushdown.test/p0> ?a . "
    "?s <http://pushdown.test/p1> ?b }"
)
GROUPED_QUERY = (
    "SELECT ?a (COUNT(?s) AS ?c) WHERE { ?s <http://pushdown.test/p0> ?a . "
    "?s <http://pushdown.test/p1> ?b } GROUP BY ?a"
)
CHAIN_COUNT_QUERY = (
    "SELECT (COUNT(*) AS ?c) (COUNT(DISTINCT ?z) AS ?d) WHERE "
    "{ ?s <http://pushdown.test/p0> ?a . "
    "?a <http://pushdown.test/link> ?z }"
)


def _multiset(result):
    return Counter(frozenset(row.items()) for row in result)


def _balanced(stats):
    return stats["dispatched"] == (
        stats["completed"] + stats["cancelled"] + stats["failed"] + stats["crashed"]
    )


class TestAggregatePushdown:
    def test_count_wave_transfers_only_partials(self, tmp_path):
        """The headline O(shards) contract: no row batch reaches the parent."""
        triples = _star_triples()
        store = ShardedTripleStore(num_shards=4, triples=triples)
        reference = QueryEvaluator(TripleStore(triples=triples))
        with store.serve(tmp_path / "snap", start_method=START_METHOD) as executor:
            evaluator = ShardedQueryEvaluator(
                store, backend="process", executor=executor
            )
            for query in (COUNT_QUERY, GROUPED_QUERY, CHAIN_COUNT_QUERY):
                before = executor.protocol_stats()
                got = evaluator.evaluate(query)
                after = executor.protocol_stats()
                assert _multiset(got) == _multiset(reference.evaluate(query)), query
                dispatched = after["dispatched"] - before["dispatched"]
                partials = after["agg_partials"] - before["agg_partials"]
                assert dispatched >= 1, query
                # One partial per routed shard task, zero row batches.
                assert partials == dispatched, query
                assert after["row_batches"] == before["row_batches"], query
                assert after["rows"] == before["rows"], query
            assert _balanced(executor.protocol_stats())

    def test_fast_count_still_answers_without_dispatch(self, tmp_path):
        # The single-pattern index-count intercept must stay in front of
        # the fold machinery: no worker task at all.
        store = ShardedTripleStore(num_shards=2, triples=_star_triples())
        with store.serve(tmp_path / "snap", start_method=START_METHOD) as executor:
            evaluator = ShardedQueryEvaluator(
                store, backend="process", executor=executor
            )
            result = evaluator.evaluate(
                "SELECT (COUNT(*) AS ?c) WHERE { ?s <http://pushdown.test/p0> ?a }"
            )
            assert len(result) == 1
            assert executor.protocol_stats()["dispatched"] == 0

    def test_projection_pushdown_restricts_and_dedups(self, tmp_path):
        triples = _star_triples()
        store = ShardedTripleStore(num_shards=2, triples=triples)
        reference = QueryEvaluator(TripleStore(triples=triples))
        query = (
            "SELECT DISTINCT ?a WHERE { ?s <http://pushdown.test/p0> ?a . "
            "?s <http://pushdown.test/p1> ?b }"
        )
        with store.serve(
            tmp_path / "snap", start_method=START_METHOD, batch_rows=1
        ) as executor:
            evaluator = ShardedQueryEvaluator(
                store, backend="process", executor=executor
            )
            got = evaluator.evaluate(query)
            assert _multiset(got) == _multiset(reference.evaluate(query))
            stats = executor.protocol_stats()
            # Workers dedup the single projected column shard-locally:
            # with batch_rows=1 each surviving row is one batch, and there
            # are at most 7 distinct ?a values per shard.
            assert stats["rows"] <= 14


class TestPagePushdown:
    def test_page_dispatches_only_overlapping_shards(self, tmp_path):
        """A LIMIT/OFFSET page ships exactly its rows from the shards that
        hold them: one ``page`` message per overlapping shard, no credits."""
        store = ShardedTripleStore(num_shards=4, triples=_star_triples())
        query = "SELECT ?a ?s WHERE {{ ?s <http://pushdown.test/p0> ?a }} LIMIT {} OFFSET {}"
        p0 = store.term_id(EX.p0)
        counts = [shard.count_ids(None, p0, None) for shard in store.shards]
        total = sum(counts)
        assert all(counts) and total == 48
        with store.serve(tmp_path / "snap", start_method=START_METHOD) as executor:
            evaluator = ShardedQueryEvaluator(
                store, backend="process", executor=executor
            )
            pages = [
                (5, 0),  # inside shard 0
                (counts[1] + 2, counts[0] - 1),  # shards 0, 1 and 2
                (10, counts[0]),  # starts exactly at shard 1
                (100, total - 3),  # the last three rows
                (5, total),  # past the end: nothing dispatched
                (0, 3),  # LIMIT 0
            ]
            for limit, offset in pages:
                before = executor.protocol_stats()
                page = evaluator.evaluate(query.format(limit, offset))
                after = executor.protocol_stats()
                shipped = min(limit, max(0, total - offset))
                assert evaluator.last_mode() == "scatter"
                assert len(page) == shipped
                ends = [sum(counts[: i + 1]) for i in range(len(counts))]
                starts = [end - count for end, count in zip(ends, counts)]
                overlapping = sum(
                    1
                    for start, end in zip(starts, ends)
                    if max(start, offset) < min(end, offset + limit)
                )
                delta = {key: after[key] - before[key] for key in after}
                assert delta["dispatched"] == overlapping, (limit, offset)
                assert delta["row_batches"] == overlapping, (limit, offset)
                assert delta["rows"] == shipped, (limit, offset)
                assert delta["acks"] == 0
                assert _balanced(after)
                assert after["buffered_batches"] == 0
            assert executor.protocol_stats()["cancelled"] == 0


class TestFlowControl:
    def test_buffering_bounded_by_result_window(self, tmp_path):
        window = 2
        triples = _wide_triples()
        store = ShardedTripleStore(num_shards=1, triples=triples)
        with store.serve(
            tmp_path / "snap",
            start_method=START_METHOD,
            batch_rows=1,
            result_window=window,
        ) as executor:
            assert executor.result_window == window
            group = parse_query(STAR_QUERY).where
            stream = executor.run_group([0], group)
            next(stream)
            # Let the worker run as far ahead as the protocol allows.
            time.sleep(0.8)
            stats = executor.protocol_stats()
            assert 0 < stats["max_buffered_batches"] <= window
            # Drain fully: every row still arrives, exactly once.
            remaining = sum(1 for _ in stream)
            expected = len(
                QueryEvaluator(TripleStore(triples=triples)).evaluate(STAR_QUERY)
            )
            assert remaining + 1 == expected
            final = executor.protocol_stats()
            assert final["max_buffered_batches"] <= window
            assert final["buffered_batches"] == 0
            assert final["acks"] > 0
            assert _balanced(final)

    def test_cancel_refunds_buffers_at_enqueue_time(self, tmp_path):
        """Satellite fix: the refund happens when the cancel is *enqueued*,
        not when the worker eventually drains the control queue."""
        store = ShardedTripleStore(num_shards=1, triples=_wide_triples())
        with store.serve(
            tmp_path / "snap",
            start_method=START_METHOD,
            batch_rows=1,
            result_window=4,
        ) as executor:
            executor.stall(0, seconds=0.5)  # keep the worker busy post-cancel
            group = parse_query(STAR_QUERY).where
            stream = executor.run_group([0], group)
            next(stream)
            time.sleep(0.3)  # let the window fill
            stream.close()  # enqueue the cancel
            # Immediately — the stalled worker cannot have drained it yet —
            # the gauge must be back to zero and the ledger balanced.
            stats = executor.protocol_stats()
            assert stats["buffered_batches"] == 0
            assert stats["cancelled"] == 1
            assert _balanced(stats)

    def test_cancel_frees_worker_credits(self, tmp_path):
        # With a 1-credit window and batch_rows=1 the worker blocks on the
        # second row until acked or cancelled; abandoning the stream must
        # unblock it so the next task runs promptly.
        store = ShardedTripleStore(num_shards=1, triples=_wide_triples())
        with store.serve(
            tmp_path / "snap",
            start_method=START_METHOD,
            batch_rows=1,
            result_window=1,
        ) as executor:
            group = parse_query(STAR_QUERY).where
            stream = executor.run_group([0], group)
            next(stream)
            stream.close()
            start = time.monotonic()
            assert executor.ping(0)["interned"] == 0
            assert time.monotonic() - start < 5.0
            stats = executor.protocol_stats()
            assert stats["cancelled"] == 1
            assert stats["buffered_batches"] == 0
            assert _balanced(stats)

    def test_limit_wave_accounting_balances(self, tmp_path):
        triples = _wide_triples()
        store = ShardedTripleStore(num_shards=2, triples=triples)
        with store.serve(
            tmp_path / "snap",
            start_method=START_METHOD,
            batch_rows=4,
            result_window=2,
        ) as executor:
            evaluator = ShardedQueryEvaluator(
                store, backend="process", executor=executor
            )
            for limit in (1, 3, 7):
                page = evaluator.evaluate(f"{STAR_QUERY} LIMIT {limit}")
                assert len(page) == limit
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                stats = executor.protocol_stats()
                if _balanced(stats) and stats["buffered_batches"] == 0:
                    break
                time.sleep(0.05)
            assert _balanced(stats)
            assert stats["buffered_batches"] == 0
            assert stats["cancelled"] > 0


class TestWindowConfiguration:
    def test_env_variable_sets_default(self, tmp_path, monkeypatch):
        store = ShardedTripleStore(num_shards=1, triples=_star_triples())
        monkeypatch.setenv("REPRO_RESULT_WINDOW", "3")
        with store.serve(tmp_path / "snap", start_method=START_METHOD) as executor:
            assert executor.result_window == 3

    def test_invalid_env_raises_config_error(self, tmp_path, monkeypatch):
        # Silent fallback turned typos into mystery performance
        # regressions; malformed values now fail loudly (obs.config).
        store = ShardedTripleStore(num_shards=1, triples=_star_triples())
        monkeypatch.setenv("REPRO_RESULT_WINDOW", "bogus")
        with pytest.raises(ConfigError, match="REPRO_RESULT_WINDOW"):
            store.serve(tmp_path / "snapa", start_method=START_METHOD)
        monkeypatch.setenv("REPRO_RESULT_WINDOW", "0")
        with pytest.raises(ConfigError, match="REPRO_RESULT_WINDOW"):
            store.serve(tmp_path / "snapb", start_method=START_METHOD)
        monkeypatch.setenv("REPRO_RESULT_WINDOW", "")
        with store.serve(tmp_path / "snapc", start_method=START_METHOD) as executor:
            assert executor.result_window == DEFAULT_RESULT_WINDOW

    def test_explicit_zero_window_rejected(self, tmp_path):
        store = ShardedTripleStore(num_shards=1, triples=_star_triples())
        directory = tmp_path / "snap"
        store.save(directory)
        with pytest.raises(StoreError):
            ProcessShardExecutor(
                directory, start_method=START_METHOD, result_window=0
            )


class TestJoinShippingProcess:
    def test_chain_join_runs_sharded_with_identical_rows(self, tmp_path):
        triples = _star_triples()
        store = ShardedTripleStore(num_shards=4, triples=triples)
        reference = QueryEvaluator(TripleStore(triples=triples))
        query = (
            "SELECT ?s ?a ?z WHERE { ?s <http://pushdown.test/p0> ?a . "
            "?a <http://pushdown.test/link> ?z }"
        )
        with store.serve(tmp_path / "snap", start_method=START_METHOD) as executor:
            evaluator = ShardedQueryEvaluator(
                store, backend="process", executor=executor
            )
            assert evaluator.explain(query).mode == "ship"
            got = evaluator.evaluate(query)
            assert _multiset(got) == _multiset(reference.evaluate(query))
            stats = executor.protocol_stats()
            assert stats["dispatched"] >= 1  # ran sharded, not merged-view
            assert _balanced(stats)

    def test_seeded_chain_dispatches_only_key_owners(self, tmp_path):
        """A chain from an entity seeds its anchor with the broadcast keys
        and dispatches only the shards owning them; an empty broadcast
        dispatches nothing."""
        triples = _star_triples()
        store = ShardedTripleStore(num_shards=4, triples=triples)
        reference = QueryEvaluator(TripleStore(triples=triples))
        chain = (
            "SELECT ?a ?z WHERE {{ <http://pushdown.test/{}> "
            "<http://pushdown.test/p0> ?a . ?a <http://pushdown.test/link> ?z }}"
        )
        owner = store.shard_index_for_subject(store.term_id(EX.a3))
        with store.serve(tmp_path / "snap", start_method=START_METHOD) as executor:
            evaluator = ShardedQueryEvaluator(
                store, backend="process", executor=executor
            )
            # s3 and s10 both link only a3, so every key lives on one shard;
            # b0 is interned but has no p0 facts: an empty broadcast.
            for subject, dispatched in (("s3", 1), ("s10", 1), ("b0", 0)):
                query = chain.format(subject)
                plan = evaluator.explain(query)
                assert plan.mode == "ship"
                assert plan.shards == ((owner,) if dispatched else ())
                before = executor.protocol_stats()
                got = evaluator.evaluate(query)
                after = executor.protocol_stats()
                assert evaluator.last_mode() == "ship"
                assert _multiset(got) == _multiset(reference.evaluate(query))
                assert len(got) == dispatched
                assert after["dispatched"] - before["dispatched"] == dispatched
                assert after["completed"] - before["completed"] == dispatched
                assert _balanced(after)
                assert after["buffered_batches"] == 0
