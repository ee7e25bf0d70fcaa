"""Differential fuzzing: sharded LIMIT/OFFSET pages vs the streamed page.

:class:`~repro.sparql.scatter.ShardedQueryEvaluator` answers an unordered,
non-DISTINCT page over one co-partitioned triple pattern from the shards
that hold it: exact per-shard counts skip the shards inside the offset
and every overlapping shard pages its own slice (in ID columns where the
kernels run, on the worker for the process backend).  Those pages must
equal — as *ordered* row lists, variables included — what the streaming
scatter path returns with the page step switched off, at 1, 2 and 8
shards, on the thread and process backends, over warm and cold-mmap
stores.  The cases cover offset 0, offsets at every shard boundary and
±1, offsets past the end, ``LIMIT 0``, pages spanning three shards,
``SELECT *``, reordered projections, a projected variable the pattern
never binds, a constant missing from the dictionary, and shapes the page
step must decline (repeated variable, DISTINCT).

Every thread-backend setup also runs with ``use_vectorized=False``
(labels ending ``-per-row``), so the per-row path answers the same cases.
"""

import multiprocessing
import os
from contextlib import ExitStack

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf.namespace import Namespace
from repro.rdf.terms import Literal
from repro.rdf.triple import Triple
from repro.shard.sharded_store import ShardedTripleStore
from repro.sparql.ast import (
    GroupGraphPattern,
    ProjectionItem,
    SelectQuery,
    TriplePatternNode,
)
from repro.sparql.bindings import Variable
from repro.sparql.evaluate import QueryEvaluator
from repro.sparql.scatter import ShardedQueryEvaluator

EX = Namespace("http://diffpages.test/")

START_METHOD = os.environ.get("REPRO_WORKER_START_METHOD") or None
if START_METHOD and START_METHOD not in multiprocessing.get_all_start_methods():
    pytest.skip(
        f"start method {START_METHOD!r} unsupported on this platform",
        allow_module_level=True,
    )

SHARD_COUNTS = (1, 2, 8)

S, P, O, V, Z = (Variable(name) for name in "spovz")

#: Pattern shapes by name; ``repeated`` must never take the page step.
PATTERNS = {
    "p": TriplePatternNode(S, EX.p, O),
    "q": TriplePatternNode(S, EX.q, V),
    "any": TriplePatternNode(S, P, O),
    "p-const": TriplePatternNode(S, EX.p, EX.o3),
    "any-const": TriplePatternNode(S, P, EX.o3),
    "missing": TriplePatternNode(S, EX.p, EX.never_interned),
    "repeated": TriplePatternNode(S, P, S),
}

#: Projections, resolved against the pattern's variables.
PROJECTIONS = ("*", "all", "reversed", "first", "unbound")


def _triples():
    """60 subjects with 1-3 ``p`` facts each and a ``q`` literal on every
    fourth, plus a few self-loops for the repeated-variable shape."""
    triples = []
    for i in range(60):
        subject = EX[f"s{i:02d}"]
        for k in range(1 + i % 3):
            triples.append(Triple(subject, EX.p, EX[f"o{(i + k) % 9}"]))
        if i % 4 == 0:
            triples.append(Triple(subject, EX.q, Literal(f"v{i % 5}")))
        if i % 11 == 0:
            triples.append(Triple(subject, EX.loop, subject))
    return triples


def _query(pattern, projection, offset, limit, distinct=False):
    names = pattern.variables()
    chosen = {
        "*": None,
        "all": names,
        "reversed": names[::-1],
        "first": names[:1],
        "unbound": names[:1] + [Z],
    }[projection]
    return SelectQuery(
        projection=tuple(ProjectionItem(variable=v) for v in chosen or ()),
        where=GroupGraphPattern((pattern,)),
        select_all=chosen is None,
        distinct=distinct,
        offset=offset,
        limit=limit,
    )


@pytest.fixture(scope="module")
def setups(tmp_path_factory):
    """``(label, sharded store, evaluator)`` for every shard count x
    backend (thread, thread per-row, process) x warm/cold-mmap parent
    store (one worker pool per count)."""
    triples = _triples()
    root = tmp_path_factory.mktemp("diffpages")
    with ExitStack() as stack:
        found = []
        for count in SHARD_COUNTS:
            warm = ShardedTripleStore(num_shards=count, triples=triples)
            directory = root / f"shards{count}"
            executor = stack.enter_context(
                warm.serve(directory, start_method=START_METHOD)
            )
            # The cold store reopens the very snapshot the workers serve,
            # so one pool answers for both parents.
            cold = ShardedTripleStore.open(directory)
            for kind, store in (("warm", warm), ("cold-mmap", cold)):
                found.append(
                    (f"thread-{count}-{kind}", store, ShardedQueryEvaluator(store))
                )
                found.append(
                    (
                        f"thread-{count}-{kind}-per-row",
                        store,
                        ShardedQueryEvaluator(store, use_vectorized=False),
                    )
                )
                found.append(
                    (
                        f"process-{count}-{kind}",
                        store,
                        ShardedQueryEvaluator(
                            store, backend="process", executor=executor
                        ),
                    )
                )
        yield found


def _streamed(evaluator, query):
    """``query`` with the page step switched off: the streaming scatter."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ShardedQueryEvaluator, "_page_pushdown", lambda self, query: None)
        return evaluator.evaluate(query)


def _assert_same_page(label, evaluator, query, expect_paged):
    engaged = []
    real = ShardedQueryEvaluator._page_pushdown

    def spy(self, query):
        result = real(self, query)
        engaged.append(result is not None)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ShardedQueryEvaluator, "_page_pushdown", spy)
        paged = evaluator.evaluate(query)
    mode = evaluator.last_mode()
    streamed = _streamed(evaluator, query)
    assert engaged == [expect_paged], label
    assert mode == evaluator.last_mode(), label
    assert paged.variables == streamed.variables, label
    assert paged.rows == streamed.rows, label
    return paged


def _shard_counts(store, pattern):
    consts = QueryEvaluator(store)._resolve_constants(pattern)
    if consts is None:
        return [0] * store.num_shards
    return [shard.count_ids(*consts) for shard in store.shards]


class TestShardedPages:
    @given(
        name=st.sampled_from(sorted(PATTERNS)),
        projection=st.sampled_from(PROJECTIONS),
        offset=st.integers(min_value=0, max_value=140),
        limit=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_pages_match_streamed_order(self, setups, name, projection, offset, limit):
        pattern = PATTERNS[name]
        query = _query(pattern, projection, offset, limit)
        for label, store, evaluator in setups:
            total = sum(_shard_counts(store, pattern))
            paged = _assert_same_page(
                label, evaluator, query, expect_paged=name != "repeated"
            )
            if name != "repeated":
                assert len(paged) == min(limit, max(0, total - offset)), label

    def test_offsets_at_every_shard_boundary(self, setups):
        for name in ("p", "any", "q"):
            pattern = PATTERNS[name]
            for label, store, evaluator in setups:
                counts = _shard_counts(store, pattern)
                total = sum(counts)
                offsets = {0, total, total + 5}
                boundary = 0
                for count in counts:
                    boundary += count
                    offsets.update(b for b in (boundary - 1, boundary, boundary + 1) if b >= 0)
                for offset in sorted(offsets):
                    for limit in (0, 1, 7, total):
                        query = _query(pattern, "all", offset, limit)
                        paged = _assert_same_page(label, evaluator, query, True)
                        assert len(paged) == min(limit, max(0, total - offset)), label

    def test_page_spanning_three_shards(self, setups):
        pattern = PATTERNS["p"]
        for label, store, evaluator in setups:
            if store.num_shards != 8:
                continue
            counts = _shard_counts(store, pattern)
            assert all(counts[:3]), counts
            # Last row of shard 0, all of shard 1, first row of shard 2.
            query = _query(pattern, "reversed", counts[0] - 1, counts[1] + 2)
            sliced = []
            if evaluator.backend == "process":
                real = evaluator._executor.run_page

                def spy(pages, query, trace_parent=None):
                    sliced.extend(pages)
                    return real(pages, query, trace_parent=trace_parent)

                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(evaluator._executor, "run_page", spy)
                    _assert_same_page(label, evaluator, query, True)
            else:
                locals_ = evaluator._locals
                real_page = QueryEvaluator._page_ids

                def spy(self, query, offset, limit):
                    if self in locals_:  # not the streamed pass's parent
                        sliced.append((locals_.index(self), offset, limit))
                    return real_page(self, query, offset, limit)

                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(QueryEvaluator, "_page_ids", spy)
                    _assert_same_page(label, evaluator, query, True)
            assert sliced == [
                (0, counts[0] - 1, 1),
                (1, 0, counts[1]),
                (2, 0, 1),
            ], label

    def test_declined_shapes_keep_the_streaming_path(self, setups):
        pattern = PATTERNS["p"]
        unpaged = SelectQuery(
            projection=(), where=GroupGraphPattern((pattern,)), select_all=True
        )
        two_patterns = SelectQuery(
            projection=(),
            where=GroupGraphPattern((pattern, TriplePatternNode(S, EX.q, V))),
            select_all=True,
            limit=5,
        )
        for label, _, evaluator in setups:
            for query in (
                _query(pattern, "first", 3, 5, distinct=True),
                _query(PATTERNS["repeated"], "*", 0, 5),
                unpaged,
                two_patterns,
            ):
                _assert_same_page(label, evaluator, query, False)

    def test_mid_handover_pages_come_from_the_served_snapshot(self, tmp_path):
        # While a refresh mutates the store, the outgoing workers still
        # serve the old snapshot, so the parent's counts would cut the
        # page at the wrong shard boundaries: the page step stands aside.
        store = ShardedTripleStore(num_shards=2, triples=_triples())
        first = _shard_counts(store, PATTERNS["p"])[0]
        query = _query(PATTERNS["p"], "all", first - 5, 20)  # spans both shards
        with store.serve(tmp_path / "snap", start_method=START_METHOD) as executor:
            evaluator = ShardedQueryEvaluator(store, backend="process", executor=executor)
            before = evaluator.evaluate(query)
            store._refresh_serving += 1
            try:
                store.add_all(
                    Triple(EX[f"s{i:02d}"], EX.p, EX[f"extra{i}"]) for i in range(10)
                )
                assert _shard_counts(store, PATTERNS["p"])[0] == first + 10
                during = _assert_same_page("mid-handover", evaluator, query, False)
            finally:
                store._refresh_serving -= 1
        assert len(before) == 20 and during.rows == before.rows

    def test_mid_handover_ship_answers_from_one_generation(self, tmp_path):
        # A shipped join builds its broadcast tables from the parent store
        # while the outgoing workers evaluate the anchor on the old
        # snapshot; mid-handover that would join two generations, so ship
        # (and the fold over ship) stands aside for the global path.
        M = Variable("m")
        triples = [Triple(EX[f"e{i}"], EX.p2, EX[f"o{i}"]) for i in range(40)]
        triples += [Triple(EX.x, EX.p1, EX.e3), Triple(EX.x, EX.p1, EX.e5)]
        store = ShardedTripleStore(num_shards=4, triples=triples)
        chain = "{ <%s> <%s> ?m . ?m <%s> ?o }" % (EX.x.value, EX.p1.value, EX.p2.value)
        select = f"SELECT ?m ?o WHERE {chain}"
        count = f"SELECT (COUNT(*) AS ?c) WHERE {chain}"

        def answer(result):
            return sorted((row[M].value, row[O].value) for row in result)

        old = [(EX.e3.value, EX.o3.value), (EX.e5.value, EX.o5.value)]
        new = sorted(
            old
            + [(EX.e5.value, EX.oNEW.value), (EX.e7.value, EX.o7.value)]
        )
        with store.serve(tmp_path / "snap", start_method=START_METHOD) as executor:
            evaluator = ShardedQueryEvaluator(store, backend="process", executor=executor)
            assert evaluator.explain(select).mode == "ship"
            assert answer(evaluator.evaluate(select)) == old
            store._refresh_serving += 1
            try:
                store.add_all(
                    [Triple(EX.x, EX.p1, EX.e7), Triple(EX.e5, EX.p2, EX.oNEW)]
                )
                assert evaluator.explain(select).mode == "global"
                assert answer(evaluator.evaluate(select)) == new
                assert evaluator.last_mode() == "global"
                (row,) = evaluator.evaluate(count)
                assert int(row[Variable("c")].lexical) == len(new)
            finally:
                store._refresh_serving -= 1
