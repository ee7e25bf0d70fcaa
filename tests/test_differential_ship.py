"""Differential fuzzing: seeded shipped joins vs unsharded evaluation.

A shipped join (:mod:`repro.sparql.distjoin`) seeds each shard's anchor
with the first broadcast table's join keys when the shard has fewer keys
than its cheapest anchor pattern has rows, and the sharded evaluator
dispatches only the shards owning those keys when they pin the
partition variable.  Both must be invisible in the answers: every query
here must return the same multiset of rows as an unsharded
:class:`QueryEvaluator`, and the same as the ship path with seeding
switched off (``anchor_seeds`` monkeypatched to scan; the patch applies
in process, so that reference runs on the thread backend), at 1, 2 and
8 shards, on the thread and process backends, over warm and cold-mmap
stores.

Shapes: chains from an entity, chains ending at an entity, the
unanchored two-relation chain of ``benchmarks/record_proc.py``, and a
3-pattern group whose first table has two join variables.  Edge cases:
an empty broadcast, a constant missing from the dictionary, keys equal
to the anchor's row count (the seed/scan boundary), and chains
re-entered under OPTIONAL / EXISTS, where the initial binding already
pins a join variable.

Every thread-backend setup also runs with ``use_vectorized=False``
(labels ending ``-per-row``), so the per-row path answers the same cases.
"""

import multiprocessing
import os
from collections import Counter
from contextlib import ExitStack

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf.namespace import Namespace
from repro.rdf.triple import Triple
from repro.shard.sharded_store import ShardedTripleStore
from repro.sparql import distjoin
from repro.sparql.evaluate import QueryEvaluator
from repro.sparql.scatter import ShardedQueryEvaluator
from repro.store.triplestore import TripleStore

EX = Namespace("http://diffship.test/")

START_METHOD = os.environ.get("REPRO_WORKER_START_METHOD") or None
if START_METHOD and START_METHOD not in multiprocessing.get_all_start_methods():
    pytest.skip(
        f"start method {START_METHOD!r} unsupported on this platform",
        allow_module_level=True,
    )

SHARD_COUNTS = (1, 2, 8)
ENTITIES = 60
HUBS = 10
OBJECTS = 7


def _iri(name):
    return f"<{EX[name].value}>"


def _triples():
    """Entities ``e*`` with ``p2`` objects, neighbours, ``p3``/``p4``
    keys and a few ``small`` facts; hubs ``h*`` with 0-5 ``p1`` links;
    sources ``s*`` with one ``big`` link each."""
    triples = []
    for i in range(ENTITIES):
        entity = EX[f"e{i}"]
        triples.append(Triple(entity, EX.p2, EX[f"o{i % OBJECTS}"]))
        if i % 4 == 0:
            triples.append(Triple(entity, EX.p2, EX[f"o{(i * 3) % OBJECTS}"]))
        triples.append(Triple(entity, EX.nb, EX[f"e{(i + 1) % ENTITIES}"]))
        triples.append(Triple(entity, EX.nb, EX[f"e{(i + 7) % ENTITIES}"]))
        triples.append(Triple(entity, EX.p3, EX[f"k{i % 5}"]))
        if i % 3 == 0:
            triples.append(Triple(entity, EX.p4, EX[f"k{(i * 2) % 5}"]))
        if i % 10 == 0:
            triples.append(Triple(entity, EX.small, EX[f"z{i % 3}"]))
    for k in range(HUBS):
        for j in range(k % 6):
            triples.append(Triple(EX[f"h{k}"], EX.p1, EX[f"e{(k * 7 + j) % ENTITIES}"]))
    for j in range(200):
        triples.append(Triple(EX[f"s{j}"], EX.big, EX[f"e{(j * 13) % ENTITIES}"]))
    # h0 has no p1 facts but is interned: its chains broadcast nothing.
    triples.append(Triple(EX.e0, EX.see, EX.h0))
    # An interned object no p2 fact reaches: another empty broadcast.
    triples.append(Triple(EX.e1, EX.see, EX.lonely))
    return triples


def from_entity(hub):
    return f"SELECT ?m ?o WHERE {{ {_iri(f'h{hub}')} {_iri('p1')} ?m . ?m {_iri('p2')} ?o }}"


def to_entity(obj):
    return f"SELECT ?s ?m WHERE {{ ?s {_iri('p1')} ?m . ?m {_iri('p2')} {_iri(obj)} }}"


UNANCHORED = f"SELECT ?s ?a ?z WHERE {{ ?s {_iri('big')} ?a . ?a {_iri('small')} ?z }}"
TWO_KEY = (
    f"SELECT ?s ?m ?k WHERE {{ ?s {_iri('p3')} ?k . ?s {_iri('nb')} ?m . "
    f"?m {_iri('p4')} ?k }}"
)
MISSING_BROADCAST = (
    f"SELECT ?m ?o WHERE {{ {_iri('never_interned')} {_iri('p1')} ?m . "
    f"?m {_iri('p2')} ?o }}"
)
MISSING_ANCHOR = (
    f"SELECT ?m ?o WHERE {{ {_iri('h3')} {_iri('p1')} ?m . "
    f"?m {_iri('never_interned')} ?o }}"
)
OPTIONAL_CHAIN = (
    f"SELECT * WHERE {{ ?m {_iri('p2')} ?o . OPTIONAL {{ {_iri('h4')} {_iri('p1')} ?m . "
    f"?m {_iri('p3')} ?k }} }}"
)
EXISTS_CHAIN = (
    f"SELECT ?m ?o WHERE {{ ?m {_iri('p2')} ?o . FILTER EXISTS {{ ?s {_iri('big')} ?m . "
    f"?m {_iri('small')} ?z }} }}"
)
#: The outer row pins the inner partition variable ?s but not its key ?m.
OPTIONAL_PARTITION = (
    f"SELECT * WHERE {{ ?s {_iri('p1')} ?x . OPTIONAL {{ ?s {_iri('p1')} ?m . "
    f"?m {_iri('p2')} {_iri('o1')} }} }}"
)
#: The inner group's first table keys on (?m, ?k); the outer row pins ?m only.
OPTIONAL_TWO_KEY = (
    f"SELECT * WHERE {{ ?m {_iri('p4')} ?x . OPTIONAL {{ ?s {_iri('p3')} ?k . "
    f"?s {_iri('nb')} ?m . ?m {_iri('p4')} ?k }} }}"
)

#: Every query shape, keyed by a name hypothesis can draw.
QUERIES = {
    **{f"from-h{k}": from_entity(k) for k in range(HUBS)},
    **{f"to-o{j}": to_entity(f"o{j}") for j in range(OBJECTS)},
    "to-lonely": to_entity("lonely"),
    "unanchored": UNANCHORED,
    "two-key": TWO_KEY,
    "missing-broadcast": MISSING_BROADCAST,
    "missing-anchor": MISSING_ANCHOR,
    "optional": OPTIONAL_CHAIN,
    "optional-partition": OPTIONAL_PARTITION,
    "exists": EXISTS_CHAIN,
    "optional-two-key": OPTIONAL_TWO_KEY,
}

#: Pure-BGP shapes that must run as a shipped join.
SHIPPED = [name for name in QUERIES if not name.startswith(("optional", "exists"))]

PREDICATES = ("p1", "p2", "p3", "p4", "nb", "big", "small", "see")
#: Chain endpoints, including terms the dictionary never interned.
CONSTANTS = ("h2", "h5", "e0", "e35", "o1", "o4", "k0", "z1", "lonely", "h99", "o99")
FORMS = {
    "chain": "SELECT * WHERE {{ ?s <{p}> ?a . ?a <{q}> ?z }}",
    "from": "SELECT * WHERE {{ <{c}> <{p}> ?a . ?a <{q}> ?z }}",
    "to": "SELECT * WHERE {{ ?s <{p}> ?a . ?a <{q}> <{c}> }}",
}


def _multiset(result):
    return Counter(frozenset(row.items()) for row in result)


def _unseeded(store, query):
    """``query`` on the thread backend's ship path with every anchor scanned."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distjoin, "anchor_seeds", lambda store, plan, initial: None)
        return ShardedQueryEvaluator(store).evaluate(query)


@pytest.fixture(scope="module")
def reference():
    return QueryEvaluator(TripleStore(triples=_triples()))


@pytest.fixture(scope="module")
def setups(tmp_path_factory):
    """``(label, sharded store, evaluator)`` for every shard count x
    backend (thread, thread per-row, process) x warm/cold-mmap parent
    store (one worker pool per count)."""
    triples = _triples()
    root = tmp_path_factory.mktemp("diffship")
    with ExitStack() as stack:
        found = []
        for count in SHARD_COUNTS:
            warm = ShardedTripleStore(num_shards=count, triples=triples)
            directory = root / f"shards{count}"
            executor = stack.enter_context(
                warm.serve(directory, start_method=START_METHOD)
            )
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


def _assert_same(setups, reference, query, shipped=True):
    expected = _multiset(reference.evaluate(query))
    unseeded = {}
    for label, store, evaluator in setups:
        if shipped:
            assert evaluator.explain(query).mode == "ship", label
        got = _multiset(evaluator.evaluate(query))
        assert got == expected, (label, query)
        if id(store) not in unseeded:
            unseeded[id(store)] = _multiset(_unseeded(store, query))
        assert got == unseeded[id(store)], (label, query)


class TestSeededShip:
    @given(
        form=st.sampled_from(sorted(FORMS)),
        p=st.sampled_from(PREDICATES),
        q=st.sampled_from(PREDICATES),
        c=st.sampled_from(CONSTANTS),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_chains_match(self, setups, reference, form, p, q, c):
        query = FORMS[form].format(p=EX[p].value, q=EX[q].value, c=EX[c].value)
        _assert_same(setups, reference, query)

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_named_shapes_match(self, setups, reference, name):
        _assert_same(setups, reference, QUERIES[name], shipped=name in SHIPPED)

    def test_seeding_engages_and_routes_to_key_owners(self, setups):
        def expected_anchors(store, shards, predicate, keys):
            # Seeded exactly where the shard's anchor has more rows than keys.
            pid = store.term_id(predicate)
            return tuple(
                (index, keys if store.shards[index].count_ids(None, pid, None) > keys else None)
                for index in shards
            )

        for label, store, evaluator in setups:
            plan = evaluator.explain(from_entity(5))  # keys e35..e39
            assert plan.mode == "ship" and plan.subject_variable.name == "m"
            owners = sorted({
                store.shard_index_for_subject(store.term_id(EX[f"e{35 + j}"]))
                for j in range(5)
            })
            assert list(plan.shards) == owners, label
            assert plan.anchors == expected_anchors(store, owners, EX.p2, 5), label
            assert "seeded (5 keys)" in plan.describe(), label
            # Keys bind ?a, not the partition variable ?s: no key routing,
            # but the anchor is still seeded by the six ``small`` subjects.
            unanchored = evaluator.explain(UNANCHORED)
            assert unanchored.subject_variable.name == "s", label
            big = store.term_id(EX.big)
            holders = [
                index for index, shard in enumerate(store.shards)
                if shard.count_ids(None, big, None)
            ]
            assert list(unanchored.shards) == holders, label
            assert unanchored.anchors == expected_anchors(store, holders, EX.big, 6), label

    def test_empty_broadcast_dispatches_nothing(self, setups):
        for label, _, evaluator in setups:
            for query in (from_entity(0), to_entity("lonely"), MISSING_BROADCAST):
                plan = evaluator.explain(query)
                assert plan.mode == "ship", label
                assert plan.shards == () and plan.anchors == (), label
                assert len(evaluator.evaluate(query)) == 0, label

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_unplanned_evaluator_matches(self, reference, name):
        # use_planner=False seeds through per-key re-entry instead of one
        # planned pipeline over all seeds.
        store = ShardedTripleStore(num_shards=2, triples=_triples())
        evaluator = ShardedQueryEvaluator(store, use_planner=False)
        query = QUERIES[name]
        assert _multiset(evaluator.evaluate(query)) == _multiset(reference.evaluate(query))


class TestSeedScanBoundary:
    def test_keys_equal_to_anchor_rows_scan(self):
        # One shard: h1 links four ``?m`` keys, so an anchor of
        # ``?m p2 ?o`` with exactly 4 rows scans and one more row seeds.
        base = [Triple(EX[f"e{i}"], EX.p2, EX.o1) for i in range(4)]
        base += [Triple(EX.h1, EX.p1, EX[f"e{i}"]) for i in range(4)]
        query = from_entity(1)
        for extra, expected in (([], None), ([Triple(EX.e9, EX.p2, EX.o2)], 4)):
            triples = base + extra
            store = ShardedTripleStore(num_shards=1, triples=triples)
            evaluator = ShardedQueryEvaluator(store)
            plan = evaluator.explain(query)
            assert plan.mode == "ship" and plan.subject_variable.name == "m"
            assert plan.anchors == ((0, expected),)
            assert ("scanned" if expected is None else "seeded (4 keys)") in plan.describe()
            got = _multiset(evaluator.evaluate(query))
            assert got == _multiset(QueryEvaluator(TripleStore(triples=triples)).evaluate(query))
            assert got == _multiset(_unseeded(store, query))
            assert len(got) == 4
