"""Index overlays: every mutation sequence reads like a freshly built store.

Each :class:`~repro.store.index.PermutationIndex` is a CSR base plus a
per-key overlay of added and removed entries; writes fold the overlay into
a new base once it grows, and saves fold too.  These tests run random
sequences of ``add``, ``remove`` (also of all a subject's facts),
``bulk_load``, ``clear``, ``save`` + ``open``, ``save_delta`` + ``open``
and ``compact`` on warm, cold-mmap and sharded stores — with the fold
limit both far above and far below the
sizes involved — and then demand that every index read and every ID- and
Term-level store read equals, value for value and in the same order, the
read of a store built fresh from the final triple set.  They also pin
that reads never fold, and that single writes on a cold store neither
fold nor materialise the Triple maps.
"""

import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import StoreError
from repro.rdf.namespace import Namespace
from repro.rdf.terms import Literal
from repro.rdf.triple import Triple
from repro.shard.sharded_store import ShardedTripleStore
from repro.store import triplestore
from repro.store.index import PermutationIndex
from repro.store.triplestore import TripleStore

EX = Namespace("http://overlay.test/")

SUBJECTS = [EX[f"s{i}"] for i in range(6)]
PREDICATES = [EX[f"p{i}"] for i in range(3)]
OBJECTS = [EX[f"o{i}"] for i in range(4)] + [Literal("v"), Literal(7)]
UNIVERSE = [
    Triple(subject, predicate, obj)
    for subject in SUBJECTS
    for predicate in PREDICATES
    for obj in OBJECTS
]

_triple = st.sampled_from(UNIVERSE)
_op = st.one_of(
    st.tuples(st.just("add"), _triple),
    st.tuples(st.just("remove"), _triple),
    st.tuples(st.just("bulk"), st.lists(_triple, max_size=14)),
    # Removing every fact of a subject empties keys the base still lists.
    st.tuples(st.just("drop"), st.sampled_from(SUBJECTS)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("save_open")),
    st.tuples(st.just("delta_open")),
    st.tuples(st.just("compact")),
)
# clear() is rare in real use and wipes the rest of a sequence's effect.
_ops = st.lists(_op, max_size=24).filter(
    lambda ops: sum(op[0] == "clear" for op in ops) <= 1
)


@contextmanager
def _fold_limit(minimum, share=triplestore._FOLD_SHARE):
    with mock.patch.object(triplestore, "_FOLD_MIN", minimum), mock.patch.object(
        triplestore, "_FOLD_SHARE", share
    ):
        yield


@contextmanager
def _counting_folds():
    """Count :meth:`TripleStore._fold` calls (shards included)."""
    calls = []
    original = TripleStore._fold

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    with mock.patch.object(TripleStore, "_fold", counted):
        yield calls


# --------------------------------------------------------------------- #
# Read batteries
# --------------------------------------------------------------------- #
def _key_columns(index, key):
    seconds, bounds, thirds = index.key_columns(key)
    start = bounds[0]
    return list(seconds), [bound - start for bound in bounds], list(thirds)


def _index_reads(index, keys):
    """Every read of one permutation index, as plain comparable values."""
    reads = {
        "len": len(index),
        "keys": list(index.keys()),
        "key_count": index.key_count(),
        "triples": list(index.triples()),
        "rows": [column.tolist() for column in index.rows()],
    }
    for key in keys:
        seconds = list(index.seconds(key))
        reads[key] = {
            "seconds": seconds,
            "pairs": list(index.pairs(key)),
            "items": [(second, list(run)) for second, run in index.items_for_key(key)],
            "key_columns": _key_columns(index, key),
            "count": index.count_for_key(key),
            "second_count": index.second_count_for_key(key),
            "distinct_thirds": index.distinct_third_count(key),
            "has_key": index.has_key(key),
            "runs": {
                second: (
                    list(index.thirds(key, second)),
                    list(index.sorted_thirds(key, second)),
                    index.third_count(key, second),
                )
                for second in seconds + [-1]
            },
        }
    return reads


def _id_reads(store, ids):
    """ID-level store reads for every pattern shape over ``ids``."""
    s_ids, p_ids, o_ids = ids
    reads = {
        "len": len(store),
        "all": list(store.match_ids()),
        "count": store.count_ids(),
        "contains": [store.contains_ids(s, p, o) for s in s_ids for p in p_ids for o in o_ids],
        "distinct": [store.count_distinct_ids(position) for position in "spo"],
        "positions": [list(store.position_ids(position)) for position in "spo"],
    }
    shapes = (
        [(s, None, None) for s in s_ids]
        + [(None, p, None) for p in p_ids]
        + [(None, None, o) for o in o_ids]
        + [(s, p, None) for s in s_ids for p in p_ids]
        + [(None, p, o) for p in p_ids for o in o_ids]
        + [(s, None, o) for s in s_ids for o in o_ids]
    )
    for shape in shapes:
        reads[shape] = (list(store.match_ids(*shape)), store.count_ids(*shape))
        if sum(value is not None for value in shape) == 2:
            reads[shape] += (list(store.sorted_run_ids(*shape)),)
        for position, value in zip("spo", shape):
            if value is None:
                reads[shape + (position,)] = (
                    list(store.position_ids(position, *shape)),
                    store.count_distinct_ids(position, *shape),
                )
    return reads


def _term_reads(store):
    """Term-level store reads over the whole term universe."""
    reads = {
        # Warm stores iterate in insertion order: compare the set.
        "iter": sorted(map(repr, store)),
        "contains": [triple in store for triple in UNIVERSE],
        "predicates": store.predicates(),
        "entities": store.entities(),
        "subjects": list(store.subjects()),
        "objects": list(store.objects()),
        "statistics": store.statistics(),
    }
    for subject in SUBJECTS:
        reads[subject] = (
            list(store.match(subject=subject)),
            store.count(subject=subject),
            store.predicates_of(subject),
            store.has_subject(subject),
            [store.objects_of(subject, predicate) for predicate in PREDICATES],
            [store.predicates_between(subject, obj) for obj in OBJECTS],
        )
    for predicate in PREDICATES:
        reads[predicate] = (
            list(store.match(predicate=predicate)),
            store.count(predicate=predicate),
            list(store.subjects(predicate)),
            list(store.objects(predicate)),
            store.predicate_statistics(predicate),
            [store.subjects_of(predicate, obj) for obj in OBJECTS],
            [list(store.match(subject, predicate)) for subject in SUBJECTS],
        )
    for obj in OBJECTS:
        reads[obj] = (list(store.match(object=obj)), store.count(object=obj))
    return reads


def _universe_ids(store):
    ids = []
    for terms in (SUBJECTS, PREDICATES, OBJECTS):
        known = [store.term_id(term) for term in terms]
        ids.append([tid for tid in known if tid is not None] + [10_000])
    return ids


def _fresh(store, triples, name="fresh"):
    """A store built fresh from ``triples`` over ``store``'s dictionary."""
    rows = [store.dictionary.encode_triple(triple) for triple in triples]
    return TripleStore.from_id_columns(
        name,
        store.dictionary,
        [row[0] for row in rows],
        [row[1] for row in rows],
        [row[2] for row in rows],
    )


def assert_reads_like_fresh(store, expected):
    """``store`` (plain) reads exactly like a fresh build of ``expected``."""
    reference = _fresh(store, expected)
    ids = _universe_ids(store)
    for order in ("_spo", "_pos", "_osp"):
        keys = sorted(set(ids[0] + ids[1] + ids[2]))
        assert _index_reads(getattr(store, order), keys) == _index_reads(
            getattr(reference, order), keys
        ), order
    assert _id_reads(store, ids) == _id_reads(reference, ids)
    assert _term_reads(store) == _term_reads(reference)


def assert_sharded_reads_like_fresh(store, expected):
    by_shard = [[] for _ in store.shards]
    for triple in expected:
        sid = store.term_id(triple.subject)
        by_shard[store.shard_index_for_subject(sid)].append(triple)
    for shard, triples in zip(store.shards, by_shard):
        assert_reads_like_fresh(shard, triples)
    assert len(store) == len(expected)
    assert [triple in store for triple in UNIVERSE] == [
        triple in expected for triple in UNIVERSE
    ]
    assert store.count() == len(expected)


# --------------------------------------------------------------------- #
# Differential over mutation sequences
# --------------------------------------------------------------------- #
def _run(store, ops, directory: Path, sharded: bool):
    """Apply ``ops`` to ``store``; returns the final store and triple set."""
    expected = set(store)
    kind = ShardedTripleStore if sharded else TripleStore
    target = directory / ("shards" if sharded else "store.snap")
    saved = False
    for op in ops:
        name = op[0]
        if name == "add":
            assert store.add(op[1]) == (op[1] not in expected)
            expected.add(op[1])
        elif name == "remove":
            assert store.remove(op[1]) == (op[1] in expected)
            expected.discard(op[1])
        elif name == "drop":
            for triple in list(store.match(subject=op[1])):
                assert store.remove(triple)
                expected.discard(triple)
        elif name == "bulk":
            assert store.bulk_load(op[1]) == len(set(op[1]) - expected)
            expected.update(op[1])
        elif name == "clear":
            store.clear()
            expected.clear()
        elif name == "save_open":
            store.save(target)
            saved = True
            store = kind.open(target)
        elif name == "delta_open":
            try:
                if not saved:
                    raise StoreError("no base yet")
                store.save_delta(target)
            except StoreError:
                store.save(target)
                saved = True
            store = kind.open(target)
        elif name == "compact":
            store.compact(target)
            saved = True
            assert all(shard.is_frozen for shard in getattr(store, "shards", [store]))
        assert len(store) == len(expected)
    return store, expected


def _initial(count=40):
    return UNIVERSE[::3][:count]


_SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@pytest.mark.parametrize("fold_min", [2, 1024], ids=["folding", "overlay-only"])
class TestMutationSequences:
    @given(ops=_ops)
    @_SETTINGS
    def test_warm_store(self, fold_min, ops):
        with tempfile.TemporaryDirectory() as directory, _fold_limit(fold_min, 4):
            store = TripleStore(triples=_initial())
            store, expected = _run(store, ops, Path(directory), sharded=False)
            with _counting_folds() as folds:
                assert_reads_like_fresh(store, expected)
            assert folds == []

    @given(ops=_ops)
    @_SETTINGS
    def test_cold_mmap_store(self, fold_min, ops):
        with tempfile.TemporaryDirectory() as directory, _fold_limit(fold_min, 4):
            path = Path(directory) / "seed.snap"
            TripleStore(triples=_initial()).save(path)
            store = TripleStore.open(path, mmap=True)
            store, expected = _run(store, ops, Path(directory), sharded=False)
            with _counting_folds() as folds:
                assert_reads_like_fresh(store, expected)
            assert folds == []

    @given(ops=_ops)
    @_SETTINGS
    def test_sharded_store(self, fold_min, ops):
        with tempfile.TemporaryDirectory() as directory, _fold_limit(fold_min, 4):
            store = ShardedTripleStore(num_shards=3, triples=_initial())
            store, expected = _run(store, ops, Path(directory), sharded=True)
            with _counting_folds() as folds:
                assert_sharded_reads_like_fresh(store, expected)
            assert folds == []


# --------------------------------------------------------------------- #
# Fold bookkeeping
# --------------------------------------------------------------------- #
class TestFolding:
    def test_one_write_on_a_cold_store_stays_in_the_overlay(self, tmp_path):
        path = tmp_path / "cold.snap"
        TripleStore(triples=_initial()).save(path)
        store = TripleStore.open(path)
        fresh = Triple(EX.brand_new, EX.p0, EX.o0)
        with _counting_folds() as folds:
            assert store.add(fresh)
            assert store.remove(UNIVERSE[0])
            assert fresh in store and UNIVERSE[0] not in store
        assert folds == []
        assert not store.is_frozen
        assert store._lazy_triples and not store._triples and not store._triple_ids
        assert store.data_version == 2

    def test_overlay_folds_past_the_limit_and_on_save(self, tmp_path):
        store = TripleStore(triples=_initial())
        store.save(tmp_path / "a.snap")
        assert store.is_frozen
        with _fold_limit(4, 1000), _counting_folds() as folds:
            for triple in UNIVERSE[1::3][:4]:
                store.add(triple)
            assert folds == [] and store._spo.pending == 4
            store.add(UNIVERSE[2])
            assert folds == [store] and store.is_frozen
            store.remove(UNIVERSE[2])
            assert not store.is_frozen
            store.save(tmp_path / "b.snap")
            assert len(folds) == 2 and store.is_frozen
        assert_reads_like_fresh(store, set(_initial()) | set(UNIVERSE[1::3][:4]))

    def test_batch_fold_appends_to_existing_runs(self):
        # A batch that passes the limit folds together with the pending
        # overlay entries, merging into runs the base already holds.
        store = TripleStore(triples=[Triple(EX.s0, EX.p0, EX.o3)])
        store.add(Triple(EX.s0, EX.p0, EX.o1))
        batch = [Triple(EX.s0, EX.p0, EX.o2), Triple(EX.s0, EX.p0, EX.o0)] + [
            Triple(EX[f"x{i}"], EX.p1, EX.o0) for i in range(30)
        ]
        with _fold_limit(8, 1000), _counting_folds() as folds:
            assert store.bulk_load(batch) == len(batch)
        assert len(folds) == 1 and store.is_frozen
        assert store.objects_of(EX.s0, EX.p0) == [EX.o3, EX.o1, EX.o2, EX.o0]
        assert_reads_like_fresh(store, set(store))

    def test_bulk_load_into_an_empty_store_builds_csr_directly(self):
        store = TripleStore()
        with _fold_limit(8), _counting_folds() as folds:
            store.bulk_load(UNIVERSE)
        assert len(folds) == 1 and store.is_frozen
        assert store._spo.pending == 0 and len(store._spo) == len(UNIVERSE)

    @pytest.mark.filterwarnings("ignore::repro.errors.ShardSkewWarning")
    def test_unbounded_sharded_add_does_not_fold_per_add(self):
        # An unbounded sharded store reads count_distinct_ids("s") after
        # every add to decide when to seed its boundaries.
        store = ShardedTripleStore(num_shards=4)
        triples = [Triple(EX[f"u{i}"], EX.p0, EX.o0) for i in range(150)]
        with _counting_folds() as folds:
            for triple in triples:
                assert store.add(triple)
        assert folds == []
        assert store.count_distinct_ids("s") == len(triples)
        assert_sharded_reads_like_fresh(store, set(triples))

    def test_reads_of_a_touched_key_are_cached_until_the_next_write(self):
        index = PermutationIndex()
        index.add(1, 2, 3)
        first = index.key_columns(1)
        assert index.key_columns(1) is first
        index.add(1, 2, 4)
        assert list(index.key_columns(1)[2]) == [3, 4]
        assert index.remove(1, 2, 3) and index.remove(1, 2, 4)
        assert list(index.keys()) == [] and index.key_count() == 0
        assert not index.has_key(1) and index.pending == 0
