"""Tests for the columnar bulk-load path and the flat membership map."""

import pytest

from repro.errors import StoreError
from repro.rdf.namespace import Namespace
from repro.rdf.terms import Literal
from repro.rdf.triple import Triple
from repro.store.bulk import load_triples
from repro.store.index import PermutationIndex
from repro.store.triplestore import TripleStore
from repro.synthetic.generator import generate_world
from repro.synthetic.presets import movie_world_spec

EX = Namespace("http://bulk.test/")


def sample_triples():
    triples = []
    for index in range(40):
        subject = EX[f"s{index % 10}"]
        predicate = EX[f"p{index % 4}"]
        triples.append(Triple(subject, predicate, EX[f"o{index}"]))
        triples.append(Triple(subject, predicate, Literal(f"value {index}")))
    return triples


class TestBulkLoad:
    def test_bulk_load_equals_per_triple_add(self):
        triples = sample_triples()
        incremental = TripleStore(name="incremental")
        incremental.add_all(triples)
        bulk = TripleStore(name="bulk")
        inserted = bulk.bulk_load(triples)
        assert inserted == len(set(triples))
        assert len(bulk) == len(incremental)
        assert set(bulk) == set(incremental)
        for predicate in incremental.predicates():
            assert set(bulk.match(predicate=predicate)) == set(
                incremental.match(predicate=predicate)
            )
            assert bulk.count(predicate=predicate) == incremental.count(
                predicate=predicate
            )

    def test_bulk_load_skips_duplicates_within_batch_and_against_store(self):
        triples = sample_triples()
        store = TripleStore()
        store.add(triples[0])
        inserted = store.bulk_load(triples + triples[:5])
        assert inserted == len(set(triples)) - 1
        assert len(store) == len(set(triples))
        # A second identical load is a no-op.
        assert store.bulk_load(triples) == 0
        assert len(store) == len(set(triples))

    def test_bulk_load_into_populated_store_merges_runs(self):
        triples = sample_triples()
        store = TripleStore(triples=triples[:30])
        store.bulk_load(triples[20:])
        reference = TripleStore(triples=triples)
        assert set(store) == set(reference)
        assert store.count() == reference.count()
        stats = store.statistics()
        assert stats.triple_count == len(store)

    def test_mutation_after_bulk_load_keeps_indexes_consistent(self):
        triples = sample_triples()
        store = TripleStore(triples=triples)
        extra = Triple(EX.fresh, EX.p0, EX.fresh_object)
        assert store.add(extra)
        assert store.remove(extra)
        assert store.remove(triples[0])
        assert triples[0] not in store
        assert set(store) == set(triples) - {triples[0]}
        # Sorted runs stay sorted after interleaved bulk and single adds.
        for subject, predicate, _ in ((t.subject, t.predicate, t.object) for t in triples[:5]):
            objects = store.objects_of(subject, predicate)
            ids = [store.term_id(o) for o in objects]
            assert ids == sorted(ids)

    def test_large_batch_vectorised_path_agrees_with_incremental(self):
        # Batches >= the numpy threshold take the lexsort/grouped path;
        # the result must be indistinguishable from per-triple adds.
        triples = [
            Triple(EX[f"s{index % 50}"], EX[f"p{index % 7}"], EX[f"o{index % 61}"])
            for index in range(3000)
        ]
        bulk = TripleStore()
        assert bulk.bulk_load(triples) == len(set(triples))
        incremental = TripleStore()
        incremental.add_all(triples)
        assert len(bulk) == len(incremental)
        assert set(bulk) == set(incremental)
        for predicate in incremental.predicates():
            assert bulk.count(predicate=predicate) == incremental.count(
                predicate=predicate
            )
        subject = EX.s0
        assert sorted(map(repr, bulk.predicates_of(subject))) == sorted(
            map(repr, incremental.predicates_of(subject))
        )

    def test_bulk_load_rejects_non_triples(self):
        store = TripleStore()
        with pytest.raises(StoreError):
            store.bulk_load([("not", "a", "triple")])  # type: ignore[list-item]

    def test_failed_bulk_load_leaves_store_unchanged(self):
        # A mid-batch error (bad element or a raising iterable) must not
        # leave triples half-registered: membership, len and the indexes
        # have to stay consistent, and a retry must succeed.
        triples = sample_triples()
        store = TripleStore(triples=triples[:5])
        with pytest.raises(StoreError):
            store.bulk_load([triples[10], "broken", triples[11]])  # type: ignore[list-item]
        assert len(store) == 5
        assert triples[10] not in store
        assert store.count() == 5

        def exploding():
            yield triples[10]
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError):
            store.bulk_load(exploding())
        assert triples[10] not in store
        # The failed batches left no tombstones: loading again works fully.
        assert store.bulk_load([triples[10], triples[11]]) == 2
        assert triples[10] in store
        assert store.count(predicate=triples[10].predicate) == len(
            [t for t in store if t.predicate == triples[10].predicate]
        )

    def test_load_triples_helper_uses_bulk_path(self):
        triples = sample_triples()
        store = load_triples(triples, name="helper")
        assert len(store) == len(set(triples))
        assert store.name == "helper"

    def test_generated_world_is_bulk_loaded_and_consistent(self):
        world = generate_world(movie_world_spec(films=20, people=25))
        for kb in world.kbs.values():
            store = kb.store
            assert len(store) > 0
            # Index bookkeeping agrees with the flat map after bulk build.
            assert store.count() == len(store)
            total = sum(
                store.count(predicate=info.iri)
                for info in kb.relations(include_same_as=True)
            )
            assert total == len(store)


class TestIndexRuns:
    def test_sorted_thirds_exposes_run(self):
        index = PermutationIndex()
        for third in (9, 2, 5):
            index.add(3, 4, third)
        run = index.sorted_thirds(3, 4)
        assert list(run) == [2, 5, 9]
        assert index.sorted_thirds(3, 99) == ()
        assert index.sorted_thirds(99, 4) == ()


class TestMembershipProbe:
    def test_contains_routes_through_flat_map(self):
        triples = sample_triples()
        store = TripleStore(triples=triples)
        for triple in triples:
            assert triple in store
        # Equal-but-distinct instances hit via hash equality.
        clone = Triple(triples[0].subject, triples[0].predicate, triples[0].object)
        assert clone in store
        assert Triple(EX.nope, EX.p0, EX.nope) not in store
        assert "not a triple" not in store

    def test_contains_tracks_remove_and_clear(self):
        triples = sample_triples()
        store = TripleStore(triples=triples)
        store.remove(triples[0])
        assert triples[0] not in store
        store.clear()
        assert all(triple not in store for triple in triples)
        # IDs survive clear; re-adding restores membership.
        store.add(triples[1])
        assert triples[1] in store

    def test_sorted_run_ids_shapes(self):
        store = TripleStore(triples=sample_triples())
        sid = store.term_id(EX.s0)
        pid = store.term_id(EX.p0)
        run = store.sorted_run_ids(subject=sid, predicate=pid)
        assert list(run) == sorted(run)
        assert len(list(run)) == store.count_ids(sid, pid, None)
        with pytest.raises(StoreError):
            store.sorted_run_ids(subject=sid)


class TestFromIdColumns:
    """The streaming ID-column loader must agree with Triple-based loads."""

    @staticmethod
    def _columns():
        from repro.store.dictionary import TermDictionary

        dictionary = TermDictionary()
        triples = sample_triples()
        subjects, predicates, objects = [], [], []
        for triple in triples:
            s, p, o = dictionary.encode_triple(triple)
            subjects.append(s)
            predicates.append(p)
            objects.append(o)
        return dictionary, triples, subjects, predicates, objects

    def test_equals_triple_load(self):
        dictionary, triples, subjects, predicates, objects = self._columns()
        reference = TripleStore(triples=triples)
        store = TripleStore.from_id_columns("cols", dictionary, subjects, predicates, objects)
        assert store.is_frozen
        assert set(store) == set(reference)
        assert len(store) == len(reference)

    def test_deduplicates(self):
        dictionary, _, subjects, predicates, objects = self._columns()
        doubled = TripleStore.from_id_columns(
            "cols", dictionary, subjects * 2, predicates * 2, objects * 2
        )
        once = TripleStore.from_id_columns("cols", dictionary, subjects, predicates, objects)
        assert set(doubled.match_ids()) == set(once.match_ids())
        assert len(doubled) == len(once)

    def test_mutation_after_load(self):
        dictionary, triples, subjects, predicates, objects = self._columns()
        store = TripleStore.from_id_columns("cols", dictionary, subjects, predicates, objects)
        extra = Triple(EX.zz, EX.p0, EX.yy)
        assert store.add(extra)
        assert extra in store
        assert store.remove(extra)
        assert len(store) == len(set(triples))

    def test_persist_roundtrip(self, tmp_path):
        dictionary, triples, subjects, predicates, objects = self._columns()
        store = TripleStore.from_id_columns("cols", dictionary, subjects, predicates, objects)
        store.save(tmp_path / "cols.snap")
        reopened = TripleStore.open(tmp_path / "cols.snap")
        assert set(reopened) == set(triples)

    def test_empty_columns(self):
        from repro.store.dictionary import TermDictionary

        store = TripleStore.from_id_columns("empty", TermDictionary(), [], [], [])
        assert len(store) == 0
        assert list(store.match_ids()) == []

    def test_pure_python_fallback_matches(self):
        # The numpy CSR build against a plain-Python sort-and-dedup of the
        # same columns: every index shape must see the same rows.
        dictionary, _, subjects, predicates, objects = self._columns()
        store = TripleStore.from_id_columns("cols", dictionary, subjects, predicates, objects)
        expected = sorted(set(zip(subjects, predicates, objects)))
        assert sorted(store.match_ids()) == expected
        for s in set(subjects):
            assert sorted(store.match_ids(subject=s)) == [t for t in expected if t[0] == s]
        for p in set(predicates):
            assert sorted(store.match_ids(predicate=p)) == [t for t in expected if t[1] == p]
        for o in set(objects):
            assert sorted(store.match_ids(object=o)) == [t for t in expected if t[2] == o]

    def test_numpy_columns_match_list_columns(self):
        import numpy as np

        dictionary, _, subjects, predicates, objects = self._columns()
        from_lists = TripleStore.from_id_columns("cols", dictionary, subjects, predicates, objects)
        from_arrays = TripleStore.from_id_columns(
            "cols",
            dictionary,
            np.asarray(subjects, dtype=np.int64),
            np.asarray(predicates, dtype=np.int64),
            np.asarray(objects, dtype=np.int64),
        )
        assert list(from_arrays.match_ids()) == list(from_lists.match_ids())
        assert len(from_arrays) == len(from_lists)
