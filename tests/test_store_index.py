"""Unit tests for the ID-keyed permutation index: its overlay write path
and its CSR base."""

import numpy as np

from repro.store.index import PermutationIndex, csr_from_sorted
from repro.store.triplestore import TripleStore

A, B, C, D = 1, 2, 3, 4


def _frozen(index: PermutationIndex) -> PermutationIndex:
    """The same content as a CSR base with an empty overlay."""
    rows = [np.asarray(column) for column in index.rows()]
    return PermutationIndex(*(memoryview(column) for column in csr_from_sorted(*rows)))


class TestPermutationIndex:
    def test_add_and_contains(self):
        index = PermutationIndex()
        assert index.add(A, B, C)
        assert index.contains(A, B, C)
        assert not index.contains(A, B, D)
        assert len(index) == 1

    def test_duplicate_add_is_noop(self):
        index = PermutationIndex()
        assert index.add(A, B, C)
        assert not index.add(A, B, C)
        assert len(index) == 1
        assert index.count_for_key(A) == 1

    def test_remove(self):
        index = PermutationIndex()
        index.add(A, B, C)
        assert index.remove(A, B, C)
        assert not index.contains(A, B, C)
        assert len(index) == 0
        assert index.count_for_key(A) == 0

    def test_remove_absent_returns_false(self):
        index = PermutationIndex()
        assert not index.remove(A, B, C)
        index.add(A, B, C)
        assert not index.remove(A, B, D)
        assert not index.remove(A, D, C)
        assert len(index) == 1

    def test_remove_cleans_empty_levels(self):
        index = PermutationIndex()
        index.add(A, B, C)
        index.remove(A, B, C)
        assert not index.has_key(A)
        assert list(index.keys()) == []
        assert index.sorted_thirds(A, B) == ()

    def test_seconds_and_thirds(self):
        index = PermutationIndex()
        index.add(A, B, D)
        index.add(A, B, C)
        index.add(A, C, D)
        assert set(index.seconds(A)) == {B, C}
        assert list(index.thirds(A, B)) == [C, D]
        assert list(index.thirds(A, D)) == []
        assert list(index.thirds(D, B)) == []

    def test_pairs(self):
        index = PermutationIndex()
        index.add(A, B, C)
        index.add(A, C, D)
        assert set(index.pairs(A)) == {(B, C), (C, D)}
        assert set(index.pairs(D)) == set()

    def test_triples_iteration(self):
        index = PermutationIndex()
        entries = {(A, B, C), (A, B, D), (B, C, D)}
        for entry in entries:
            index.add(*entry)
        assert set(index.triples()) == entries

    def test_counts(self):
        index = PermutationIndex()
        index.add(A, B, C)
        index.add(A, B, D)
        index.add(B, C, D)
        index.add(B, D, D)
        assert index.key_count() == 2
        assert index.count_for_key(A) == 2
        assert index.count_for_key(B) == 2
        assert index.count_for_key(C) == 0
        assert index.second_count_for_key(A) == 1
        assert index.third_count(A, B) == 2
        assert index.distinct_third_count(B) == 1

    def test_clear(self):
        # Clearing swaps in empty indexes; IDs stay interned.
        store = TripleStore.from_id_columns(
            "c", _dictionary(), [A, A], [B, B], [C, D]
        )
        store._spo.add(B, C, D)
        store.clear()
        index = store._spo
        assert len(index) == 0
        assert not index.has_key(A)
        assert index.count_for_key(A) == 0
        assert list(index.keys()) == []

    def test_key_columns_match_nested_runs(self):
        index = PermutationIndex()
        for entry in [(A, C, D), (A, B, D), (A, B, C), (B, C, D)]:
            index.add(*entry)
        seconds, bounds, thirds = index.key_columns(A)
        assert list(seconds) == [B, C]
        assert list(bounds) == [0, 2, 3]
        assert list(thirds) == [C, D, D]
        assert [list(column) for column in index.key_columns(D)] == [[], [0], []]

    def test_frozen_twin_answers_like_writable_index(self):
        index = PermutationIndex()
        for entry in [(A, B, C), (A, B, D), (A, C, D), (B, C, D), (D, A, A)]:
            index.add(*entry)
        index.remove(D, A, A)
        frozen = _frozen(index)
        assert len(frozen) == len(index)
        assert sorted(frozen.triples()) == sorted(index.triples())
        assert not frozen.has_key(D)
        for key in (A, B, C, D):
            assert frozen.count_for_key(key) == index.count_for_key(key)
            assert frozen.second_count_for_key(key) == index.second_count_for_key(key)
            assert frozen.distinct_third_count(key) == index.distinct_third_count(key)
            assert sorted(frozen.pairs(key)) == sorted(index.pairs(key))
            for second in (A, B, C, D):
                assert list(frozen.thirds(key, second)) == list(index.thirds(key, second))

    def test_iteration_is_ascending_like_the_frozen_twin(self):
        index = PermutationIndex()
        for entry in [(D, C, A), (B, D, C), (B, A, D), (B, A, B), (A, D, D), (A, C, B)]:
            index.add(*entry)
        frozen = _frozen(index)
        assert list(index.keys()) == list(frozen.keys()) == [A, B, D]
        assert list(index.seconds(B)) == list(frozen.seconds(B)) == [A, D]
        assert list(index.pairs(B)) == list(frozen.pairs(B)) == [(A, B), (A, D), (D, C)]
        assert [second for second, _ in index.items_for_key(A)] == [C, D]
        assert list(index.triples()) == list(frozen.triples()) == sorted(index.triples())

    def test_contains_agrees_with_a_set_over_base_and_overlay(self):
        # Sparse keys (absent IDs inside and past the key range), groups of
        # one and of several thirds, and overlay adds and removes on keys
        # the base has and keys it lacks.
        rng = np.random.default_rng(7)
        rows = {tuple(int(v) for v in row) for row in rng.integers(0, 9, (60, 3)) * [2, 1, 1]}
        writable = PermutationIndex()
        for row in rows:
            writable.add(*row)
        index = _frozen(writable)
        expected = set(rows)
        for row in sorted(rows)[::6] + list(map(tuple, rng.integers(0, 20, (40, 3)).tolist())):
            if row in expected:
                assert index.remove(*row)
                expected.discard(row)
            else:
                assert index.add(*row)
                expected.add(row)
        assert index.pending
        for key in range(22):
            for second in range(20):
                for third in range(20):
                    entry = (key, second, third)
                    assert index.contains(*entry) == (entry in expected), entry


def _dictionary():
    from repro.rdf.namespace import Namespace
    from repro.store.dictionary import TermDictionary

    dictionary = TermDictionary()
    ex = Namespace("http://index.test/")
    for name in ("zero", "a", "b", "c", "d"):
        dictionary.encode(ex[name])
    return dictionary
