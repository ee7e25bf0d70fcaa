"""Unit tests for the writable ID-keyed triple index."""

from repro.store.index import FrozenIdIndex, IdTripleIndex

A, B, C, D = 1, 2, 3, 4


def _frozen(index: IdTripleIndex) -> FrozenIdIndex:
    return FrozenIdIndex(*(memoryview(column) for column in index.csr_columns()))


class TestIdTripleIndex:
    def test_add_and_contains(self):
        index = IdTripleIndex()
        assert index.add(A, B, C)
        assert index.contains(A, B, C)
        assert not index.contains(A, B, D)
        assert len(index) == 1

    def test_duplicate_add_is_noop(self):
        index = IdTripleIndex()
        assert index.add(A, B, C)
        assert not index.add(A, B, C)
        assert len(index) == 1
        assert index.count_for_key(A) == 1

    def test_remove(self):
        index = IdTripleIndex()
        index.add(A, B, C)
        assert index.remove(A, B, C)
        assert not index.contains(A, B, C)
        assert len(index) == 0
        assert index.count_for_key(A) == 0

    def test_remove_absent_returns_false(self):
        index = IdTripleIndex()
        assert not index.remove(A, B, C)
        index.add(A, B, C)
        assert not index.remove(A, B, D)
        assert not index.remove(A, D, C)
        assert len(index) == 1

    def test_remove_cleans_empty_levels(self):
        index = IdTripleIndex()
        index.add(A, B, C)
        index.remove(A, B, C)
        assert not index.has_key(A)
        assert list(index.keys()) == []
        assert index.sorted_thirds(A, B) == ()

    def test_seconds_and_thirds(self):
        index = IdTripleIndex()
        index.add(A, B, D)
        index.add(A, B, C)
        index.add(A, C, D)
        assert set(index.seconds(A)) == {B, C}
        assert list(index.thirds(A, B)) == [C, D]
        assert list(index.thirds(A, D)) == []
        assert list(index.thirds(D, B)) == []

    def test_pairs(self):
        index = IdTripleIndex()
        index.add(A, B, C)
        index.add(A, C, D)
        assert set(index.pairs(A)) == {(B, C), (C, D)}
        assert set(index.pairs(D)) == set()

    def test_triples_iteration(self):
        index = IdTripleIndex()
        entries = {(A, B, C), (A, B, D), (B, C, D)}
        for entry in entries:
            index.add(*entry)
        assert set(index.triples()) == entries

    def test_counts(self):
        index = IdTripleIndex()
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
        index = IdTripleIndex()
        index.add(A, B, C)
        index.clear()
        assert len(index) == 0
        assert not index.has_key(A)
        assert index.count_for_key(A) == 0

    def test_key_columns_match_nested_runs(self):
        index = IdTripleIndex()
        for entry in [(A, C, D), (A, B, D), (A, B, C), (B, C, D)]:
            index.add(*entry)
        seconds, bounds, thirds = index.key_columns(A)
        assert list(seconds) == [B, C]
        assert list(bounds) == [0, 2, 3]
        assert list(thirds) == [C, D, D]
        assert [list(column) for column in index.key_columns(D)] == [[], [0], []]

    def test_frozen_twin_answers_like_writable_index(self):
        index = IdTripleIndex()
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
        index = IdTripleIndex()
        for entry in [(D, C, A), (B, D, C), (B, A, D), (B, A, B), (A, D, D), (A, C, B)]:
            index.add(*entry)
        frozen = _frozen(index)
        assert list(index.keys()) == list(frozen.keys()) == [A, B, D]
        assert list(index.seconds(B)) == list(frozen.seconds(B)) == [A, D]
        assert list(index.pairs(B)) == list(frozen.pairs(B)) == [(A, B), (A, D), (D, C)]
        assert [second for second, _ in index.items_for_key(A)] == [C, D]
        assert list(index.triples()) == list(frozen.triples()) == sorted(index.triples())
