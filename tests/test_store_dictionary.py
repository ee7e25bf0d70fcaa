"""Unit tests for the term dictionary (ID interning layer)."""

import pytest

from repro.errors import StoreError
from repro.rdf.terms import BlankNode, IRI, Literal
from repro.rdf.triple import Triple
from repro.store.dictionary import (
    KIND_BLANK,
    KIND_IRI,
    KIND_LITERAL,
    TermDictionary,
    encode_term_record,
)
from repro.store.triplestore import TripleStore

from tests.conftest import EX


class TestInterning:
    def test_encode_assigns_dense_ids(self):
        dictionary = TermDictionary()
        first = dictionary.encode(EX.a)
        second = dictionary.encode(EX.b)
        assert [first, second] == [0, 1]
        assert len(dictionary) == 2

    def test_encode_is_idempotent(self):
        dictionary = TermDictionary()
        tid = dictionary.encode(EX.a)
        assert dictionary.encode(EX.a) == tid
        assert len(dictionary) == 1

    def test_round_trip(self):
        dictionary = TermDictionary()
        terms = [EX.a, Literal("x"), Literal(7), BlankNode("b1"), Literal("y", language="en")]
        ids = [dictionary.encode(term) for term in terms]
        assert [dictionary.decode(tid) for tid in ids] == terms

    def test_structurally_equal_terms_share_an_id(self):
        dictionary = TermDictionary()
        assert dictionary.encode(IRI("http://x.test/a")) == dictionary.encode(
            IRI("http://x.test/a")
        )

    def test_id_for_does_not_intern(self):
        dictionary = TermDictionary()
        assert dictionary.id_for(EX.a) is None
        assert len(dictionary) == 0

    def test_contains(self):
        dictionary = TermDictionary()
        dictionary.encode(EX.a)
        assert EX.a in dictionary
        assert EX.b not in dictionary

    def test_decode_unknown_id_raises(self):
        with pytest.raises(StoreError):
            TermDictionary().decode(0)

    def test_encode_rejects_non_terms(self):
        with pytest.raises(StoreError):
            TermDictionary().encode("not a term")  # type: ignore[arg-type]

    def test_terms_iterates_in_id_order(self):
        dictionary = TermDictionary()
        dictionary.encode(EX.b)
        dictionary.encode(EX.a)
        assert list(dictionary.terms()) == [EX.b, EX.a]


class TestSnapshotBase:
    @staticmethod
    def _cold():
        warm = TermDictionary()
        for name in ("a", "b", "c"):
            warm.encode(EX[name])
        return TermDictionary(*warm.snapshot_columns())

    def test_a_remembered_miss_does_not_hide_a_term_interned_later(self):
        cold = self._cold()
        assert cold.id_for(EX.b) == 1
        assert cold.id_for(EX.new) is None
        assert cold.id_for(EX.new) is None
        assert cold.encode(EX.new) == 3
        assert cold.id_for(EX.new) == 3

    def test_a_remembered_miss_does_not_hide_a_term_a_delta_appends(self):
        cold = self._cold()
        assert cold.id_for(EX.new) is None
        record = encode_term_record(EX.new)
        cold.extend_tail(record, [0, len(record)], bytes([KIND_IRI]))
        assert cold.id_for(EX.new) == 3
        assert cold.interned == 0


class TestKinds:
    def test_kind_tags(self):
        dictionary = TermDictionary()
        iri_id = dictionary.encode(EX.a)
        literal_id = dictionary.encode(Literal("x"))
        blank_id = dictionary.encode(BlankNode("b"))
        assert dictionary.kind(iri_id) == KIND_IRI
        assert dictionary.kind(literal_id) == KIND_LITERAL
        assert dictionary.kind(blank_id) == KIND_BLANK

    def test_literal_and_entity_predicates(self):
        dictionary = TermDictionary()
        iri_id = dictionary.encode(EX.a)
        literal_id = dictionary.encode(Literal("x"))
        assert dictionary.is_entity_id(iri_id) and not dictionary.is_literal_id(iri_id)
        assert dictionary.is_literal_id(literal_id) and not dictionary.is_entity_id(literal_id)


class TestTripleHelpers:
    def test_encode_decode_triple_round_trip(self):
        dictionary = TermDictionary()
        triple = Triple(EX.s, EX.p, Literal("o"))
        assert dictionary.decode_triple(dictionary.encode_triple(triple)) == triple


class TestStabilityAcrossStoreMutation:
    def test_ids_stable_across_remove(self):
        store = TripleStore()
        triple = Triple(EX.s, EX.p, EX.o)
        store.add(triple)
        subject_id = store.term_id(EX.s)
        store.remove(triple)
        assert store.term_id(EX.s) == subject_id
        assert store.term_for_id(subject_id) == EX.s
        # Re-adding reuses the same IDs.
        store.add(triple)
        assert store.term_id(EX.s) == subject_id

    def test_ids_stable_across_clear(self):
        store = TripleStore()
        store.add(Triple(EX.s, EX.p, EX.o))
        ids_before = {term: store.term_id(term) for term in (EX.s, EX.p, EX.o)}
        store.clear()
        assert len(store) == 0
        for term, tid in ids_before.items():
            assert store.term_id(term) == tid

    def test_shared_dictionary_across_stores(self):
        dictionary = TermDictionary()
        left = TripleStore(name="left", dictionary=dictionary)
        right = TripleStore(name="right", dictionary=dictionary)
        left.add(Triple(EX.s, EX.p, EX.o))
        right.add(Triple(EX.s, EX.p, EX.other))
        assert left.term_id(EX.s) == right.term_id(EX.s)


class TestCountShapes:
    """The count satellite: every pattern shape answered from index counts."""

    @pytest.fixture
    def store(self, people_store):
        return people_store

    def test_subject_predicate_shape(self, store):
        assert store.count(subject=EX["Frank_Sinatra"], predicate=EX.bornIn) == 1
        assert store.count(subject=EX["Frank_Sinatra"], predicate=EX.unknownRel) == 0

    def test_predicate_object_shape(self, store):
        assert store.count(predicate=EX.profession, object=EX.Physicist) == 2

    def test_subject_object_shape(self, store):
        assert store.count(subject=EX["Frank_Sinatra"], object=EX.USA) == 1

    def test_fully_bound_shape(self, store):
        assert store.count(EX["Frank_Sinatra"], EX.bornIn, EX.USA) == 1
        assert store.count(EX["Frank_Sinatra"], EX.bornIn, EX.Poland) == 0

    def test_unknown_term_counts_zero(self, store):
        assert store.count(subject=EX.NotThere) == 0

    def test_counts_agree_with_materialising_scan(self, store):
        shapes = [
            {"subject": EX["Marie_Curie"]},
            {"predicate": EX.bornIn},
            {"object": EX.Physicist},
            {"subject": EX["Marie_Curie"], "predicate": EX.bornIn},
            {"predicate": EX.profession, "object": EX.Physicist},
            {"subject": EX["Frank_Sinatra"], "object": EX.USA},
        ]
        for shape in shapes:
            assert store.count(**shape) == sum(1 for _ in store.match(**shape))

    def test_contains_ids(self, store):
        s = store.term_id(EX["Frank_Sinatra"])
        p = store.term_id(EX.bornIn)
        o = store.term_id(EX.USA)
        other = store.term_id(EX.Poland)
        assert store.contains_ids(s, p, o)
        assert not store.contains_ids(s, p, other)

    def test_count_distinct_ids_shapes(self, store):
        pid = store.term_id(EX.profession)
        sid = store.term_id(EX["Marie_Curie"])
        oid = store.term_id(EX.Physicist)
        assert store.count_distinct_ids("s", predicate=pid) == 3
        assert store.count_distinct_ids("o", predicate=pid) == 2
        assert store.count_distinct_ids("s", predicate=pid, object=oid) == 2
        assert store.count_distinct_ids("p", subject=sid) == 3
        assert store.count_distinct_ids("o", subject=sid, predicate=pid) == 1
