"""Property-based tests (hypothesis) for core data structures and invariants."""

import string
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.confidence import cwa_confidence, pca_confidence
from repro.align.evidence import EvidenceSet, SubjectEvidence
from repro.kb.sameas import SameAsIndex
from repro.rdf.namespace import Namespace
from repro.rdf.ntriples import parse_ntriples, serialize_ntriples
from repro.rdf.terms import IRI, Literal
from repro.rdf.triple import Triple
from repro.similarity.jaro import jaro_winkler_similarity
from repro.similarity.levenshtein import levenshtein_distance, levenshtein_similarity
from repro.similarity.ngram import ngram_similarity
from repro.sparql.ast import (
    GroupGraphPattern,
    SelectQuery,
    TriplePatternNode,
    ValuesNode,
)
from repro.sparql.bindings import Binding, Variable
from repro.sparql.evaluate import QueryEvaluator
from repro.store.dictionary import TermDictionary
from repro.store.triplestore import TripleStore
from tests.reference_engine import naive_evaluator

EX = Namespace("http://prop.test/")

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
_local_names = st.text(alphabet=string.ascii_letters + string.digits + "_", min_size=1, max_size=12)
_iris = _local_names.map(lambda name: EX[name])
_plain_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\\"),
    max_size=30,
)
_literals = st.one_of(
    _plain_text.map(Literal),
    st.integers(min_value=-10**6, max_value=10**6).map(Literal),
    st.tuples(_plain_text, st.sampled_from(["en", "fr", "de"])).map(
        lambda pair: Literal(pair[0], language=pair[1])
    ),
)
_objects = st.one_of(_iris, _literals)
_triples = st.builds(Triple, _iris, _iris, _objects)
_simple_strings = st.text(alphabet=string.ascii_lowercase + " ", max_size=20)


# --------------------------------------------------------------------------- #
# RDF round-trips
# --------------------------------------------------------------------------- #
class TestNTriplesRoundTrip:
    @given(st.lists(_triples, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_serialise_parse_round_trip(self, triples):
        document = serialize_ntriples(triples)
        assert list(parse_ntriples(document)) == triples

    @given(_literals)
    @settings(max_examples=60, deadline=None)
    def test_literal_round_trip(self, literal):
        triple = Triple(EX.s, EX.p, literal)
        parsed = list(parse_ntriples(serialize_ntriples([triple])))[0]
        assert parsed.object == literal


# --------------------------------------------------------------------------- #
# Store invariants
# --------------------------------------------------------------------------- #
class TestStoreInvariants:
    @given(st.lists(_triples, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_store_behaves_like_a_set(self, triples):
        store = TripleStore(triples=triples)
        assert len(store) == len(set(triples))
        assert set(store) == set(triples)

    @given(st.lists(_triples, max_size=30), st.lists(_triples, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_add_then_remove_restores_previous_state(self, base, extra):
        store = TripleStore(triples=base)
        before = set(store)
        newly_added = [t for t in extra if store.add(t)]
        for triple in newly_added:
            assert store.remove(triple)
        assert set(store) == before

    @given(st.lists(_triples, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_pattern_match_consistent_with_scan(self, triples):
        store = TripleStore(triples=triples)
        for predicate in store.predicates():
            via_index = set(store.match(predicate=predicate))
            via_scan = {t for t in store if t.predicate == predicate}
            assert via_index == via_scan
            assert store.count(predicate=predicate) == len(via_scan)

    @given(st.lists(_triples, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_statistics_sum_to_store_size(self, triples):
        store = TripleStore(triples=triples)
        stats = store.statistics()
        assert sum(p.fact_count for p in stats.predicates.values()) == len(store)


# --------------------------------------------------------------------------- #
# Planner / join-operator equivalence
# --------------------------------------------------------------------------- #
# A deliberately tiny vocabulary so random BGPs actually join: few IRIs,
# few variables, dense random stores.
_plan_iris = st.sampled_from([EX[f"n{index}"] for index in range(6)])
_plan_variables = st.sampled_from([Variable(name) for name in "abc"])
_plan_subjects = st.one_of(_plan_variables, _plan_iris)
_plan_predicates = st.one_of(_plan_variables, _plan_iris)
_plan_objects = st.one_of(_plan_variables, _plan_iris)
_plan_patterns = st.builds(
    TriplePatternNode, _plan_subjects, _plan_predicates, _plan_objects
)
_plan_triples = st.lists(
    st.builds(Triple, _plan_iris, _plan_iris, _plan_iris), max_size=50
)
# VALUES rows may contain None (UNDEF), so some solutions leave a variable
# unbound — the planner must not treat such variables as bound.
_values_nodes = st.lists(
    st.tuples(st.one_of(st.none(), _plan_iris), st.one_of(st.none(), _plan_iris)),
    min_size=1,
    max_size=3,
).map(
    lambda rows: ValuesNode(
        variables=(Variable("a"), Variable("b")), rows=tuple(rows)
    )
)


def _solution_multiset(result) -> Counter:
    return Counter(frozenset(row.items()) for row in result)


class TestPlannerEquivalence:
    """Merge/hash/nested plans must reproduce the naive nested-loop answers."""

    @given(_plan_triples, st.lists(_plan_patterns, min_size=1, max_size=4))
    @settings(max_examples=120, deadline=None)
    def test_planned_bgp_matches_naive_nested_loop(self, triples, patterns):
        store = TripleStore(triples=triples)
        query = SelectQuery(
            projection=(),
            where=GroupGraphPattern(tuple(patterns)),
            select_all=True,
        )
        planned = QueryEvaluator(store).evaluate(query)
        naive = naive_evaluator(store).evaluate(query)
        assert _solution_multiset(planned) == _solution_multiset(naive)

    @given(
        _plan_triples,
        _values_nodes,
        st.lists(_plan_patterns, min_size=1, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_planned_bgp_with_values_matches_naive(self, triples, values, patterns):
        store = TripleStore(triples=triples)
        query = SelectQuery(
            projection=(),
            where=GroupGraphPattern((values,) + tuple(patterns)),
            select_all=True,
        )
        planned = QueryEvaluator(store).evaluate(query)
        naive = naive_evaluator(store).evaluate(query)
        assert _solution_multiset(planned) == _solution_multiset(naive)

    @given(_plan_triples, st.lists(_plan_patterns, min_size=2, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_planned_distinct_matches_naive(self, triples, patterns):
        store = TripleStore(triples=triples)
        query = SelectQuery(
            projection=(),
            where=GroupGraphPattern(tuple(patterns)),
            select_all=True,
            distinct=True,
        )
        planned = QueryEvaluator(store).evaluate(query)
        naive = naive_evaluator(store).evaluate(query)
        assert _solution_multiset(planned) == _solution_multiset(naive)


# --------------------------------------------------------------------------- #
# Bulk loading invariants
# --------------------------------------------------------------------------- #
class TestBulkLoadInvariants:
    @given(st.lists(_triples, max_size=40), st.lists(_triples, max_size=15))
    @settings(max_examples=50, deadline=None)
    def test_bulk_and_incremental_stores_agree(self, first, second):
        incremental = TripleStore()
        incremental.add_all(first)
        incremental.add_all(second)
        bulk = TripleStore()
        bulk.bulk_load(first)
        bulk.bulk_load(second)
        assert len(bulk) == len(incremental)
        assert set(bulk) == set(incremental)
        for predicate in incremental.predicates():
            assert bulk.count(predicate=predicate) == incremental.count(
                predicate=predicate
            )
            assert set(bulk.match(predicate=predicate)) == set(
                incremental.match(predicate=predicate)
            )

    @given(st.lists(_triples, min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_bulk_loaded_membership_and_removal(self, triples):
        store = TripleStore()
        store.bulk_load(triples)
        for triple in triples:
            assert triple in store
        assert store.remove(triples[0])
        assert triples[0] not in store


# --------------------------------------------------------------------------- #
# Term dictionary invariants
# --------------------------------------------------------------------------- #
_terms = st.one_of(_iris, _literals)


class TestTermDictionaryInvariants:
    @given(st.lists(_terms, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_intern_lookup_round_trip(self, terms):
        dictionary = TermDictionary()
        ids = [dictionary.encode(term) for term in terms]
        for term, tid in zip(terms, ids):
            assert dictionary.id_for(term) == tid
            assert dictionary.decode(tid) == term

    @given(st.lists(_terms, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_ids_are_dense_and_unique(self, terms):
        dictionary = TermDictionary()
        ids = {dictionary.encode(term) for term in terms}
        assert ids == set(range(len(set(terms))))
        assert len(dictionary) == len(set(terms))

    @given(st.lists(_triples, min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_ids_stable_across_remove_and_clear(self, triples):
        store = TripleStore(triples=triples)
        snapshot = {
            term: store.term_id(term)
            for triple in triples
            for term in (triple.subject, triple.predicate, triple.object)
        }
        assert all(tid is not None for tid in snapshot.values())
        store.remove(triples[0])
        for term, tid in snapshot.items():
            assert store.term_id(term) == tid
        store.clear()
        for term, tid in snapshot.items():
            assert store.term_id(term) == tid
            assert store.term_for_id(tid) == term

    @given(st.lists(_terms, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_kind_bytes_match_term_types(self, terms):
        dictionary = TermDictionary()
        for term in terms:
            tid = dictionary.encode(term)
            assert dictionary.is_literal_id(tid) == isinstance(term, Literal)
            assert dictionary.is_entity_id(tid) != isinstance(term, Literal)


# --------------------------------------------------------------------------- #
# sameAs union-find invariants
# --------------------------------------------------------------------------- #
class TestSameAsInvariants:
    @given(st.lists(st.tuples(_iris, _iris), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_transitivity(self, links):
        index = SameAsIndex(links)
        for left, right in links:
            assert index.are_same(left, right)
            assert index.are_same(right, left)
        # Transitivity: everything in one equivalence class is pairwise same.
        for cls in index.classes():
            members = sorted(cls, key=str)
            for first in members:
                for second in members:
                    assert index.are_same(first, second)

    @given(st.lists(st.tuples(_iris, _iris), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_to_triples_round_trip_preserves_classes(self, links):
        index = SameAsIndex(links)
        rebuilt = SameAsIndex.from_triples(index.to_triples())
        assert {frozenset(c) for c in index.classes()} == {
            frozenset(c) for c in rebuilt.classes()
        }


# --------------------------------------------------------------------------- #
# Similarity function properties
# --------------------------------------------------------------------------- #
class TestSimilarityProperties:
    @given(_simple_strings, _simple_strings)
    @settings(max_examples=100, deadline=None)
    def test_levenshtein_metric_properties(self, left, right):
        assert levenshtein_distance(left, right) == levenshtein_distance(right, left)
        assert levenshtein_distance(left, left) == 0
        assert levenshtein_distance(left, right) <= max(len(left), len(right))

    @given(_simple_strings, _simple_strings, _simple_strings)
    @settings(max_examples=60, deadline=None)
    def test_levenshtein_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= levenshtein_distance(a, b) + levenshtein_distance(b, c)

    @given(_simple_strings, _simple_strings)
    @settings(max_examples=100, deadline=None)
    def test_similarity_scores_in_unit_interval(self, left, right):
        for function in (levenshtein_similarity, jaro_winkler_similarity, ngram_similarity):
            score = function(left, right)
            assert 0.0 <= score <= 1.0

    @given(_simple_strings)
    @settings(max_examples=60, deadline=None)
    def test_identity_scores_one(self, text):
        assert levenshtein_similarity(text, text) == 1.0
        assert jaro_winkler_similarity(text, text) == 1.0 or text == ""


# --------------------------------------------------------------------------- #
# Confidence measure properties
# --------------------------------------------------------------------------- #
_evidence_records = st.lists(
    st.tuples(
        _iris,
        st.lists(_iris, max_size=4),   # premise objects
        st.lists(_iris, max_size=4),   # conclusion objects
    ),
    max_size=15,
)


class TestConfidenceProperties:
    @given(_evidence_records)
    @settings(max_examples=80, deadline=None)
    def test_confidences_bounded_and_ordered(self, raw_records):
        evidence = EvidenceSet()
        for index, (subject, premise_objects, conclusion_objects) in enumerate(raw_records):
            evidence.add(
                SubjectEvidence(
                    subject=EX[f"{subject.local_name}_{index}"],
                    premise_objects=list(dict.fromkeys(premise_objects)),
                    conclusion_objects=list(dict.fromkeys(conclusion_objects)),
                )
            )
        positives, cwa_pairs, pca_pairs = evidence.counts()
        assert 0 <= positives <= pca_pairs <= cwa_pairs
        cwa = cwa_confidence(positives, cwa_pairs)
        pca = pca_confidence(positives, pca_pairs)
        assert 0.0 <= cwa <= 1.0
        assert 0.0 <= pca <= 1.0
        # PCA never punishes missing conclusion subjects, so pca >= cwa.
        assert pca >= cwa - 1e-12

    @given(_evidence_records, _evidence_records)
    @settings(max_examples=40, deadline=None)
    def test_merge_is_commutative_on_counts(self, first_raw, second_raw):
        def build(raw, offset):
            evidence = EvidenceSet()
            for index, (subject, premise_objects, conclusion_objects) in enumerate(raw):
                evidence.add(
                    SubjectEvidence(
                        subject=EX[f"s{offset}_{index % 5}"],
                        premise_objects=list(dict.fromkeys(premise_objects)),
                        conclusion_objects=list(dict.fromkeys(conclusion_objects)),
                    )
                )
            return evidence

        left = build(first_raw, "a")
        right = build(second_raw, "b")
        assert left.merge(right).counts() == right.merge(left).counts()


# --------------------------------------------------------------------------- #
# Binding invariants
# --------------------------------------------------------------------------- #
_variables = st.sampled_from([Variable(name) for name in "abcdef"])
_bindings = st.dictionaries(_variables, _iris, max_size=5).map(Binding)


class TestBindingProperties:
    @given(_bindings, _bindings)
    @settings(max_examples=80, deadline=None)
    def test_merge_is_none_iff_conflicting(self, left, right):
        merged = left.merge(right)
        conflicting = any(
            left.get_term(variable) is not None
            and right.get_term(variable) is not None
            and left[variable] != right[variable]
            for variable in set(left) | set(right)
        )
        assert (merged is None) == conflicting
        if merged is not None:
            for variable in left:
                assert merged[variable] == left[variable]
            for variable in right:
                assert merged[variable] == right[variable]

    @given(_bindings, _variables, _iris)
    @settings(max_examples=80, deadline=None)
    def test_extend_never_mutates(self, binding, variable, value):
        size_before = len(binding)
        binding.extend(variable, value)
        assert len(binding) == size_before
