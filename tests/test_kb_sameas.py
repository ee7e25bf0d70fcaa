"""Unit tests for the sameAs equivalence index (union-find)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kb.sameas import SameAsIndex
from repro.rdf.namespace import OWL
from repro.rdf.terms import IRI, BlankNode, Literal
from repro.rdf.triple import Triple

from tests.conftest import EX, EX2


class TestLinks:
    def test_direct_link(self):
        index = SameAsIndex()
        index.add_link(EX.a, EX2.a)
        assert index.are_same(EX.a, EX2.a)
        assert index.are_same(EX2.a, EX.a)

    def test_identity_always_same(self):
        index = SameAsIndex()
        assert index.are_same(EX.a, EX.a)
        assert not index.are_same(EX.a, EX.b)

    def test_transitive_chain(self):
        index = SameAsIndex()
        index.add_link(EX.a, EX2.a)
        index.add_link(EX2.a, EX2.a_alias)
        assert index.are_same(EX.a, EX2.a_alias)

    def test_link_count_and_len(self):
        index = SameAsIndex([(EX.a, EX2.a), (EX.b, EX2.b)])
        assert index.link_count == 2
        assert len(index) == 4

    def test_duplicate_link_does_not_grow_classes(self):
        index = SameAsIndex()
        index.add_link(EX.a, EX2.a)
        index.add_link(EX.a, EX2.a)
        assert index.class_count() == 1
        assert len(index) == 2

    def test_literals_ignored(self):
        index = SameAsIndex()
        index.add_link(EX.a, Literal("x"))
        assert len(index) == 0

    def test_contains(self):
        index = SameAsIndex([(EX.a, EX2.a)])
        assert EX.a in index
        assert EX.zzz not in index


class TestClassesAndTranslation:
    def test_equivalence_class_and_equivalents(self):
        index = SameAsIndex([(EX.a, EX2.a), (EX2.a, EX2.a_alias)])
        assert index.equivalence_class(EX.a) == {EX.a, EX2.a, EX2.a_alias}
        assert index.equivalents(EX.a) == {EX2.a, EX2.a_alias}
        assert index.equivalence_class(EX.unknown) == {EX.unknown}

    def test_translate_to_namespace(self):
        index = SameAsIndex([(EX.a, EX2.a)])
        assert index.translate(EX.a, EX2) == EX2.a
        assert index.translate(EX2.a, EX) == EX.a

    def test_translate_identity_when_already_in_namespace(self):
        index = SameAsIndex()
        assert index.translate(EX.a, EX) == EX.a

    def test_translate_missing_returns_none(self):
        index = SameAsIndex([(EX.a, EX2.a)])
        assert index.translate(EX.b, EX2) is None

    def test_translate_deterministic_choice(self):
        index = SameAsIndex([(EX.a, EX2.zz), (EX.a, EX2.aa)])
        assert index.translate(EX.a, EX2) == EX2.aa

    def test_classes_and_class_count(self):
        index = SameAsIndex([(EX.a, EX2.a), (EX.b, EX2.b)])
        assert index.class_count() == 2
        assert all(len(cls) == 2 for cls in index.classes())


class TestConstructionAndExport:
    def test_from_triples(self, people_store):
        index = SameAsIndex.from_triples(iter(people_store))
        assert index.are_same(EX["Frank_Sinatra"], EX2["FrankSinatra"])
        assert index.class_count() == 2

    def test_to_triples_spanning_edges(self):
        index = SameAsIndex([(EX.a, EX2.a), (EX2.a, EX2.a_alias)])
        triples = index.to_triples()
        assert all(t.predicate == OWL.sameAs for t in triples)
        # A 3-member class is spanned by 2 edges.
        assert len(triples) == 2
        rebuilt = SameAsIndex.from_triples(triples)
        assert rebuilt.are_same(EX.a, EX2.a_alias)

    def test_restricted_to(self):
        index = SameAsIndex([(EX.a, EX2.a), (EX.b, EX2.b)])
        restricted = index.restricted_to([EX.a, EX2.a])
        assert restricted.are_same(EX.a, EX2.a)
        assert not restricted.are_same(EX.b, EX2.b)


def _entity(spec):
    """A fresh term object for ``(kind, n)``: equal terms are never the
    same object, as when they come out of separate query results."""
    kind, n = spec
    if kind == "blank":
        return BlankNode(f"b{n}")
    return IRI((EX if kind == "kb1" else EX2).base + f"e{n % 3}_{n}")


_SPECS = st.tuples(st.sampled_from(["kb1", "kb2", "blank"]), st.integers(0, 9))


def _oracle_class(links, entity):
    """The entities reachable from ``entity`` over the undirected links."""
    reached, frontier = {entity}, [entity]
    while frontier:
        current = frontier.pop()
        for left, right in links:
            for here, there in ((left, right), (right, left)):
                if here == current and there not in reached:
                    reached.add(there)
                    frontier.append(there)
    return reached


@given(
    links=st.lists(st.tuples(_SPECS, _SPECS), max_size=25),
    probes=st.lists(_SPECS, max_size=12),
)
@settings(max_examples=150, deadline=None)
def test_translate_matches_brute_force(links, probes):
    pairs = [(_entity(left), _entity(right)) for left, right in links]
    index = SameAsIndex(pairs)
    for spec in probes + [left for left, _ in links]:
        entity = _entity(spec)
        members = _oracle_class(pairs, entity)
        assert index.equivalence_class(entity) == members
        for namespace in (EX, EX2):
            inside = sorted(
                (m for m in members if isinstance(m, IRI) and m in namespace),
                key=lambda m: m.value,
            )
            if isinstance(entity, IRI) and entity in namespace:
                expected = entity
            else:
                expected = inside[0] if inside else None
            assert index.translate(entity, namespace) == expected
        for other in probes:
            other = _entity(other)
            assert index.are_same(entity, other) == (other in members)
