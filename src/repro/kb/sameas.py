"""The sameAs equivalence index (the paper's set ``E``).

Implemented as a union-find (disjoint-set forest) with path compression so
that chains of ``sameAs`` links (A ≡ B, B ≡ C) put all three entities into
one equivalence class.  The index is direction-agnostic, matching
``owl:sameAs`` semantics.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.rdf.namespace import Namespace, SAME_AS
from repro.rdf.terms import IRI, Term, is_entity_term
from repro.rdf.triple import Triple


class SameAsIndex:
    """Union-find over entity identifiers linked by ``owl:sameAs``."""

    def __init__(self, links: Optional[Iterable[Tuple[Term, Term]]] = None):
        self._parent: Dict[Term, Term] = {}
        self._rank: Dict[Term, int] = {}
        self._members: Dict[Term, Set[Term]] = {}
        self._link_count = 0
        if links is not None:
            for left, right in links:
                self.add_link(left, right)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_triples(cls, triples: Iterable[Triple]) -> "SameAsIndex":
        """Build an index from the ``owl:sameAs`` triples of an iterable."""
        index = cls()
        for triple in triples:
            if triple.predicate == SAME_AS and is_entity_term(triple.object):
                index.add_link(triple.subject, triple.object)
        return index

    def add_link(self, left: Term, right: Term) -> None:
        """Record that ``left`` and ``right`` denote the same entity."""
        if not is_entity_term(left) or not is_entity_term(right):
            return
        self._link_count += 1
        root_left = self._find(left)
        root_right = self._find(right)
        if root_left is root_right:
            return
        # Union by rank.
        if self._rank[root_left] < self._rank[root_right]:
            root_left, root_right = root_right, root_left
        self._parent[root_right] = root_left
        if self._rank[root_left] == self._rank[root_right]:
            self._rank[root_left] += 1
        self._members[root_left].update(self._members.pop(root_right))

    def _find(self, entity: Term) -> Term:
        """The root of ``entity``'s class, adding ``entity`` if it is new."""
        node = self._parent.get(entity)
        if node is None:
            self._parent[entity] = entity
            self._rank[entity] = 0
            self._members[entity] = {entity}
            return entity
        return self._root(node)

    def _root(self, node: Term) -> Term:
        """The root above ``node``, a parent value, with path compression.

        Every parent value is the very key object of its target, and a
        root's parent is itself.  Starting from such a value, each lookup
        hits its key by identity and each step compares by identity, so
        the walk never runs ``Term.__eq__``.  The caller's own term is
        looked up once, by whoever fetched ``node``.
        """
        parent = self._parent
        root = node
        while parent[root] is not root:
            root = parent[root]
        while node is not root:
            parent[node], node = root, parent[node]
        return root

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Number of entities known to the index."""
        return len(self._parent)

    def __contains__(self, entity: object) -> bool:
        return entity in self._parent

    @property
    def link_count(self) -> int:
        """Number of ``add_link`` calls (raw links, not classes)."""
        return self._link_count

    def are_same(self, left: Term, right: Term) -> bool:
        """Whether the two entities are (transitively) linked.

        An entity is always the same as itself, even if it never appeared
        in a link.
        """
        if left == right:
            return True
        left_node = self._parent.get(left)
        right_node = self._parent.get(right)
        if left_node is None or right_node is None:
            return False
        return self._root(left_node) is self._root(right_node)

    def equivalence_class(self, entity: Term) -> Set[Term]:
        """All entities equivalent to ``entity`` (including itself)."""
        node = self._parent.get(entity)
        if node is None:
            return {entity}
        return set(self._members[self._root(node)])

    def equivalents(self, entity: Term) -> Set[Term]:
        """All entities equivalent to ``entity`` (excluding itself)."""
        cls = self.equivalence_class(entity)
        cls.discard(entity)
        return cls

    def translate(self, entity: Term, namespace: Namespace) -> Optional[Term]:
        """The equivalent of ``entity`` whose IRI lies in ``namespace``.

        Returns ``None`` when no equivalent lives in that namespace, and
        ``entity`` itself if it already does.  When several equivalents
        match, the lexicographically smallest is returned for determinism.
        """
        if isinstance(entity, IRI) and entity in namespace:
            return entity
        node = self._parent.get(entity)
        if node is None:
            return None
        # ``entity`` itself is outside ``namespace``, so walking the whole
        # class in place skips it without copying the member set; the
        # prefix test is ``Namespace.__contains__`` without a call per member.
        base = namespace.base
        best: Optional[IRI] = None
        for member in self._members[self._root(node)]:
            if isinstance(member, IRI):
                value = member.value
                if value.startswith(base) and (best is None or value < best.value):
                    best = member
        return best

    def classes(self) -> Iterator[Set[Term]]:
        """Iterate over all equivalence classes with at least two members."""
        for members in self._members.values():
            if len(members) > 1:
                yield set(members)

    def class_count(self) -> int:
        """Number of non-trivial equivalence classes."""
        return sum(1 for _ in self.classes())

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def to_triples(self) -> List[Triple]:
        """Materialise the index as ``owl:sameAs`` triples (spanning edges)."""
        triples: List[Triple] = []
        for members in self.classes():
            ordered = sorted(members, key=str)
            anchor = ordered[0]
            for other in ordered[1:]:
                triples.append(Triple(anchor, SAME_AS, other))  # type: ignore[arg-type]
        return triples

    def restricted_to(self, entities: Iterable[Term]) -> "SameAsIndex":
        """A new index keeping only links among the given entities."""
        allowed = set(entities)
        index = SameAsIndex()
        for members in self.classes():
            kept = sorted((m for m in members if m in allowed), key=str)
            for first, second in zip(kept, kept[1:]):
                index.add_link(first, second)
        return index
