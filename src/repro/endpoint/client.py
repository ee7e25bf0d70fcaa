"""Typed convenience client for the query shapes SOFYA issues.

The alignment layer never builds SPARQL strings itself; it goes through
:class:`EndpointClient`, which turns typed calls (``facts_of_subject``,
``relations_between`` ...) into SPARQL text, runs them through the
endpoint (so policies and accounting apply) and converts results back to
RDF terms.  Keeping this in one place also makes the query-count
benchmarks easy to interpret.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.rdf.ntriples import term_to_ntriples
from repro.rdf.namespace import SAME_AS
from repro.rdf.terms import IRI, Literal, Term
from repro.sparql.bindings import Variable
from repro.sparql.results import ResultSet
from repro.endpoint.endpoint import SparqlEndpoint


def _nt(term: Term) -> str:
    """Render a term for embedding into SPARQL text."""
    return term_to_ntriples(term)


def _nt_values(terms: Sequence[Term]) -> str:
    """Render a VALUES item list, serialising each distinct term once.

    Batched helpers are called with samples that repeat terms (the same
    subject appears in several pairs, sampling with replacement, ...);
    memoising per batch keeps the query-text cost proportional to the
    number of *distinct* terms.
    """
    memo: dict = {}
    parts = []
    for term in terms:
        rendered = memo.get(term)
        if rendered is None:
            rendered = memo[term] = term_to_ntriples(term)
        parts.append(rendered)
    return " ".join(parts)


def _nt_value_pairs(pairs: Sequence[Tuple[Term, Term]]) -> str:
    """Render ``(s o)`` VALUES rows, serialising each distinct term once."""
    memo: dict = {}
    parts = []
    for subject, obj in pairs:
        left = memo.get(subject)
        if left is None:
            left = memo[subject] = term_to_ntriples(subject)
        right = memo.get(obj)
        if right is None:
            right = memo[obj] = term_to_ntriples(obj)
        parts.append(f"({left} {right})")
    return " ".join(parts)


#: ``owl:sameAs`` rendered once at import time — it appears in every
#: sameAs-shaped query the aligner issues.
_SAME_AS_NT = term_to_ntriples(SAME_AS)

#: Result variables read back from every row, built once: the
#: constructor validates the name on each call.
_S = Variable("s")
_P = Variable("p")
_O = Variable("o")
_X = Variable("x")
_Y1 = Variable("y1")
_Y2 = Variable("y2")


def _paging_clause(limit: Optional[int], offset: int) -> str:
    """Render LIMIT/OFFSET in the SPARQL grammar's canonical order.

    The LimitOffsetClauses production puts ``LIMIT`` before ``OFFSET``;
    semantics are order-independent (the offset is always applied first),
    but emitting the canonical order keeps the generated text valid for
    strict remote endpoints.
    """
    clause = ""
    if limit is not None:
        clause += f" LIMIT {int(limit)}"
    if offset:
        clause += f" OFFSET {int(offset)}"
    return clause


class EndpointClient:
    """High-level query helpers over one :class:`SparqlEndpoint`."""

    def __init__(self, endpoint: SparqlEndpoint):
        self.endpoint = endpoint

    def __repr__(self) -> str:
        return f"EndpointClient({self.endpoint.name!r})"

    @property
    def name(self) -> str:
        """The wrapped endpoint's name."""
        return self.endpoint.name

    # ------------------------------------------------------------------ #
    # Relation-level queries
    # ------------------------------------------------------------------ #
    def relations(self, limit: Optional[int] = None) -> List[IRI]:
        """Distinct predicates of the dataset (optionally capped).

        Public endpoints expose this cheaply; under a no-full-scan policy
        the caller should rely on dataset metadata instead.
        """
        query = "SELECT DISTINCT ?p WHERE { ?s ?p ?o }"
        if limit is not None:
            query += f" LIMIT {int(limit)}"
        result = self.endpoint.select(query)
        return [term for term in result.distinct_column(_P) if isinstance(term, IRI)]

    def count_facts(self, relation: IRI) -> int:
        """Number of facts of ``relation``."""
        query = f"SELECT (COUNT(*) AS ?c) WHERE {{ ?s {_nt(relation)} ?o }}"
        return self.endpoint.select(query).scalar_int()

    def count_subjects(self, relation: IRI) -> int:
        """Number of distinct subjects of ``relation``."""
        query = f"SELECT (COUNT(DISTINCT ?s) AS ?c) WHERE {{ ?s {_nt(relation)} ?o }}"
        return self.endpoint.select(query).scalar_int()

    def facts(
        self, relation: IRI, limit: Optional[int] = None, offset: int = 0
    ) -> List[Tuple[Term, Term]]:
        """``(subject, object)`` pairs of ``relation`` with LIMIT/OFFSET paging."""
        query = f"SELECT ?s ?o WHERE {{ ?s {_nt(relation)} ?o }}"
        query += _paging_clause(limit, offset)
        result = self.endpoint.select(query)
        pairs: List[Tuple[Term, Term]] = []
        for row in result:
            subject = row.get_term(_S)
            obj = row.get_term(_O)
            if subject is not None and obj is not None:
                pairs.append((subject, obj))
        return pairs

    def subjects(
        self, relation: IRI, limit: Optional[int] = None, offset: int = 0
    ) -> List[Term]:
        """Distinct subjects of ``relation`` with LIMIT/OFFSET paging."""
        query = f"SELECT DISTINCT ?s WHERE {{ ?s {_nt(relation)} ?o }}"
        query += _paging_clause(limit, offset)
        return [t for t in self.endpoint.select(query).distinct_column(_S) if t is not None]

    # ------------------------------------------------------------------ #
    # Entity-level queries
    # ------------------------------------------------------------------ #
    def objects_of(self, subject: Term, relation: IRI) -> List[Term]:
        """All objects ``o`` with ``relation(subject, o)``."""
        query = f"SELECT ?o WHERE {{ {_nt(subject)} {_nt(relation)} ?o }}"
        return [t for t in self.endpoint.select(query).column(_O) if t is not None]

    def has_fact(self, subject: Term, relation: IRI, obj: Term) -> bool:
        """ASK whether the fact ``relation(subject, obj)`` holds."""
        query = f"ASK {{ {_nt(subject)} {_nt(relation)} {_nt(obj)} }}"
        return self.endpoint.ask(query)

    def subject_has_relation(self, subject: Term, relation: IRI) -> bool:
        """ASK whether ``subject`` has *any* ``relation`` fact."""
        query = f"ASK {{ {_nt(subject)} {_nt(relation)} ?o }}"
        return self.endpoint.ask(query)

    def relations_of_subject(self, subject: Term) -> List[IRI]:
        """Distinct relations for which ``subject`` has at least one fact."""
        query = f"SELECT DISTINCT ?p WHERE {{ {_nt(subject)} ?p ?o }}"
        return [t for t in self.endpoint.select(query).distinct_column(_P) if isinstance(t, IRI)]

    def relations_between(self, subject: Term, obj: Term) -> List[IRI]:
        """Distinct relations ``p`` such that ``p(subject, obj)`` holds."""
        query = f"SELECT DISTINCT ?p WHERE {{ {_nt(subject)} ?p {_nt(obj)} }}"
        return [t for t in self.endpoint.select(query).distinct_column(_P) if isinstance(t, IRI)]

    def relations_between_batch(
        self, pairs: Sequence[Tuple[Term, Term]]
    ) -> List[Tuple[Term, IRI, Term]]:
        """Relations holding between each of several ``(subject, object)`` pairs.

        One VALUES query covers the whole batch, so probing k translated
        sample facts for candidate relations costs a single endpoint query.
        """
        if not pairs:
            return []
        values = _nt_value_pairs(pairs)
        query = f"SELECT ?s ?p ?o WHERE {{ VALUES (?s ?o) {{ {values} }} ?s ?p ?o }}"
        result = self.endpoint.select(query)
        matches: List[Tuple[Term, IRI, Term]] = []
        for row in result:
            subject = row.get_term(_S)
            predicate = row.get_term(_P)
            obj = row.get_term(_O)
            if subject is not None and isinstance(predicate, IRI) and obj is not None:
                matches.append((subject, predicate, obj))
        return matches

    def describe_subjects(
        self, subjects: Sequence[Term]
    ) -> List[Tuple[Term, IRI, Term]]:
        """All ``(subject, predicate, object)`` facts of the given subjects.

        A single VALUES query returning the full "entity description" of
        each sampled subject — the workhorse of candidate discovery for
        entity-literal relations where objects cannot be joined via sameAs.
        """
        if not subjects:
            return []
        values = _nt_values(subjects)
        query = f"SELECT ?s ?p ?o WHERE {{ VALUES ?s {{ {values} }} ?s ?p ?o }}"
        result = self.endpoint.select(query)
        facts: List[Tuple[Term, IRI, Term]] = []
        for row in result:
            subject = row.get_term(_S)
            predicate = row.get_term(_P)
            obj = row.get_term(_O)
            if subject is not None and isinstance(predicate, IRI) and obj is not None:
                facts.append((subject, predicate, obj))
        return facts

    def disagreement_samples(
        self,
        primary: IRI,
        sibling: IRI,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> List[Tuple[Term, Term, Term]]:
        """Subjects where ``primary`` and ``sibling`` have different objects.

        Returns ``(x, y1, y2)`` with ``primary(x, y1)``, ``sibling(x, y2)``,
        ``y1 != y2`` and ``not primary(x, y2)`` — exactly the unbiased
        sample shape of the paper's UBS strategy (§2.2).
        """
        query = (
            "SELECT ?x ?y1 ?y2 WHERE { "
            f"?x {_nt(primary)} ?y1 . ?x {_nt(sibling)} ?y2 . "
            "FILTER(?y1 != ?y2) "
            f"FILTER NOT EXISTS {{ ?x {_nt(primary)} ?y2 }} }}"
        )
        query += _paging_clause(limit, offset)
        result = self.endpoint.select(query)
        samples: List[Tuple[Term, Term, Term]] = []
        for row in result:
            x = row.get_term(_X)
            y1 = row.get_term(_Y1)
            y2 = row.get_term(_Y2)
            if x is not None and y1 is not None and y2 is not None:
                samples.append((x, y1, y2))
        return samples

    def facts_of_subjects(
        self, subjects: Sequence[Term], relation: IRI
    ) -> List[Tuple[Term, Term]]:
        """All ``relation`` facts whose subject is in ``subjects``.

        Issued as a single VALUES query so that a sample of k subjects
        costs one endpoint query, matching the paper's "the same query
        extracts the actual facts where the sample entities occur".
        """
        if not subjects:
            return []
        values = _nt_values(subjects)
        query = (
            f"SELECT ?s ?o WHERE {{ VALUES ?s {{ {values} }} ?s {_nt(relation)} ?o }}"
        )
        result = self.endpoint.select(query)
        pairs: List[Tuple[Term, Term]] = []
        for row in result:
            subject = row.get_term(_S)
            obj = row.get_term(_O)
            if subject is not None and obj is not None:
                pairs.append((subject, obj))
        return pairs

    # ------------------------------------------------------------------ #
    # sameAs queries
    # ------------------------------------------------------------------ #
    def same_as(self, entity: Term) -> List[Term]:
        """Entities linked to ``entity`` by ``owl:sameAs`` (either direction)."""
        entity_nt = _nt(entity)
        query = (
            "SELECT DISTINCT ?x WHERE { "
            f"{{ {entity_nt} {_SAME_AS_NT} ?x }} UNION {{ ?x {_SAME_AS_NT} {entity_nt} }}"
            " }"
        )
        return [t for t in self.endpoint.select(query).distinct_column(_X) if t is not None]

    def same_as_for_subjects(self, subjects: Sequence[Term]) -> List[Tuple[Term, Term]]:
        """Batched sameAs lookup for several entities in one query."""
        if not subjects:
            return []
        values = _nt_values(subjects)
        query = (
            f"SELECT ?s ?x WHERE {{ VALUES ?s {{ {values} }} "
            f"{{ ?s {_SAME_AS_NT} ?x }} UNION {{ ?x {_SAME_AS_NT} ?s }} }}"
        )
        result = self.endpoint.select(query)
        pairs: List[Tuple[Term, Term]] = []
        for row in result:
            subject = row.get_term(_S)
            other = row.get_term(_X)
            if subject is not None and other is not None:
                pairs.append((subject, other))
        return pairs

    # ------------------------------------------------------------------ #
    # Sampling support
    # ------------------------------------------------------------------ #
    def sample_subjects(
        self, relation: IRI, sample_size: int, offset: int = 0
    ) -> List[Term]:
        """A page of distinct subjects of ``relation`` used as a sample.

        The caller (the sampler) chooses the offset pseudo-randomly; the
        endpoint sees a plain paged query, the way a live endpoint would.
        """
        return self.subjects(relation, limit=sample_size, offset=offset)

    def literal_objects(self, subject: Term, relation: IRI) -> List[Literal]:
        """Literal-valued objects of ``relation`` for ``subject``."""
        query = (
            f"SELECT ?o WHERE {{ {_nt(subject)} {_nt(relation)} ?o FILTER(ISLITERAL(?o)) }}"
        )
        return [
            t
            for t in self.endpoint.select(query).column(_O)
            if isinstance(t, Literal)
        ]
