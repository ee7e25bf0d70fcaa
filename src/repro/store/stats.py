"""Per-predicate and store-wide statistics.

The statistics layer answers questions the alignment layer and the
synthetic data generator keep asking:

* how many facts does a relation have,
* how many distinct subjects / objects,
* what is its functionality (avg. facts per subject) — PARIS-style,
* is it an entity-entity or entity-literal relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List

from repro.rdf.terms import IRI, Literal
from repro.rdf.triple import Triple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store.dictionary import TermDictionary
    from repro.store.index import PermutationIndex


@dataclass
class PredicateStatistics:
    """Aggregate statistics for a single predicate."""

    predicate: IRI
    fact_count: int = 0
    distinct_subjects: int = 0
    distinct_objects: int = 0
    literal_object_count: int = 0

    @property
    def is_literal_valued(self) -> bool:
        """Whether the majority of the relation's objects are literals."""
        if self.fact_count == 0:
            return False
        return self.literal_object_count * 2 > self.fact_count

    @property
    def functionality(self) -> float:
        """PARIS-style functionality: ``#distinct subjects / #facts``.

        A value of 1.0 means each subject has exactly one object (a
        functional relation); values near 0 mean many objects per subject.
        Returns 0.0 for empty relations.
        """
        if self.fact_count == 0:
            return 0.0
        return self.distinct_subjects / self.fact_count

    @property
    def inverse_functionality(self) -> float:
        """``#distinct objects / #facts`` — functionality of the inverse."""
        if self.fact_count == 0:
            return 0.0
        return self.distinct_objects / self.fact_count

    @property
    def average_objects_per_subject(self) -> float:
        """Mean number of objects per distinct subject."""
        if self.distinct_subjects == 0:
            return 0.0
        return self.fact_count / self.distinct_subjects


@dataclass
class StoreStatistics:
    """Store-wide statistics snapshot."""

    triple_count: int = 0
    predicate_count: int = 0
    subject_count: int = 0
    object_count: int = 0
    predicates: Dict[IRI, PredicateStatistics] = field(default_factory=dict)

    def top_predicates(self, limit: int = 10) -> List[PredicateStatistics]:
        """The ``limit`` predicates with the most facts, descending."""
        ranked = sorted(self.predicates.values(), key=lambda s: s.fact_count, reverse=True)
        return ranked[:limit]


def predicate_statistics_from_index(
    dictionary: "TermDictionary",
    pos_index: "PermutationIndex",
    predicate: IRI,
    predicate_id: int,
) -> PredicateStatistics:
    """Compute one predicate's statistics purely in ID space.

    Works off the POS permutation (``predicate -> object -> subjects``), so
    fact/object/subject counts come from index bookkeeping and the literal
    tally from the dictionary's per-ID kind bytes — no
    :class:`~repro.rdf.terms.Term` is materialised.
    """
    literal_objects = 0
    for object_id, subject_ids in pos_index.items_for_key(predicate_id):
        if dictionary.is_literal_id(object_id):
            literal_objects += len(subject_ids)
    return PredicateStatistics(
        predicate=predicate,
        fact_count=pos_index.count_for_key(predicate_id),
        distinct_subjects=pos_index.distinct_third_count(predicate_id),
        distinct_objects=pos_index.second_count_for_key(predicate_id),
        literal_object_count=literal_objects,
    )


def compute_statistics(triples: Iterable[Triple]) -> StoreStatistics:
    """Compute a :class:`StoreStatistics` snapshot from raw triples.

    This is a single streaming pass; the store itself exposes a cheaper
    incremental version, but this function is handy for files and tests.
    """
    subjects_by_predicate: Dict[IRI, set] = {}
    objects_by_predicate: Dict[IRI, set] = {}
    facts_by_predicate: Dict[IRI, int] = {}
    literal_objects_by_predicate: Dict[IRI, int] = {}
    all_subjects = set()
    all_objects = set()
    total = 0

    for triple in triples:
        total += 1
        predicate = triple.predicate
        facts_by_predicate[predicate] = facts_by_predicate.get(predicate, 0) + 1
        subjects_by_predicate.setdefault(predicate, set()).add(triple.subject)
        objects_by_predicate.setdefault(predicate, set()).add(triple.object)
        if isinstance(triple.object, Literal):
            literal_objects_by_predicate[predicate] = (
                literal_objects_by_predicate.get(predicate, 0) + 1
            )
        all_subjects.add(triple.subject)
        all_objects.add(triple.object)

    stats = StoreStatistics(
        triple_count=total,
        predicate_count=len(facts_by_predicate),
        subject_count=len(all_subjects),
        object_count=len(all_objects),
    )
    for predicate, count in facts_by_predicate.items():
        stats.predicates[predicate] = PredicateStatistics(
            predicate=predicate,
            fact_count=count,
            distinct_subjects=len(subjects_by_predicate[predicate]),
            distinct_objects=len(objects_by_predicate[predicate]),
            literal_object_count=literal_objects_by_predicate.get(predicate, 0),
        )
    return stats
