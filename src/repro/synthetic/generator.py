"""Deterministic generation of synthetic KB pairs from a :class:`WorldSpec`."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import SyntheticDataError
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.sameas import SameAsIndex
from repro.shard.sharded_store import ShardedTripleStore
from repro.rdf.terms import IRI, Literal, Term
from repro.rdf.triple import Triple
from repro.synthetic.schema import (
    CanonicalRelation,
    GroundTruth,
    KBSpec,
    RelationMapping,
    WorldSpec,
)

#: Canonical fact objects are either entity identifiers or literal payloads.
CanonicalObject = Union[str, int, float]
CanonicalFact = Tuple[str, CanonicalObject]

_SYLLABLES = [
    "an", "bel", "cor", "dan", "el", "fa", "gor", "hil", "is", "jon",
    "kar", "lu", "mar", "nor", "ol", "pra", "qui", "ros", "sta", "tur",
    "ul", "vin", "wes", "xen", "yor", "zam",
]


def _stable_hash(text: str) -> int:
    """A process-independent hash (Python's ``hash`` is salted per run)."""
    value = 0
    for char in text:
        value = (value * 131 + ord(char)) % 1_000_000_007
    return value


def _entity_display_name(rng: random.Random) -> str:
    """A pronounceable two-word display name (used for literal values)."""
    def word() -> str:
        return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3))).capitalize()

    return f"{word()} {word()}"


@dataclass
class GeneratedWorld:
    """The output of the generator: two KBs, links, gold standard."""

    spec: WorldSpec
    kbs: Dict[str, KnowledgeBase]
    links: SameAsIndex
    ground_truth: GroundTruth
    canonical_facts: Dict[str, List[CanonicalFact]] = field(default_factory=dict)
    entities: Dict[str, List[str]] = field(default_factory=dict)

    def kb(self, name: str) -> KnowledgeBase:
        """Look up one of the generated KBs by name."""
        try:
            return self.kbs[name]
        except KeyError:
            raise SyntheticDataError(f"No generated KB named {name!r}") from None

    def kb_pair(self) -> Tuple[KnowledgeBase, KnowledgeBase]:
        """The two KBs in spec order."""
        first, second = self.spec.kb_specs
        return self.kb(first.name), self.kb(second.name)

    def names(self) -> Tuple[str, str]:
        """The two KB names in spec order."""
        first, second = self.spec.kb_specs
        return first.name, second.name

    def describe(self) -> str:
        """A short text summary (sizes, links, gold size)."""
        lines = []
        for name, kb in self.kbs.items():
            lines.append(
                f"{name}: {len(kb.store)} triples, {kb.relation_count()} relations"
            )
        lines.append(f"sameAs classes: {self.links.class_count()}")
        lines.append(f"gold subsumptions: {len(self.ground_truth)}")
        return "\n".join(lines)


class WorldGenerator:
    """Generates a :class:`GeneratedWorld` from a :class:`WorldSpec`.

    Generation is deterministic: the sequence of random draws depends only
    on the spec contents and its ``seed``.

    Parameters
    ----------
    spec:
        The world specification.
    shard_count:
        When set, each generated KB is backed by a
        :class:`~repro.shard.ShardedTripleStore` with that many
        subject-range shards (built shard-parallel through the columnar
        bulk loader) instead of a single :class:`TripleStore`.  The
        generated data, links and gold standard are identical either way
        — only the storage layout changes.
    """

    def __init__(self, spec: WorldSpec, shard_count: Optional[int] = None):
        if shard_count is not None and shard_count < 1:
            raise SyntheticDataError(f"shard_count must be >= 1, got {shard_count}")
        self.spec = spec
        self.shard_count = shard_count
        self._rng = random.Random(spec.seed)
        self._display_names: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    def generate(self) -> GeneratedWorld:
        """Run the full generation pipeline."""
        entities = self._generate_entities()
        canonical_facts = self._generate_canonical_facts(entities)
        kbs: Dict[str, KnowledgeBase] = {}
        used_entities: Dict[str, set] = {}
        for kb_spec in self.spec.kb_specs:
            kb, used = self._project_kb(kb_spec, canonical_facts, entities)
            kbs[kb_spec.name] = kb
            used_entities[kb_spec.name] = used
        links = self._generate_links(kbs, used_entities)
        return GeneratedWorld(
            spec=self.spec,
            kbs=kbs,
            links=links,
            ground_truth=self.spec.ground_truth(),
            canonical_facts=canonical_facts,
            entities=entities,
        )

    # ------------------------------------------------------------------ #
    # Canonical layer
    # ------------------------------------------------------------------ #
    def _generate_entities(self) -> Dict[str, List[str]]:
        entities: Dict[str, List[str]] = {}
        for entity_type in self.spec.entity_types:
            identifiers = [
                f"{entity_type.name}_{index:05d}" for index in range(entity_type.count)
            ]
            entities[entity_type.name] = identifiers
            for identifier in identifiers:
                self._display_names[identifier] = _entity_display_name(self._rng)
        return entities

    def _generate_canonical_facts(
        self, entities: Dict[str, List[str]]
    ) -> Dict[str, List[CanonicalFact]]:
        facts: Dict[str, List[CanonicalFact]] = {}
        for relation in self.spec.canonical_relations:
            facts[relation.name] = self._generate_relation_facts(relation, entities, facts)
        return facts

    def _generate_relation_facts(
        self,
        relation: CanonicalRelation,
        entities: Dict[str, List[str]],
        existing: Dict[str, List[CanonicalFact]],
    ) -> List[CanonicalFact]:
        subjects = entities[relation.subject_type]
        participating_count = max(1, int(round(len(subjects) * relation.subject_coverage)))
        participating = self._rng.sample(subjects, participating_count)

        base_objects_by_subject: Dict[str, List[CanonicalObject]] = {}
        if relation.correlated_with:
            for subject, obj in existing.get(relation.correlated_with, []):
                base_objects_by_subject.setdefault(subject, []).append(obj)

        facts: List[CanonicalFact] = []
        for subject in sorted(participating):
            object_count = self._rng.randint(relation.min_objects, relation.max_objects)
            chosen: List[CanonicalObject] = []
            for _ in range(object_count):
                obj = self._choose_object(
                    relation, subject, entities, base_objects_by_subject, chosen
                )
                if obj is not None:
                    chosen.append(obj)
            facts.extend((subject, obj) for obj in chosen)
        return facts

    def _choose_object(
        self,
        relation: CanonicalRelation,
        subject: str,
        entities: Dict[str, List[str]],
        base_objects_by_subject: Dict[str, List[CanonicalObject]],
        already_chosen: Sequence[CanonicalObject],
    ) -> Optional[CanonicalObject]:
        if relation.literal:
            return self._literal_value(relation, subject)

        # Correlated draw: reuse an object of the base relation.
        base_objects = base_objects_by_subject.get(subject, [])
        if base_objects and self._rng.random() < relation.correlation:
            candidate = self._rng.choice(base_objects)
            if candidate not in already_chosen:
                return candidate

        pool = entities[relation.object_type]
        for _ in range(8):
            candidate = self._rng.choice(pool)
            if candidate not in already_chosen:
                return candidate
        return None

    def _literal_value(self, relation: CanonicalRelation, subject: str) -> CanonicalObject:
        if relation.literal_kind == "name":
            return self._display_names[subject]
        if relation.literal_kind == "year":
            return 1900 + (_stable_hash(relation.name + subject) % 120)
        if relation.literal_kind == "number":
            return round(10 + (_stable_hash(relation.name + subject) % 10_000) / 13.7, 2)
        if relation.literal_kind == "code":
            # A name-like value salted by the relation so that different
            # canonical relations over the same subjects have disjoint
            # value spaces (unlike "name", which is a property of the
            # subject itself and therefore shared across relations).
            rng = random.Random(_stable_hash(relation.name + subject))
            return _entity_display_name(rng)
        raise SyntheticDataError(f"Unknown literal_kind {relation.literal_kind!r}")

    # ------------------------------------------------------------------ #
    # Projection into one KB
    # ------------------------------------------------------------------ #
    def _project_kb(
        self,
        kb_spec: KBSpec,
        canonical_facts: Dict[str, List[CanonicalFact]],
        entities: Dict[str, List[str]],
    ) -> Tuple[KnowledgeBase, set]:
        store = (
            ShardedTripleStore(num_shards=self.shard_count, name=kb_spec.name)
            if self.shard_count is not None
            else None
        )
        kb = KnowledgeBase(name=kb_spec.name, namespace=kb_spec.namespace, store=store)
        used_entities: set = set()
        # Facts stream into one bulk load, so the store takes its columnar
        # sort-once construction path instead of three index insertions
        # per fact, and each generated Triple is freed once it is interned
        # instead of piling up for the garbage collector to scan.
        kb.add_triples(
            self._kb_facts(kb_spec, canonical_facts, entities, used_entities)
        )
        return kb, used_entities

    def _kb_facts(
        self,
        kb_spec: KBSpec,
        canonical_facts: Dict[str, List[CanonicalFact]],
        entities: Dict[str, List[str]],
        used_entities: set,
    ) -> Iterator[Triple]:
        """The facts of one KB, in generation order."""
        for mapping in kb_spec.mappings:
            relation_iri = kb_spec.namespace.term(mapping.name)
            if mapping.is_noise:
                yield from self._noise_facts(
                    kb_spec, mapping, relation_iri, entities, used_entities
                )
                continue

            retention = (
                mapping.fact_retention
                if mapping.fact_retention is not None
                else kb_spec.fact_retention
            )
            merged: List[CanonicalFact] = []
            seen = set()
            for source in mapping.sources:
                for fact in canonical_facts[source]:
                    if fact not in seen:
                        seen.add(fact)
                        merged.append(fact)

            dropped_subjects: set = set()
            if kb_spec.retention_mode == "subject":
                # Subject-level incompleteness: the KB knows either all or
                # none of a subject's facts for this relation.
                for subject_id in sorted({subject for subject, _ in merged}):
                    if self._rng.random() > retention:
                        dropped_subjects.add(subject_id)

            is_literal = all(
                self.spec.canonical(source).literal for source in mapping.sources
            )
            for subject_id, obj in merged:
                if kb_spec.retention_mode == "subject":
                    if subject_id in dropped_subjects:
                        continue
                elif self._rng.random() > retention:
                    continue
                subject_iri = self._entity_iri(kb_spec, subject_id)
                used_entities.add(subject_id)
                if is_literal:
                    obj_term: Term = self._render_literal(kb_spec, obj)
                else:
                    obj_term = self._entity_iri(kb_spec, str(obj))
                    used_entities.add(str(obj))
                yield Triple(subject_iri, relation_iri, obj_term)
                if kb_spec.add_inverse_relations and not is_literal:
                    inverse_iri = kb_spec.namespace.term(f"inverseOf_{mapping.name}")
                    yield Triple(obj_term, inverse_iri, subject_iri)  # type: ignore[arg-type]

    def _noise_facts(
        self,
        kb_spec: KBSpec,
        mapping: RelationMapping,
        relation_iri: IRI,
        entities: Dict[str, List[str]],
        used_entities: set,
    ) -> Iterator[Triple]:
        subject_type = mapping.noise_subject_type or self.spec.entity_types[0].name
        object_type = mapping.noise_object_type or self.spec.entity_types[-1].name
        subjects = entities[subject_type]
        objects = entities[object_type]
        for _ in range(mapping.noise_fact_count):
            subject_id = self._rng.choice(subjects)
            subject_iri = self._entity_iri(kb_spec, subject_id)
            used_entities.add(subject_id)
            if mapping.literal:
                obj_term: Term = self._render_literal(
                    kb_spec, f"noise {self._rng.randint(0, 10_000)}"
                )
            else:
                object_id = self._rng.choice(objects)
                obj_term = self._entity_iri(kb_spec, object_id)
                used_entities.add(object_id)
            yield Triple(subject_iri, relation_iri, obj_term)

    # ------------------------------------------------------------------ #
    # Rendering helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _entity_iri(kb_spec: KBSpec, canonical_id: str) -> IRI:
        if kb_spec.entity_style == "plain":
            local = canonical_id
        elif kb_spec.entity_style == "prefixed":
            local = f"res_{canonical_id}"
        elif kb_spec.entity_style == "camel":
            local = "".join(part.capitalize() for part in canonical_id.split("_"))
        else:
            raise SyntheticDataError(f"Unknown entity_style {kb_spec.entity_style!r}")
        return kb_spec.namespace.term(local)

    def _render_literal(self, kb_spec: KBSpec, value: CanonicalObject) -> Literal:
        if isinstance(value, (int, float)):
            return Literal(value)
        text = str(value)
        if kb_spec.literal_style == "plain":
            return Literal(text)
        if kb_spec.literal_style == "underscore":
            return Literal(text.replace(" ", "_"))
        if kb_spec.literal_style == "upper":
            return Literal(text.upper())
        if kb_spec.literal_style == "lang-en":
            return Literal(text, language="en")
        raise SyntheticDataError(f"Unknown literal_style {kb_spec.literal_style!r}")

    # ------------------------------------------------------------------ #
    # sameAs links
    # ------------------------------------------------------------------ #
    def _generate_links(
        self, kbs: Dict[str, KnowledgeBase], used_entities: Dict[str, set]
    ) -> SameAsIndex:
        first_spec, second_spec = self.spec.kb_specs
        shared = sorted(used_entities[first_spec.name] & used_entities[second_spec.name])
        second_pool = sorted(used_entities[second_spec.name])
        links = SameAsIndex()
        for canonical_id in shared:
            if self._rng.random() > self.spec.link_rate:
                continue
            first_iri = self._entity_iri(first_spec, canonical_id)
            partner_id = canonical_id
            if self.spec.link_noise and self._rng.random() < self.spec.link_noise:
                # A wrong link: point to a different entity of the second KB
                # (same type when possible, so the mistake is plausible).
                entity_type = canonical_id.rsplit("_", 1)[0]
                same_type = [
                    identifier
                    for identifier in second_pool
                    if identifier.startswith(entity_type) and identifier != canonical_id
                ]
                if same_type:
                    partner_id = self._rng.choice(same_type)
            second_iri = self._entity_iri(second_spec, partner_id)
            links.add_link(first_iri, second_iri)
            # Also materialise the link in both stores so endpoint-side
            # sameAs queries work, the way DBpedia publishes its links.
            kbs[first_spec.name].add_same_as(first_iri, second_iri)
            kbs[second_spec.name].add_same_as(second_iri, first_iri)
        return links


def generate_world(
    spec: WorldSpec, shard_count: Optional[int] = None
) -> GeneratedWorld:
    """Convenience wrapper: ``WorldGenerator(spec, shard_count).generate()``.

    ``shard_count`` backs every generated KB with a sharded store (same
    data, subject-range-partitioned storage) — the preset build path of
    the endpoint-simulation benchmarks.
    """
    return WorldGenerator(spec, shard_count=shard_count).generate()
