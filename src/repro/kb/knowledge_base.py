"""The :class:`KnowledgeBase` facade."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.endpoint.client import EndpointClient
from repro.endpoint.endpoint import SparqlEndpoint
from repro.endpoint.policy import AccessPolicy
from repro.errors import SnapshotCorruptError, StoreError
from repro.rdf.namespace import Namespace, SAME_AS
from repro.rdf.terms import IRI, Term
from repro.rdf.triple import Triple
from repro.kb.relation import RelationInfo, RelationKind
from repro.shard.sharded_store import ShardedTripleStore
from repro.sparql.scatter import ShardedQueryEvaluator
from repro.store.triplestore import TripleStore


class KnowledgeBase:
    """A named dataset: triple store + entity namespace + relation catalogue.

    The class is used in two roles:

    * by the *synthetic data generator* and the *examples* to build and
      inspect datasets locally;
    * by the *experiments* to mint SPARQL endpoints (:meth:`endpoint`)
      which are then the only thing the aligner sees.

    Parameters
    ----------
    name:
        Dataset name, e.g. ``"yago"`` or ``"dbpedia"``.
    namespace:
        The namespace in which the KB's entities and relations are minted.
    store:
        Optional pre-populated store; a fresh empty one by default.
    """

    def __init__(
        self,
        name: str,
        namespace: Namespace,
        store: Optional[TripleStore] = None,
    ):
        self.name = name
        self.namespace = namespace
        self.store = store if store is not None else TripleStore(name=name)
        self._relation_cache: Optional[Dict[IRI, RelationInfo]] = None

    def __repr__(self) -> str:
        return f"KnowledgeBase(name={self.name!r}, triples={len(self.store)})"

    def __len__(self) -> int:
        return len(self.store)

    # ------------------------------------------------------------------ #
    # Snapshot persistence
    # ------------------------------------------------------------------ #
    def save(self, directory: Union[str, Path]) -> None:
        """Persist the KB as a snapshot directory.

        Writes ``kb.json`` (name + namespace + store layout) next to the
        store snapshot: a single ``store.snap`` file for a plain
        :class:`TripleStore`, or a ``store/`` sharded snapshot directory
        for a :class:`~repro.shard.ShardedTripleStore`.  Reopen with
        :meth:`KnowledgeBase.open`.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        sharded = isinstance(self.store, ShardedTripleStore)
        if sharded:
            self.store.save(directory / "store")
        else:
            self.store.save(directory / "store.snap")
        meta = {
            "format": "repro-kb",
            "version": 1,
            "name": self.name,
            "namespace": self.namespace.base,
            "sharded": sharded,
            "store": "store" if sharded else "store.snap",
        }
        (directory / "kb.json").write_text(
            json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        mmap: bool = True,
        verify: bool = True,
    ) -> "KnowledgeBase":
        """Reopen a KB snapshot written by :meth:`save`.

        The store comes back cold (mmap-backed by default): queries,
        endpoints and the relation catalogue work immediately without a
        rebuild, and mutations go to the index overlays like on a built
        store.
        """
        directory = Path(directory)
        try:
            meta = json.loads((directory / "kb.json").read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as error:
            raise SnapshotCorruptError(f"KB metadata unparsable: {error}") from None
        if not isinstance(meta, dict) or meta.get("format") != "repro-kb":
            raise SnapshotCorruptError("Not a KB snapshot directory")
        if meta.get("version") != 1:
            raise SnapshotCorruptError(
                f"Unsupported KB snapshot version: {meta.get('version')!r}"
            )
        namespace = meta.get("namespace")
        if not isinstance(namespace, str) or not namespace:
            raise SnapshotCorruptError("KB metadata has no namespace")
        store_path = directory / meta.get("store", "store.snap")
        if meta.get("sharded"):
            store: TripleStore = ShardedTripleStore.open(
                store_path, mmap=mmap, verify=verify
            )
        else:
            store = TripleStore.open(store_path, mmap=mmap, verify=verify)
        return cls(
            name=meta.get("name", "kb"),
            namespace=Namespace(namespace),
            store=store,
        )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def entity(self, local_name: str) -> IRI:
        """Mint an entity IRI in this KB's namespace."""
        return self.namespace.term(local_name)

    def relation(self, local_name: str) -> IRI:
        """Mint a relation IRI in this KB's namespace."""
        return self.namespace.term(local_name)

    def add_fact(self, subject: Term, predicate: IRI, obj: Term) -> bool:
        """Add one fact; returns whether the store changed."""
        self._relation_cache = None
        return self.store.add(Triple(subject, predicate, obj))

    def add_triples(self, triples: Iterable[Triple]) -> int:
        """Bulk-add triples (columnar fast path); returns the number inserted."""
        self._relation_cache = None
        return self.store.bulk_load(triples)

    def add_same_as(self, local_entity: Term, remote_entity: Term) -> bool:
        """Record an ``owl:sameAs`` link from one of this KB's entities."""
        return self.add_fact(local_entity, SAME_AS, remote_entity)

    # ------------------------------------------------------------------ #
    # Relation catalogue
    # ------------------------------------------------------------------ #
    def relations(self, include_same_as: bool = False) -> List[RelationInfo]:
        """The KB's relation catalogue, computed from the store.

        ``owl:sameAs`` is excluded by default because it is an inter-KB
        linking predicate, not a domain relation to be aligned.
        """
        catalogue = self._relation_catalogue()
        relations = list(catalogue.values())
        if not include_same_as:
            relations = [info for info in relations if info.iri != SAME_AS]
        return sorted(relations, key=lambda info: info.iri.value)

    def relation_info(self, relation: IRI) -> RelationInfo:
        """Catalogue entry for one relation.

        Raises
        ------
        StoreError
            If the relation has no facts in this KB.
        """
        catalogue = self._relation_catalogue()
        try:
            return catalogue[relation]
        except KeyError:
            raise StoreError(f"KB {self.name!r} has no facts for relation {relation}") from None

    def has_relation(self, relation: IRI) -> bool:
        """Whether the KB contains at least one fact of ``relation``."""
        return relation in self._relation_catalogue()

    def relation_count(self) -> int:
        """Number of distinct domain relations (excludes ``owl:sameAs``)."""
        return len(self.relations())

    def _relation_catalogue(self) -> Dict[IRI, RelationInfo]:
        if self._relation_cache is None:
            catalogue: Dict[IRI, RelationInfo] = {}
            statistics = self.store.statistics()
            for predicate, stats in statistics.predicates.items():
                kind = (
                    RelationKind.ENTITY_LITERAL
                    if stats.is_literal_valued
                    else RelationKind.ENTITY_ENTITY
                )
                catalogue[predicate] = RelationInfo(
                    iri=predicate,
                    kind=kind,
                    fact_count=stats.fact_count,
                    functionality=stats.functionality,
                )
            self._relation_cache = catalogue
        return self._relation_cache

    # ------------------------------------------------------------------ #
    # Entity helpers
    # ------------------------------------------------------------------ #
    def contains_entity(self, entity: Term) -> bool:
        """Whether the entity occurs in subject or object position."""
        if self.store.has_subject(entity):
            return True
        return any(True for _ in self.store.match(object=entity))

    def entities(self) -> Iterator[Term]:
        """All entities of the KB (IRIs and blank nodes)."""
        return iter(self.store.entities())

    def same_as_links(self) -> Iterator[Triple]:
        """All ``owl:sameAs`` triples stored in this KB."""
        return self.store.match(predicate=SAME_AS)

    # ------------------------------------------------------------------ #
    # Endpoint views
    # ------------------------------------------------------------------ #
    def endpoint(
        self, policy: Optional[AccessPolicy] = None, name: Optional[str] = None
    ) -> SparqlEndpoint:
        """Expose the KB as a SPARQL endpoint with the given access policy.

        A KB backed by a :class:`~repro.shard.ShardedTripleStore` is
        served through the scatter/gather evaluator automatically.
        """
        factory = (
            ShardedQueryEvaluator
            if isinstance(self.store, ShardedTripleStore)
            else None
        )
        return SparqlEndpoint(
            self.store,
            name=name or f"{self.name}-endpoint",
            policy=policy,
            evaluator_factory=factory,
        )

    def client(
        self, policy: Optional[AccessPolicy] = None, name: Optional[str] = None
    ) -> EndpointClient:
        """Shortcut for ``EndpointClient(self.endpoint(policy))``."""
        return EndpointClient(self.endpoint(policy=policy, name=name))
