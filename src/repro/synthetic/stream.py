"""Streaming generation of large-scale synthetic worlds.

The spec-driven generator in :mod:`repro.synthetic.generator` materialises
one :class:`~repro.rdf.triple.Triple` per fact before loading, which is
fine at the 10^4–10^5 triples of the alignment worlds but prohibitive at
the 10^7 scale the endpoint benchmarks want.  This module takes the other
route: it interns the (comparatively small) term vocabulary once, then
draws dictionary **ID columns** directly — in fixed-size chunks, with no
per-fact Python objects — and hands them straight to the columnar bulk
loaders (:meth:`TripleStore.from_id_columns` /
:meth:`ShardedTripleStore.from_id_columns`).

Draws are produced by a counter-based splitmix64 hash rather than a
stateful RNG, so generation is

* **deterministic** — the columns depend only on the spec contents and
  its seed, never on chunk size or backend, and
* **reproducible by hand** — every draw is one integer hash mapped
  through correctly-rounded float64 arithmetic, so a scalar loop over
  :func:`_splitmix64` reproduces the vectorised columns byte for byte
  (the generator tests keep such a loop as their oracle).

Predicates are drawn from a Zipf-like skewed distribution so the worlds
have a few heavy predicates (dense joins) and a long selective tail —
the shape the join-kernel benchmarks care about.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import SyntheticDataError
from repro.rdf.namespace import Namespace
from repro.store.dictionary import TermDictionary
from repro.store.triplestore import TripleStore
from repro.shard.sharded_store import ShardedTripleStore

#: Rows drawn per chunk; bounds the working set independent of world size.
CHUNK_ROWS = 1 << 20

#: Named world sizes of the scale benchmark family.
SCALE_PRESETS: Dict[str, int] = {
    "13k": 13_700,
    "100k": 100_000,
    "1m": 1_000_000,
    "10m": 10_000_000,
}

_MASK64 = (1 << 64) - 1


# --------------------------------------------------------------------- #
# Counter-based hashing (splitmix64)
# --------------------------------------------------------------------- #
def _splitmix64(value: int) -> int:
    """One splitmix64 round over a 64-bit value (pure-Python scalar)."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _splitmix64_np(values):
    """Vectorised splitmix64 over a uint64 array (wrapping arithmetic)."""
    z = values + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _stream_base(seed: int, column: int) -> int:
    """The per-column hash base: columns are independent splitmix64 streams."""
    return _splitmix64(((seed & _MASK64) * 3 + column) & _MASK64)


# --------------------------------------------------------------------- #
# Spec
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScaleWorldSpec:
    """A self-contained description of one streamed world.

    Two specs with equal fields always produce identical stores; the
    world cache keys its entries on a hash of :meth:`canonical_dict`.

    ``triples`` is the number of *drawn* facts; the store deduplicates,
    so the loaded store can be marginally smaller (collisions are rare
    while ``entities**2 * predicates >> triples``).
    """

    name: str
    triples: int
    entities: int
    predicates: int = 24
    predicate_skew: float = 0.9
    seed: int = 2016

    def __post_init__(self) -> None:
        if self.triples < 1:
            raise SyntheticDataError(f"triples must be >= 1, got {self.triples}")
        if self.entities < 2:
            raise SyntheticDataError(f"entities must be >= 2, got {self.entities}")
        if self.predicates < 1:
            raise SyntheticDataError(f"predicates must be >= 1, got {self.predicates}")
        if self.predicate_skew < 0:
            raise SyntheticDataError(
                f"predicate_skew must be >= 0, got {self.predicate_skew}"
            )

    @property
    def namespace(self) -> Namespace:
        """The namespace all of the world's terms live in."""
        return Namespace(f"http://sofya.repro/scale/{self.name}/")

    def canonical_dict(self) -> Dict[str, Union[str, int, float]]:
        """The spec as a plain dict with stable key order (cache identity)."""
        return {
            "name": self.name,
            "triples": self.triples,
            "entities": self.entities,
            "predicates": self.predicates,
            "predicate_skew": self.predicate_skew,
            "seed": self.seed,
        }

    def predicate_thresholds(self) -> List[float]:
        """Cumulative draw thresholds of the Zipf-like predicate weights."""
        weights = [1.0 / (rank + 1) ** self.predicate_skew for rank in range(self.predicates)]
        total = sum(weights)
        thresholds: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            thresholds.append(running)
        thresholds[-1] = 1.0
        return thresholds


def scale_world_spec(size: Union[str, int] = "100k", *, seed: int = 2016) -> ScaleWorldSpec:
    """A preset :class:`ScaleWorldSpec` for a named (or explicit) size.

    ``size`` is one of :data:`SCALE_PRESETS` (``"13k"``, ``"100k"``,
    ``"1m"``, ``"10m"``) or an explicit triple count.  Entity count
    scales as ``triples // 8`` so the average entity degree — and with
    it the join fan-out the kernels face — stays constant across sizes.
    """
    if isinstance(size, str):
        key = size.lower()
        if key not in SCALE_PRESETS:
            known = ", ".join(sorted(SCALE_PRESETS))
            raise SyntheticDataError(f"Unknown scale preset {size!r} (known: {known})")
        triples = SCALE_PRESETS[key]
        name = f"scale-{key}"
    else:
        triples = int(size)
        name = f"scale-{triples}"
    return ScaleWorldSpec(
        name=name,
        triples=triples,
        entities=max(64, triples // 8),
        seed=seed,
    )


# --------------------------------------------------------------------- #
# Generation
# --------------------------------------------------------------------- #
@dataclass
class ScaleWorld:
    """The output of :func:`generate_scale_world`."""

    spec: ScaleWorldSpec
    store: Union[TripleStore, ShardedTripleStore]
    dictionary: TermDictionary
    build_seconds: float = 0.0

    @property
    def triples(self) -> int:
        """Distinct triples actually loaded (after dedupe)."""
        return len(self.store)

    def describe(self) -> str:
        """A short text summary (size, rate)."""
        rate = self.triples / self.build_seconds if self.build_seconds else 0.0
        return (
            f"{self.spec.name}: {self.triples} triples, "
            f"{len(self.dictionary)} terms, {self.build_seconds:.2f}s "
            f"({rate:,.0f} triples/s)"
        )


def _intern_vocabulary(
    spec: ScaleWorldSpec, dictionary: TermDictionary
) -> Tuple[array, array]:
    """Intern the world's entity and predicate IRIs, returning their ID columns."""
    namespace = spec.namespace
    entity_ids = array(
        "q", (dictionary.encode(namespace.term(f"e{index}")) for index in range(spec.entities))
    )
    predicate_ids = array(
        "q", (dictionary.encode(namespace.term(f"p{index}")) for index in range(spec.predicates))
    )
    return entity_ids, predicate_ids


def _draw_columns_np(spec: ScaleWorldSpec, entity_ids: array, predicate_ids: array):
    """Chunked vectorised draw of the three ID columns."""
    entities = np.frombuffer(entity_ids, dtype=np.int64)
    predicates = np.frombuffer(predicate_ids, dtype=np.int64)
    thresholds = np.asarray(spec.predicate_thresholds(), dtype=np.float64)
    bases = [np.uint64(_stream_base(spec.seed, column)) for column in range(3)]
    top = np.int64(spec.predicates - 1)

    subjects = np.empty(spec.triples, dtype=np.int64)
    predicate_col = np.empty(spec.triples, dtype=np.int64)
    objects = np.empty(spec.triples, dtype=np.int64)
    for start in range(0, spec.triples, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, spec.triples)
        counter = np.arange(start, stop, dtype=np.uint64)
        s_hash = _splitmix64_np(counter + bases[0])
        p_hash = _splitmix64_np(counter + bases[1])
        o_hash = _splitmix64_np(counter + bases[2])
        subjects[start:stop] = entities[
            (s_hash % np.uint64(spec.entities)).astype(np.int64)
        ]
        objects[start:stop] = entities[
            (o_hash % np.uint64(spec.entities)).astype(np.int64)
        ]
        # uint64 -> float64 rounds to nearest; dividing by the exact power
        # of two then matches pure-Python `hash / 2**64` bit-for-bit.
        uniform = p_hash.astype(np.float64) / 2.0**64
        slots = np.minimum(
            np.searchsorted(thresholds, uniform, side="right"), top
        )
        predicate_col[start:stop] = predicates[slots]
    return subjects, predicate_col, objects


def generate_scale_world(
    spec: ScaleWorldSpec,
    *,
    dictionary: Optional[TermDictionary] = None,
    shard_count: Optional[int] = None,
    processes: Optional[int] = None,
    start_method: Optional[str] = None,
) -> ScaleWorld:
    """Generate ``spec``'s world through the streaming ID-column path.

    Terms are interned once, the three ID columns are drawn in
    :data:`CHUNK_ROWS` chunks, and the store is assembled by the
    columnar bulk loader — no per-fact ``Triple`` objects exist at any
    point, so the loaded store starts frozen.

    Parameters
    ----------
    dictionary:
        Intern into an existing dictionary instead of a fresh one.
    shard_count:
        When set, build a subject-range :class:`ShardedTripleStore`
        with that many shards instead of a single store (same content).
    processes / start_method:
        Forwarded to the sharded loader: with ``processes > 1`` the
        per-shard permutation sorts run in worker processes.
    """
    if shard_count is not None and shard_count < 1:
        raise SyntheticDataError(f"shard_count must be >= 1, got {shard_count}")
    started = time.perf_counter()
    term_dictionary = dictionary if dictionary is not None else TermDictionary()
    entity_ids, predicate_ids = _intern_vocabulary(spec, term_dictionary)
    subjects, predicate_col, objects = _draw_columns_np(spec, entity_ids, predicate_ids)
    if shard_count is not None:
        store: Union[TripleStore, ShardedTripleStore] = ShardedTripleStore.from_id_columns(
            term_dictionary,
            subjects,
            predicate_col,
            objects,
            num_shards=shard_count,
            name=spec.name,
            processes=processes,
            start_method=start_method,
        )
    else:
        store = TripleStore.from_id_columns(
            spec.name, term_dictionary, subjects, predicate_col, objects
        )
    return ScaleWorld(
        spec=spec,
        store=store,
        dictionary=term_dictionary,
        build_seconds=time.perf_counter() - started,
    )
