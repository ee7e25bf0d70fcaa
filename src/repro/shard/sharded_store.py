"""A triple store partitioned by subject-ID range into independent shards.

:class:`ShardedTripleStore` presents the same Term-level and ID-level API
as :class:`~repro.store.triplestore.TripleStore` while splitting the data
across ``num_shards`` plain stores that share one
:class:`~repro.store.dictionary.TermDictionary`.  The shared dictionary
gives every shard the same ID space, so solutions, plans and caches built
over one shard's IDs are valid over all of them.

Partitioning invariants (everything above relies on these):

* **Routing is total and deterministic.**  Every subject ID maps to
  exactly one shard via a bisect over the frozen range boundaries;
  a triple lives in the shard that owns its subject ID.
* **Ranges are contiguous and increasing.**  Shard 0 owns the smallest
  subject IDs, the last shard owns an open-ended top range.  Chaining
  per-shard subject runs in shard order therefore yields a globally
  sorted run — the gather side of a merge join never needs a heap.
* **Subjects are disjoint across shards.**  Distinct-subject counts and
  per-shard statistics sum exactly; only predicate/object distinct
  counts need cross-shard set unions.

Boundaries are fixed by the first non-empty :meth:`bulk_load` (the
canonical build path) or, for pure-:meth:`add` stores, as soon as the
first :data:`_SEED_MIN_SUBJECTS` distinct subjects accumulate: the
distinct subject IDs are split into near-equal chunks, and triples added
earlier are re-homed so the invariants hold from then on.  Because
dictionary IDs grow monotonically, subjects interned later fall into the
last shard's open range; :meth:`rebalance` re-splits the boundaries from
the live contents and moves only the misplaced triples, restoring
scatter balance without a rebuild.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.errors import ShardSkewWarning, StoreError
from repro.rdf.terms import IRI, Term
from repro.rdf.triple import Triple, TriplePattern
from repro.store.dictionary import TermDictionary
from repro.store.stats import PredicateStatistics, StoreStatistics
from repro.store.triplestore import (
    TripleStore,
    _ids_array_np,
    csr_permutation_sections,
)

#: Sentinel for "constant term unknown to the dictionary" in Term-level
#: pattern dispatch (mirrors TripleStore's internal convention).
_MISS = object()

#: Below this many triples in the last shard the skew check never fires —
#: tiny stores are legitimately lopsided and a warning would be noise.
_SKEW_MIN_LAST_SHARD = 64

#: Floor for the never-frozen case (add()-only stores route *everything*
#: to shard 0): higher than the frozen floor so a small add() prelude
#: before the first boundary-fixing bulk load stays quiet.
_SKEW_MIN_UNBOUNDED = 256

#: A pure-add() store seeds its range boundaries as soon as this many
#: distinct subjects have accumulated in shard 0 — enough of a sample to
#: cut near-equal ranges, early enough that the re-homing pass is cheap.
_SEED_MIN_SUBJECTS = 64


class ShardedTripleStore:
    """A set of RDF triples partitioned by subject-ID range.

    Drop-in compatible with :class:`TripleStore` for the SPARQL evaluator,
    the endpoint layer and :class:`~repro.kb.knowledge_base.KnowledgeBase`:
    every ID-level call either routes to the single shard that can hold
    the answer (subject bound) or scatters over all shards and gathers —
    summing counts, chaining ordered runs, or unioning distinct sets,
    whichever the operation's semantics require.

    Parameters
    ----------
    num_shards:
        Number of subject-range partitions (``>= 1``).
    name:
        Human-readable name; shard stores are named ``{name}/s{i}``.
    dictionary:
        Optional shared :class:`TermDictionary` (a fresh one by default).
        All shards always share one dictionary.
    triples:
        Optional initial triples, bulk-loaded shard-parallel.
    skew_threshold:
        Factor by which the last shard may outgrow the mean of its
        siblings before a :class:`~repro.errors.ShardSkewWarning` is
        emitted (once per store).  Boundaries freeze at the first bulk
        load, so subjects interned later always land in the last shard's
        open range; this is the tripwire for that pile-up until a
        ``rebalance()`` pass exists.
    """

    def __init__(
        self,
        num_shards: int = 4,
        name: str = "sharded",
        dictionary: Optional[TermDictionary] = None,
        triples: Optional[Iterable[Triple]] = None,
        skew_threshold: float = 4.0,
    ):
        if num_shards < 1:
            raise StoreError(f"num_shards must be >= 1, got {num_shards}")
        if skew_threshold <= 1.0:
            raise StoreError(f"skew_threshold must be > 1, got {skew_threshold}")
        self.name = name
        self.skew_threshold = skew_threshold
        self._skew_warned = False
        self._dictionary = dictionary if dictionary is not None else TermDictionary()
        self._shards: Tuple[TripleStore, ...] = tuple(
            TripleStore(name=f"{name}/s{index}", dictionary=self._dictionary)
            for index in range(num_shards)
        )
        # Subject-ID cut points; len == num_shards - 1 once fixed.  Until
        # the first bulk load everything routes to shard 0 (bisect over []).
        self._boundaries: List[int] = []
        self._bounded = num_shards == 1
        self._snapshot_retained = None
        # Where (and at which mutation stamp) this store was last saved or
        # opened — lets serve() skip the snapshot write when clean.
        self._snapshot_dir = None
        self._snapshot_version = -1
        # > 0 while a generation handover is in flight: the endpoint layer
        # bumps it so in-flight queries on the outgoing worker generation
        # (which serve a consistent snapshot from their own mmaps) are not
        # rejected by the evaluator's data_version freshness pin.
        self._refresh_serving = 0
        # True while the boundaries are an automatic seed from early
        # add()s rather than a deliberate freeze (see add()/bulk_load).
        self._auto_seeded = False
        if triples is not None:
            self.bulk_load(triples)

    @classmethod
    def _from_snapshot(
        cls,
        name: str,
        dictionary: TermDictionary,
        shards: Tuple[TripleStore, ...],
        boundaries: List[int],
        bounded: bool,
        skew_threshold: float = 4.0,
        skew_warned: bool = False,
        retained=None,
    ) -> "ShardedTripleStore":
        """Assemble a cold sharded store over reopened shards (persist layer)."""
        store = cls.__new__(cls)
        store.name = name
        store.skew_threshold = skew_threshold
        # The one-shot latch is restored from the manifest: a dataset that
        # warned before it was saved stays warned in every process that
        # reopens the snapshot (worker respawns, serve() restarts), so the
        # same pile-up is reported once per dataset, not once per reopen.
        store._skew_warned = skew_warned
        store._dictionary = dictionary
        store._shards = shards
        store._boundaries = boundaries
        store._bounded = bounded
        store._snapshot_retained = retained
        store._snapshot_dir = None
        store._snapshot_version = -1
        store._refresh_serving = 0
        store._auto_seeded = False
        return store

    # ------------------------------------------------------------------ #
    # Snapshot persistence
    # ------------------------------------------------------------------ #
    def save(self, directory) -> None:
        """Write the sharded store as a snapshot directory.

        Layout: ``manifest.json`` (topology + checksum), one shared
        ``dictionary.snap`` and one ``shard{i}.snap`` columns file per
        shard — see :mod:`repro.store.persist`.
        """
        from pathlib import Path

        from repro.store.persist import save_sharded_store

        save_sharded_store(self, directory)
        self._snapshot_dir = Path(directory)
        self._snapshot_version = self.data_version

    def save_delta(self, directory) -> bool:
        """Append the mutations since the last snapshot point as per-shard
        delta files next to the snapshot at ``directory``.

        Only shards that actually changed (and terms interned since) are
        written — a small mutation burst costs I/O proportional to the
        burst, not to the store.  :meth:`open` replays the chains
        transparently; :meth:`compact` folds them back into full files.
        Returns ``False`` when the snapshot already matches.  Raises
        :class:`~repro.errors.StoreError` when ``directory`` is not this
        store's own last snapshot or a journal was lost — fall back to
        :meth:`save`.
        """
        from pathlib import Path

        from repro.store.persist import save_sharded_delta

        wrote = save_sharded_delta(self, directory)
        self._snapshot_dir = Path(directory)
        self._snapshot_version = self.data_version
        return wrote

    def compact(self, directory) -> None:
        """Fold every delta chain at ``directory`` into fresh base files."""
        from pathlib import Path

        from repro.store.persist import save_sharded_store

        save_sharded_store(self, directory, compact=True)
        self._snapshot_dir = Path(directory)
        self._snapshot_version = self.data_version

    @classmethod
    def open(
        cls, directory, mmap: bool = True, verify: bool = True
    ) -> "ShardedTripleStore":
        """Reopen a snapshot directory written by :meth:`save`.

        All shards share one :class:`TermDictionary` over the dictionary
        file, so the reopened store has exactly the saved ID space;
        boundaries and the bounded flag are restored from the manifest,
        making routing decisions identical to the saved store.
        """
        from pathlib import Path

        from repro.store.persist import open_sharded_store

        store = open_sharded_store(directory, mmap=mmap, verify=verify)
        store._snapshot_dir = Path(directory)
        store._snapshot_version = store.data_version
        return store

    def serve(
        self,
        directory,
        start_method: Optional[str] = None,
        pool_size: Optional[int] = None,
        verify: bool = True,
        result_window: Optional[int] = None,
        **executor_kwargs,
    ):
        """Snapshot (if dirty) and boot process shard workers over it.

        The entry point of the process-parallel evaluation path: the
        store is written to ``directory`` unless an up-to-date snapshot
        of it is already there (``directory`` matches the last
        :meth:`save`/:meth:`open` location and ``data_version`` has not
        moved since), and a
        :class:`~repro.shard.workers.ProcessShardExecutor` is started
        with one worker process per shard (``pool_size`` caps the worker
        count; workers then serve several shards each).  Each worker
        mmap-opens its shard's columns and the shared dictionary from the
        snapshot — nothing is pickled, nothing re-interned.

        ``result_window`` bounds how many result batches each in-flight
        task may have unacknowledged in the parent (credit-based flow
        control; defaults to the ``REPRO_RESULT_WINDOW`` environment
        variable, falling back to
        :data:`~repro.shard.workers.DEFAULT_RESULT_WINDOW`).  Smaller
        windows cap parent memory under skewed waves; larger windows
        keep fast workers busier between acknowledgements.

        The returned executor should be closed (it is a context manager);
        wiring it into evaluation is
        ``ShardedQueryEvaluator(store, backend="process", executor=...)``
        or, one level up, ``SimulatedSparqlEndpoint(store,
        backend="process", ...)``.
        """
        from pathlib import Path

        from repro.shard.workers import ProcessShardExecutor
        from repro.store.persist import MANIFEST_NAME

        directory = Path(directory)
        clean = (
            self._snapshot_dir == directory
            and self._snapshot_version == self.data_version
            and (directory / MANIFEST_NAME).exists()
        )
        if not clean:
            self.save(directory)
        return ProcessShardExecutor(
            directory,
            start_method=start_method,
            pool_size=pool_size,
            verify=verify,
            result_window=result_window,
            **executor_kwargs,
        )

    # ------------------------------------------------------------------ #
    # Skew monitoring
    # ------------------------------------------------------------------ #
    def _check_skew(self) -> None:
        """Warn (once per freeze regime) when one shard has piled up.

        Two pathologies, one tripwire:

        * **Frozen boundaries** — subjects interned after the freeze
          route to the last shard by construction; when it holds more
          than ``skew_threshold`` times the mean of its siblings (and at
          least ``_SKEW_MIN_LAST_SHARD`` triples), scatter waves lose
          their balance and a rebalance is due.
        * **Never frozen** — a multi-shard store populated only through
          :meth:`add` routes everything to shard 0 (bisect over empty
          boundaries) until :data:`_SEED_MIN_SUBJECTS` distinct subjects
          seed the boundaries; a store that reaches
          ``_SKEW_MIN_UNBOUNDED`` triples while still unbounded has too
          few distinct subjects to split, and no boundary cut can help.
        """
        if self._skew_warned or len(self._shards) < 2:
            return
        if not self._bounded:
            pending = len(self._shards[0])
            if pending >= _SKEW_MIN_UNBOUNDED:
                self._skew_warned = True
                warnings.warn(
                    f"Sharded store {self.name!r}: {pending} triples added "
                    f"over fewer than {_SEED_MIN_SUBJECTS} distinct "
                    "subjects, so boundaries cannot be seeded and every "
                    "triple routes to shard 0 — scatter parallelism is "
                    "zero. Subject-range sharding needs more distinct "
                    "subjects; use fewer shards for this dataset.",
                    ShardSkewWarning,
                    stacklevel=3,
                )
            return
        last = len(self._shards[-1])
        if last < _SKEW_MIN_LAST_SHARD:
            return
        rest = len(self) - last
        mean_rest = rest / (len(self._shards) - 1)
        if last > self.skew_threshold * max(mean_rest, 1.0):
            self._skew_warned = True
            warnings.warn(
                f"Sharded store {self.name!r}: last shard holds {last} triples "
                f"vs a mean of {mean_rest:.1f} across the other "
                f"{len(self._shards) - 1} shards (threshold "
                f"{self.skew_threshold:g}x). Subjects interned after the "
                "boundary freeze always route to the last shard's open "
                "range; rebuild or rebalance the store to restore scatter "
                "balance.",
                ShardSkewWarning,
                stacklevel=3,
            )

    @classmethod
    def from_store(
        cls,
        store: TripleStore,
        num_shards: int,
        name: Optional[str] = None,
        parallel: Optional[bool] = None,
    ) -> "ShardedTripleStore":
        """Partition an existing store's triples into a fresh sharded store.

        The shards get their own dictionary (IDs are re-interned in
        iteration order) so the source store stays fully independent.
        """
        sharded = cls(num_shards=num_shards, name=name or f"{store.name}-sharded")
        sharded.bulk_load(iter(store), parallel=parallel)
        return sharded

    @classmethod
    def from_id_columns(
        cls,
        dictionary: TermDictionary,
        subjects,
        predicates,
        objects,
        num_shards: int = 4,
        name: str = "sharded",
        processes: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> "ShardedTripleStore":
        """Build a sharded store straight from parallel dictionary-ID columns.

        The sharded face of :meth:`TripleStore.from_id_columns`: boundaries
        are cut from the batch's distinct subject IDs exactly like
        :meth:`bulk_load` would, the columns partition per shard with one
        vectorised route pass, and every shard assembles as frozen CSR
        columns — no per-fact :class:`Triple` objects anywhere.  With
        ``processes > 1`` the per-shard permutation sorts run in worker
        processes (columns ship as flat int64 bytes); otherwise they run
        inline.  ``start_method`` picks the multiprocessing context, like
        :meth:`serve`.
        """
        store = cls(num_shards=num_shards, name=name, dictionary=dictionary)
        s = _ids_array_np(subjects)
        p = _ids_array_np(predicates)
        o = _ids_array_np(objects)
        distinct = np.unique(s)
        if distinct.size and num_shards > 1:
            store._boundaries = cls._cut_points(distinct, num_shards)
        store._bounded = True
        if num_shards == 1:
            partitions = [(s, p, o)]
        else:
            cuts = np.asarray(store._boundaries, dtype=np.int64)
            # side="right" == bisect_right: boundary IDs stay in the
            # lower shard, matching shard_index_for_subject exactly.
            routed = np.searchsorted(cuts, s, side="right")
            partitions = []
            for index in range(num_shards):
                mask = routed == index
                partitions.append((s[mask], p[mask], o[mask]))

        worker_count = min(processes or 1, sum(1 for part in partitions if len(part[0])))
        if worker_count > 1:
            from repro.shard.workers import map_in_processes

            payloads = [
                (
                    part[0].tobytes(),
                    part[1].tobytes(),
                    part[2].tobytes(),
                )
                for part in partitions
            ]
            results = map_in_processes(
                csr_permutation_sections,
                payloads,
                processes=worker_count,
                start_method=start_method,
            )
            shards = tuple(
                cls._shard_from_sections(f"{name}/s{index}", dictionary, sections)
                for index, (_, sections) in enumerate(results)
            )
        else:
            shards = tuple(
                TripleStore.from_id_columns(
                    f"{name}/s{index}", dictionary, part[0], part[1], part[2]
                )
                for index, part in enumerate(partitions)
            )
        store._shards = shards
        return store

    @staticmethod
    def _shard_from_sections(
        name: str, dictionary: TermDictionary, sections
    ) -> TripleStore:
        """One shard store over the 15 CSR column payloads a worker built."""
        from repro.store.index import PermutationIndex

        indexes = [
            PermutationIndex(*[memoryview(payload).cast("q") for payload in columns])
            for columns in sections
        ]
        return TripleStore._from_snapshot(name, dictionary, *indexes)

    # ------------------------------------------------------------------ #
    # Shard topology
    # ------------------------------------------------------------------ #
    @property
    def shards(self) -> Tuple[TripleStore, ...]:
        """The underlying per-range stores, in subject-ID order."""
        return self._shards

    @property
    def num_shards(self) -> int:
        """Number of shards."""
        return len(self._shards)

    @property
    def boundaries(self) -> Tuple[int, ...]:
        """The frozen subject-ID cut points (empty until the first bulk load)."""
        return tuple(self._boundaries)

    def shard_index_for_subject(self, subject_id: int) -> int:
        """The index of the shard owning ``subject_id`` — one bisect."""
        return bisect_right(self._boundaries, subject_id)

    def shard_for_subject(self, subject_id: int) -> TripleStore:
        """The shard store owning ``subject_id``."""
        return self._shards[bisect_right(self._boundaries, subject_id)]

    def shard_sizes(self) -> List[int]:
        """Triples per shard, in shard order (balance diagnostic)."""
        return [len(shard) for shard in self._shards]

    @staticmethod
    def _cut_points(distinct, count: int) -> List[int]:
        """Range cut points splitting sorted distinct subject IDs into
        ``count`` near-equal chunks.  Clamped: with fewer distinct
        subjects than shards the trailing cuts repeat the last ID, leaving
        the surplus shards empty (routing stays total either way)."""
        chunk = len(distinct) / count
        last = len(distinct) - 1
        return [
            int(distinct[min(last, int(round(index * chunk)))])
            for index in range(1, count)
        ]

    def _fix_boundaries(self, subject_ids: Iterable[int]) -> None:
        """Freeze range boundaries from the first batch's subject IDs.

        Splits the sorted distinct subject IDs into ``num_shards``
        near-equal chunks; any triples routed to shard 0 before the fix
        (via :meth:`add`) are re-homed so the range invariants hold.
        """
        distinct = sorted(set(subject_ids))
        shard0 = self._shards[0]
        if shard0:
            distinct = sorted(set(distinct).union(
                sid for sid, _, _ in shard0.match_ids()
            ))
        count = len(self._shards)
        if distinct and count > 1:
            self._boundaries = self._cut_points(distinct, count)
        self._bounded = True
        self._auto_seeded = False
        # New regime: the one-shot warning is re-armed for the frozen-era
        # pile-up check (an unbounded-era warning may already have fired).
        self._skew_warned = False
        if shard0:
            id_for = self._dictionary.id_for
            misplaced = [
                triple
                for triple in shard0
                if bisect_right(self._boundaries, id_for(triple.subject)) != 0
            ]
            for triple in misplaced:
                shard0.remove(triple)
            for triple in misplaced:
                self.add(triple)

    def rebalance(self) -> Dict[str, object]:
        """Re-split the range boundaries from the live per-shard contents.

        Cuts fresh near-equal boundaries over the union of all current
        distinct subject IDs (subjects are disjoint across shards, so the
        union is a concatenation) and moves only the triples whose
        subject now routes elsewhere — shards that already sit inside
        their new range are not rewritten.  This is the repair for the
        frozen-boundary pile-up: subjects interned after the first freeze
        all landed in the last shard's open range, and a rebalance under
        a quiesced or handover-protected store restores scatter balance
        without a rebuild.

        Returns ``{"moved", "boundaries", "shard_sizes"}``.  The one-shot
        skew warning re-arms, and an unbounded store becomes bounded (the
        live subjects seed its first boundaries).
        """
        shards = self._shards
        if len(shards) > 1:
            distinct = sorted(
                {sid for shard in shards for sid in shard.position_ids("s")}
            )
            new_boundaries = (
                self._cut_points(distinct, len(shards)) if distinct else []
            )
            moved = 0
            transfers: List[Set[Tuple[int, int, int]]] = [set() for _ in shards]
            for index, shard in enumerate(shards):
                outgoing = [
                    ids
                    for ids in shard.match_ids()
                    if bisect_right(new_boundaries, ids[0]) != index
                ]
                shard.remove_ids(outgoing)
                for ids in outgoing:
                    transfers[bisect_right(new_boundaries, ids[0])].add(ids)
                moved += len(outgoing)
            self._boundaries = new_boundaries
            for target, pending in enumerate(transfers):
                if pending:
                    shards[target].bulk_load_pending(pending)
        else:
            moved = 0
        self._bounded = True
        self._auto_seeded = False
        self._skew_warned = False
        return {
            "moved": moved,
            "boundaries": self.boundaries,
            "shard_sizes": self.shard_sizes(),
        }

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, triple: Triple) -> bool:
        """Add a triple to the shard owning its subject ID.

        A never-frozen multi-shard store routes every add to shard 0
        (bisect over empty boundaries); once :data:`_SEED_MIN_SUBJECTS`
        distinct subjects have accumulated there, boundaries are seeded
        from them and the early triples re-homed, so pure-``add()``
        stores actually shard instead of piling up forever.
        """
        if not isinstance(triple, Triple):
            raise StoreError(f"Expected a Triple, got {type(triple).__name__}")
        sid = self._dictionary.encode(triple.subject)
        index = self.shard_index_for_subject(sid)
        changed = self._shards[index].add(triple)
        if changed and not self._bounded:
            if (
                len(self._shards) > 1
                and self._shards[0].count_distinct_ids("s") >= _SEED_MIN_SUBJECTS
            ):
                self._fix_boundaries(())
                # Seeded, not deliberately frozen: the next bulk load (or
                # an explicit rebalance) re-splits over everything.
                self._auto_seeded = True
            else:
                self._check_skew()
        elif changed and index == len(self._shards) - 1:
            self._check_skew()
        return changed

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples one by one; returns the number inserted."""
        inserted = 0
        for triple in triples:
            if self.add(triple):
                inserted += 1
        return inserted

    def bulk_load(
        self, triples: Iterable[Triple], parallel: Optional[bool] = None
    ) -> int:
        """Columnar bulk insert, building the shards in parallel.

        Terms are interned once through the shared dictionary (serially —
        interning mutates the dictionary), the batch is partitioned by
        routed subject ID, and each shard then runs its own
        :meth:`TripleStore.bulk_load` — the per-range write path, which
        rebuilds a shard's CSR bases in numpy when the batch is large — on
        an independent partition.  With ``parallel`` (default when there is more than one
        non-empty partition) the per-shard loads run on a thread pool; the
        numpy column sort releases the GIL, so shard builds genuinely
        overlap.  Returns the number of new triples.
        """
        intern = self._dictionary.ids_map
        staged: List[Tuple[int, int, int]] = []
        for triple in triples:
            if not isinstance(triple, Triple):
                raise StoreError(f"Expected a Triple, got {type(triple).__name__}")
            staged.append(
                (intern[triple.subject], intern[triple.predicate], intern[triple.object])
            )
        if not staged:
            return 0
        boundaries_were_frozen = self._bounded
        if not self._bounded:
            self._fix_boundaries(ids[0] for ids in staged)

        # Partition into per-shard pre-staged batches; each shard skips
        # what it already holds (subjects are disjoint, so a duplicate can
        # only collide with its own shard's content or partition).
        shards = self._shards
        partitions: List[Set[Tuple[int, int, int]]] = [set() for _ in shards]
        boundaries = self._boundaries
        for ids in staged:
            partitions[bisect_right(boundaries, ids[0])].add(ids)

        busy = sum(1 for partition in partitions if partition)
        if parallel is None:
            parallel = busy > 1
        if parallel and busy > 1:
            # Every term is interned above, so the shard loads touch only
            # their own indexes — no cross-thread writes to shared state,
            # and the numpy column sort releases the GIL.
            with ThreadPoolExecutor(max_workers=busy) as executor:
                counts = list(
                    executor.map(
                        lambda pair: pair[0].bulk_load_pending(pair[1]),
                        zip(shards, partitions),
                    )
                )
            inserted = sum(counts)
        else:
            inserted = sum(
                shard.bulk_load_pending(partition)
                for shard, partition in zip(shards, partitions)
                if partition
            )
        if self._auto_seeded and inserted:
            # The boundaries were an automatic seed from the first few
            # add()s, not a deliberate freeze: the first real bulk load
            # re-splits over everything, preserving the historical
            # "prelude adds, then balancing bulk load" behaviour.
            self.rebalance()
        elif boundaries_were_frozen and inserted:
            # Only loads *after* the freeze can pile into the last shard's
            # open range; the balancing first load never warns.
            self._check_skew()
        return inserted

    def remove(self, triple: Triple) -> bool:
        """Remove a triple from its owning shard."""
        sid = self._dictionary.id_for(triple.subject)
        if sid is None:
            return False
        return self.shard_for_subject(sid).remove(triple)

    def clear(self) -> None:
        """Remove every triple; boundaries unfreeze so the next bulk load
        rebalances.  The shared dictionary (and thus all IDs) is kept."""
        for shard in self._shards:
            shard.clear()
        self._boundaries = []
        self._bounded = len(self._shards) == 1
        self._auto_seeded = False
        self._skew_warned = False

    # ------------------------------------------------------------------ #
    # ID-level API (used by the SPARQL layer)
    # ------------------------------------------------------------------ #
    @property
    def dictionary(self) -> TermDictionary:
        """The shared term dictionary."""
        return self._dictionary

    @property
    def data_version(self) -> int:
        """Monotonic mutation stamp: the sum of the shard stamps."""
        return sum(shard.data_version for shard in self._shards)

    def term_id(self, term: Term) -> Optional[int]:
        """The dictionary ID of ``term``; ``None`` if it never occurred."""
        return self._dictionary.id_for(term)

    def term_for_id(self, tid: int) -> Term:
        """The term interned under ``tid``."""
        return self._dictionary.decode(tid)

    def contains_ids(self, s: int, p: int, o: int) -> bool:
        """Membership test in ID space — routed to one shard."""
        return self.shard_for_subject(s).contains_ids(s, p, o)

    def match_ids(
        self,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        object: Optional[int] = None,
    ) -> Iterator[Tuple[int, int, int]]:
        """Yield matching ID triples, routing by subject when bound.

        With an unbound subject the shards are chained in range order, so
        shapes whose iteration order is a sorted subject run on a single
        store — ``(?, p, o)`` most importantly — stay globally sorted
        across shards, which the merge-join gather relies on.
        """
        if subject is not None:
            return self.shard_for_subject(subject).match_ids(
                subject, predicate, object
            )
        return self._chain_match_ids(predicate, object)

    def _chain_match_ids(
        self, predicate: Optional[int], object: Optional[int]
    ) -> Iterator[Tuple[int, int, int]]:
        for shard in self._shards:
            yield from shard.match_ids(None, predicate, object)

    def sorted_run_ids(
        self,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        object: Optional[int] = None,
    ):
        """The globally sorted ID run of a two-constant pattern.

        Subject-bound shapes live entirely in one shard; the subject-run
        shape ``(?, p, o)`` concatenates the per-shard sorted runs, which
        is already globally sorted because shard subject ranges are
        contiguous and increasing.  Returned lazily so merge joins that
        short-circuit never touch the trailing shards.
        """
        if subject is not None:
            return self.shard_for_subject(subject).sorted_run_ids(
                subject, predicate, object
            )
        if predicate is not None and object is not None:
            return self._chain_subject_runs(predicate, object)
        raise StoreError("sorted_run_ids requires exactly two constant positions")

    def _chain_subject_runs(self, predicate: int, object: int) -> Iterator[int]:
        for shard in self._shards:
            yield from shard.sorted_run_ids(None, predicate, object)

    def count_ids(
        self,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        object: Optional[int] = None,
    ) -> int:
        """Count matching triples: routed when subject-bound, summed otherwise.

        Sums are exact because the shards partition the triple set.
        """
        if subject is not None:
            return self.shard_for_subject(subject).count_ids(
                subject, predicate, object
            )
        return sum(
            shard.count_ids(None, predicate, object) for shard in self._shards
        )

    def count_distinct_ids(
        self,
        position: str,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        object: Optional[int] = None,
    ) -> int:
        """Distinct IDs in one position of the matching triples.

        Subject-bound patterns route to one shard.  Distinct *subjects*
        sum across shards (subjects are disjoint by partitioning);
        distinct predicates/objects may repeat across shards, so those
        shapes union the per-shard ID streams into one set.
        """
        if subject is not None:
            return self.shard_for_subject(subject).count_distinct_ids(
                position, subject, predicate, object
            )
        if position == "s" or len(self._shards) == 1:
            return sum(
                shard.count_distinct_ids(position, None, predicate, object)
                for shard in self._shards
            )
        distinct: Set[int] = set()
        for shard in self._shards:
            distinct.update(shard.position_ids(position, None, predicate, object))
        return len(distinct)

    def position_ids(
        self,
        position: str,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        object: Optional[int] = None,
    ) -> Iterator[int]:
        """IDs in one position of the matching triples (may repeat)."""
        if subject is not None:
            return self.shard_for_subject(subject).position_ids(
                position, subject, predicate, object
            )
        return self._chain_position_ids(position, predicate, object)

    def _chain_position_ids(
        self, position: str, predicate: Optional[int], object: Optional[int]
    ) -> Iterator[int]:
        for shard in self._shards:
            yield from shard.position_ids(position, None, predicate, object)

    # ------------------------------------------------------------------ #
    # Lookup (Term-level public API)
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, triple: object) -> bool:
        if not isinstance(triple, Triple):
            return False
        sid = self._dictionary.id_for(triple.subject)
        if sid is None:
            return False
        return triple in self.shard_for_subject(sid)

    def __iter__(self) -> Iterator[Triple]:
        for shard in self._shards:
            yield from shard

    def __repr__(self) -> str:
        return (
            f"ShardedTripleStore(name={self.name!r}, shards={len(self._shards)}, "
            f"size={len(self)})"
        )

    def _resolve(self, term: Optional[Term]):
        if term is None:
            return None
        tid = self._dictionary.id_for(term)
        return tid if tid is not None else _MISS

    def match(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[IRI] = None,
        object: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Yield triples matching the pattern, routing by subject when bound."""
        s = self._resolve(subject)
        p = self._resolve(predicate)
        o = self._resolve(object)
        if s is _MISS or p is _MISS or o is _MISS:
            return iter(())
        if s is not None:
            return self._shards[self.shard_index_for_subject(s)].match(
                subject, predicate, object
            )
        return self._chain_match(predicate, object)

    def _chain_match(
        self, predicate: Optional[IRI], object: Optional[Term]
    ) -> Iterator[Triple]:
        for shard in self._shards:
            yield from shard.match(None, predicate, object)

    def match_pattern(self, pattern: TriplePattern) -> Iterator[Triple]:
        """:meth:`match` taking a :class:`~repro.rdf.triple.TriplePattern`."""
        return self.match(pattern.subject, pattern.predicate, pattern.object)

    def count(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[IRI] = None,
        object: Optional[Term] = None,
    ) -> int:
        """Count matching triples without materialising any."""
        s = self._resolve(subject)
        p = self._resolve(predicate)
        o = self._resolve(object)
        if s is _MISS or p is _MISS or o is _MISS:
            return 0
        return self.count_ids(s, p, o)

    # ------------------------------------------------------------------ #
    # Vocabulary access
    # ------------------------------------------------------------------ #
    def predicates(self) -> List[IRI]:
        """All distinct predicates, sorted by IRI for determinism."""
        distinct: Set[int] = set()
        for shard in self._shards:
            distinct.update(shard.position_ids("p"))
        decode = self._dictionary.decode
        return sorted(
            (decode(pid) for pid in distinct),  # type: ignore[misc]
            key=lambda p: p.value,
        )

    def subjects(self, predicate: Optional[IRI] = None) -> Iterator[Term]:
        """Distinct subjects (disjoint across shards, so a plain chain)."""
        for shard in self._shards:
            yield from shard.subjects(predicate)

    def objects(self, predicate: Optional[IRI] = None) -> Iterator[Term]:
        """Distinct objects, deduplicated across shards."""
        seen: Set[Term] = set()
        for shard in self._shards:
            for term in shard.objects(predicate):
                if term not in seen:
                    seen.add(term)
                    yield term

    def objects_of(self, subject: Term, predicate: IRI) -> List[Term]:
        """All objects ``o`` with ``(subject, predicate, o)`` — one shard."""
        sid = self._dictionary.id_for(subject)
        if sid is None:
            return []
        return self.shard_for_subject(sid).objects_of(subject, predicate)

    def subjects_of(self, predicate: IRI, object: Term) -> List[Term]:
        """All subjects of ``(?, predicate, object)`` across shards."""
        result: List[Term] = []
        for shard in self._shards:
            result.extend(shard.subjects_of(predicate, object))
        return result

    def predicates_of(self, subject: Term) -> List[IRI]:
        """Distinct predicates appearing with ``subject`` — one shard."""
        sid = self._dictionary.id_for(subject)
        if sid is None:
            return []
        return self.shard_for_subject(sid).predicates_of(subject)

    def predicates_between(self, subject: Term, object: Term) -> List[IRI]:
        """Distinct predicates linking ``subject`` to ``object`` — one shard."""
        sid = self._dictionary.id_for(subject)
        if sid is None:
            return []
        return self.shard_for_subject(sid).predicates_between(subject, object)

    def has_subject(self, subject: Term) -> bool:
        """Whether any fact has ``subject`` in subject position."""
        sid = self._dictionary.id_for(subject)
        return sid is not None and self.shard_for_subject(sid).has_subject(subject)

    def entities(self) -> Set[Term]:
        """All IRIs/blank nodes in subject or object position, across shards."""
        entities: Set[Term] = set()
        for shard in self._shards:
            entities.update(shard.entities())
        return entities

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def predicate_statistics(self, predicate: IRI) -> PredicateStatistics:
        """Statistics for one predicate, merged across shards."""
        pid = self._dictionary.id_for(predicate)
        if pid is None:
            return PredicateStatistics(predicate=predicate)
        return self._merge_predicate_statistics(predicate, pid)

    def _merge_predicate_statistics(
        self, predicate: IRI, pid: int
    ) -> PredicateStatistics:
        """Merge per-shard counts: facts and distinct subjects sum exactly
        (triples/subjects are partitioned); distinct objects and the
        literal-object tally take one pass over the predicate's facts."""
        is_literal = self._dictionary.is_literal_id
        distinct_objects: Set[int] = set()
        literal_objects = 0
        for shard in self._shards:
            # One pass over the predicate's facts: the literal tally is
            # per *fact* (a literal object shared by k subjects counts k
            # times), while the object set dedupes across shards.
            for _, _, oid in shard.match_ids(None, pid, None):
                distinct_objects.add(oid)
                literal_objects += is_literal(oid)
        return PredicateStatistics(
            predicate=predicate,
            fact_count=self.count_ids(None, pid, None),
            distinct_subjects=sum(
                shard.count_distinct_ids("s", None, pid, None)
                for shard in self._shards
            ),
            distinct_objects=len(distinct_objects),
            literal_object_count=literal_objects,
        )

    def statistics(self) -> StoreStatistics:
        """A full statistics snapshot, merged across shards."""
        predicate_ids: Set[int] = set()
        object_ids: Set[int] = set()
        for shard in self._shards:
            predicate_ids.update(shard.position_ids("p"))
            object_ids.update(shard.position_ids("o"))
        stats = StoreStatistics(
            triple_count=len(self),
            predicate_count=len(predicate_ids),
            subject_count=sum(
                shard.count_distinct_ids("s") for shard in self._shards
            ),
            object_count=len(object_ids),
        )
        decode = self._dictionary.decode
        predicate_stats: Dict[IRI, PredicateStatistics] = {}
        for pid in predicate_ids:
            predicate = decode(pid)
            predicate_stats[predicate] = self._merge_predicate_statistics(  # type: ignore[index]
                predicate, pid  # type: ignore[arg-type]
            )
        stats.predicates = predicate_stats
        return stats

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    def copy(self, name: Optional[str] = None) -> "ShardedTripleStore":
        """A copy with the same shard count (terms shared, indexes rebuilt)."""
        return ShardedTripleStore(
            num_shards=len(self._shards),
            name=name or f"{self.name}-copy",
            triples=iter(self),
            skew_threshold=self.skew_threshold,
        )
