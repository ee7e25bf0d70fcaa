"""The in-memory triple store.

:class:`TripleStore` is the storage substrate under every knowledge base in
this reproduction.  Since the dictionary-encoding refactor it stores
**integer ID triples**: every term is interned once in a
:class:`~repro.store.dictionary.TermDictionary` and the three permutation
indexes (:class:`~repro.store.index.PermutationIndex`) key on plain ints.  The
public API stays Term-in/Term-out; the ID-level API (:meth:`match_ids`,
:meth:`term_id`, :attr:`dictionary`) is used by the SPARQL evaluator to
join on integers without round-tripping through Term objects.

Pattern dispatch:

========= ==========================
pattern    index used
========= ==========================
(s, p, o)  SPO (membership test)
(s, p, ?)  SPO
(s, ?, o)  OSP
(s, ?, ?)  SPO
(?, p, o)  POS
(?, p, ?)  POS
(?, ?, o)  OSP
(?, ?, ?)  full scan over SPO
========= ==========================

Every one of the eight shapes is also *countable* from index bookkeeping
alone — :meth:`count` never materialises triples.

Each index is a :class:`~repro.store.index.PermutationIndex`: an
immutable CSR base (built in numpy by :meth:`TripleStore._csr_permutations`,
or viewed straight over an mmap'd snapshot by :meth:`TripleStore.open`)
plus a small per-key overlay of added and removed entries.
:meth:`~TripleStore.add`, :meth:`~TripleStore.remove` and
:meth:`~TripleStore.bulk_load` share one write path into the overlays
(:meth:`TripleStore._write`), which folds them into fresh bases once they
pass a share of the store; saving folds too.  Reads never fold.

The three indexes are the only copy of the triples: membership probes the
SPO index, and :meth:`~TripleStore.match` and iteration decode ID rows, in
ascending SPO ID order.  A store built in memory and one reopened from a
snapshot are the same object, differing only in where their index bases
and dictionary base live.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Collection, Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.errors import StoreError
from repro.rdf.terms import IRI, Term
from repro.rdf.triple import Triple, TriplePattern
from repro.store.dictionary import TermDictionary
from repro.store.index import PermutationIndex, csr_from_sorted
from repro.store.stats import (
    PredicateStatistics,
    StoreStatistics,
    predicate_statistics_from_index,
)


def _ids_array_np(column):
    """``column`` as an int64 ndarray, zero-copy for buffer-backed inputs."""
    if isinstance(column, np.ndarray):
        return np.ascontiguousarray(column, dtype=np.int64)
    if isinstance(column, (array, memoryview, bytes, bytearray)):
        return np.frombuffer(column, dtype=np.int64)
    return np.fromiter(column, dtype=np.int64, count=len(column))


def csr_permutation_sections(subjects: bytes, predicates: bytes, objects: bytes):
    """:meth:`TripleStore._csr_permutations` over raw int64 column bytes.

    The process-parallel sharded builder ships each shard's partition to a
    worker as three bytes payloads and gets the fifteen CSR column
    payloads back — bytes pickle as flat buffers, so nothing is
    re-interned or converted per row on either side.
    """
    count, permutations = TripleStore._csr_permutations(
        _column_from_bytes(subjects),
        _column_from_bytes(predicates),
        _column_from_bytes(objects),
    )
    return count, [
        tuple(_column_bytes(column) for column in columns)
        for columns in permutations
    ]


def _column_from_bytes(payload: bytes):
    return np.frombuffer(payload, dtype=np.int64)


def _column_bytes(column) -> bytes:
    return column.tobytes()

#: A write folds the index overlays into fresh CSR bases once they would
#: hold more than ``max(_FOLD_MIN, len(store) // _FOLD_SHARE)`` entries:
#: below that, reads of touched keys merge a few entries per key; above
#: it, one numpy rebuild is cheaper than the merges it saves.
_FOLD_MIN = 1024
_FOLD_SHARE = 8

#: Net journal entries (adds + removes since the last snapshot) beyond
#: which the mutation journal is dropped: a delta larger than this is no
#: cheaper than a full save, so the memory is better spent elsewhere.
_JOURNAL_LIMIT = 1 << 20

#: Sentinel distinguishing "constant term unknown to the dictionary" (which
#: can never match) from a ``None`` wildcard in internal pattern dispatch.
_MISS = object()


class TripleStore:
    """A fully indexed, in-memory set of RDF triples.

    The store is a *set*: adding the same triple twice is a no-op.  All
    mutation happens through :meth:`add` / :meth:`remove` so the three
    indexes and the statistics stay consistent.

    Parameters
    ----------
    name:
        Optional human-readable name (used in ``repr`` and logs).
    triples:
        Optional initial triples to load.
    dictionary:
        Optional shared :class:`TermDictionary`.  Passing the same
        dictionary to several stores gives them a common ID space (useful
        for cross-store joins); by default each store owns a fresh one.
    """

    def __init__(
        self,
        name: str = "store",
        triples: Optional[Iterable[Triple]] = None,
        dictionary: Optional[TermDictionary] = None,
    ):
        self.name = name
        self._dictionary = dictionary if dictionary is not None else TermDictionary()
        self._resolved_id = self._dictionary.ids_map.get
        self._spo = PermutationIndex()
        self._pos = PermutationIndex()
        self._osp = PermutationIndex()
        # Monotonic mutation stamp: bumped by every mutation that changes
        # the triple set.  Consumers (the SPARQL plan cache) compare stamps
        # instead of sizes, so an add+remove pair cannot masquerade as "no
        # change" and leave stale cached plans behind.
        self._version = 0
        self._snapshot_retained = None  # keeps the mmap buffer alive
        # Net mutation journal since the last snapshot point: (added,
        # removed) ID-triple sets, or None once the journal is lost
        # (clear(), or more net changes than _JOURNAL_LIMIT) — a lost
        # journal forces the next snapshot to be a full save instead of a
        # delta.  save()/open()/save_delta() reset it.
        self._journal: Optional[Tuple[set, set]] = (set(), set())
        if triples is not None:
            self.bulk_load(triples)

    @classmethod
    def _from_snapshot(
        cls,
        name: str,
        dictionary: TermDictionary,
        spo: PermutationIndex,
        pos: PermutationIndex,
        osp: PermutationIndex,
        retained=None,
    ) -> "TripleStore":
        """Assemble a store over CSR index bases (persist layer)."""
        store = cls(name, dictionary=dictionary)
        store._spo, store._pos, store._osp = spo, pos, osp
        store._snapshot_retained = retained
        return store

    @classmethod
    def from_id_columns(
        cls,
        name: str,
        dictionary: TermDictionary,
        subjects,
        predicates,
        objects,
    ) -> "TripleStore":
        """Assemble a store straight from parallel dictionary-ID columns.

        The streaming construction path for generated worlds: rows are
        sorted and deduplicated columnwise in numpy and the three
        permutation indexes are built as CSR bases — no per-fact
        :class:`Triple` objects, no Python containers proportional to the
        row count; saving it writes the columns verbatim.  All IDs must
        have been interned through ``dictionary``.
        """
        _, permutations = cls._csr_permutations(subjects, predicates, objects)
        return cls._from_snapshot(name, dictionary, *_indexes(permutations))

    @staticmethod
    def _csr_permutations(subjects, predicates, objects):
        """Sorted, deduplicated CSR columns for all three permutations.

        Returns ``(row_count, [spo, pos, osp])`` where each permutation is
        the five buffer-backed columns (keys, key_groups, seconds,
        group_starts, thirds) in :class:`PermutationIndex` layout.  This
        is the sort kernel behind :meth:`from_id_columns` and every fold;
        the sharded builder also runs it inside worker processes via
        :func:`csr_permutation_sections`.
        """
        s = _ids_array_np(subjects)
        p = _ids_array_np(predicates)
        o = _ids_array_np(objects)
        order = np.lexsort((o, p, s))
        s, p, o = s[order], p[order], o[order]
        if s.size:
            keep = np.empty(s.size, dtype=bool)
            keep[0] = True
            np.not_equal(s[1:], s[:-1], out=keep[1:])
            keep[1:] |= p[1:] != p[:-1]
            keep[1:] |= o[1:] != o[:-1]
            if not keep.all():
                s, p, o = s[keep], p[keep], o[keep]
        pos_order = np.lexsort((s, o, p))
        osp_order = np.lexsort((p, s, o))
        return int(s.size), [
            csr_from_sorted(s, p, o),
            csr_from_sorted(p[pos_order], o[pos_order], s[pos_order]),
            csr_from_sorted(o[osp_order], s[osp_order], p[osp_order]),
        ]

    # ------------------------------------------------------------------ #
    # Snapshot persistence
    # ------------------------------------------------------------------ #
    def save(self, path) -> None:
        """Write the store (triples + dictionary) as one snapshot file.

        The format is documented in :mod:`repro.store.persist`; reopening
        with :meth:`open` restores an equivalent store without re-sorting
        or re-interning.  Saving is deterministic: saving an unmutated
        reopened snapshot reproduces the file byte for byte.
        """
        from repro.store.persist import save_store

        save_store(self, path)

    def save_delta(self, path) -> bool:
        """Append the mutations since the last snapshot point as a delta.

        Writes only the terms interned since and the net added/removed ID
        triples next to the base snapshot at ``path`` (see
        :func:`repro.store.persist.save_store_delta`); :meth:`open`
        replays the chain transparently.  Returns ``False`` when there is
        nothing to write.  Raises :class:`~repro.errors.StoreError` when
        no base snapshot exists or the journal was lost (``clear()`` or
        overflow) — fall back to :meth:`save` then.
        """
        from repro.store.persist import save_store_delta

        return save_store_delta(self, path)

    def compact(self, path) -> None:
        """Fold the delta chain at ``path`` into a fresh base snapshot."""
        from repro.store.persist import compact_store

        compact_store(self, path)

    @classmethod
    def open(cls, path, mmap: bool = True, verify: bool = True) -> "TripleStore":
        """Reopen a snapshot written by :meth:`save`.

        With ``mmap`` (default) the index columns and the string heap stay
        on disk behind read-only views, so opening costs header parsing
        plus one checksum pass regardless of store size; terms decode
        lazily as queries touch them.  ``mmap=False`` loads the file into
        memory instead.  Mutations go to the index overlays; the mapped
        columns themselves are never written.

        Raises
        ------
        SnapshotCorruptError
            If the file is truncated, has a bad magic/version, or any
            checksum does not match.
        """
        from repro.store.persist import open_store

        return open_store(path, mmap=mmap, verify=verify)

    @property
    def is_frozen(self) -> bool:
        """Whether every mutation is folded into the CSR bases (the index
        overlays are empty)."""
        return not self._spo.pending

    def _write(
        self,
        added: Collection[Tuple[int, int, int]],
        removed: Collection[Tuple[int, int, int]] = (),
    ) -> None:
        """The one write path into the three permutation indexes.

        ``added`` ID triples must be new to the store and ``removed`` ones
        present in it.  Removals go to the overlays; additions do too,
        unless they would take the overlays past the fold limit — then the
        overlays and the additions fold into fresh CSR bases in one numpy
        rebuild (for an empty store, that is a direct CSR build).
        """
        spo, pos, osp = self._spo, self._pos, self._osp
        for s, p, o in removed:
            spo.remove(s, p, o)
            pos.remove(p, o, s)
            osp.remove(o, s, p)
        if spo.pending + len(added) > max(_FOLD_MIN, len(spo) // _FOLD_SHARE):
            self._fold(added)
            return
        for s, p, o in added:
            spo.add(s, p, o)
            pos.add(p, o, s)
            osp.add(o, s, p)

    def _fold(self, added: Collection[Tuple[int, int, int]] = ()) -> None:
        """Fold the index overlays, plus ``added`` new ID triples, into
        fresh CSR bases.

        The rows go to :meth:`_csr_permutations` unsorted, which sorts
        them once.  The three new indexes replace the old ones whole, so a
        reader still holding an old index keeps a consistent base and
        overlay.
        """
        s, p, o = self._spo.unsorted_rows()
        if added:
            extra = np.fromiter(
                chain.from_iterable(added), dtype=np.int64, count=3 * len(added)
            ).reshape(-1, 3)
            s = np.concatenate((s, extra[:, 0]))
            p = np.concatenate((p, extra[:, 1]))
            o = np.concatenate((o, extra[:, 2]))
        _, permutations = self._csr_permutations(s, p, o)
        self._spo, self._pos, self._osp = _indexes(permutations)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def _journal_add(self, ids: Tuple[int, int, int]) -> None:
        journal = self._journal
        if journal is None:
            return
        added, removed = journal
        if ids in removed:
            removed.discard(ids)
        else:
            added.add(ids)
            if len(added) + len(removed) > _JOURNAL_LIMIT:
                self._journal = None

    def _journal_remove(self, ids: Tuple[int, int, int]) -> None:
        journal = self._journal
        if journal is None:
            return
        added, removed = journal
        if ids in added:
            added.discard(ids)
        else:
            removed.add(ids)
            if len(added) + len(removed) > _JOURNAL_LIMIT:
                self._journal = None

    def reset_journal(self) -> None:
        """Restart the mutation journal (a new snapshot point)."""
        self._journal = (set(), set())

    @property
    def journal(self) -> Optional[Tuple[set, set]]:
        """The net ``(added, removed)`` ID-triple sets since the last
        snapshot point, or ``None`` when the journal was lost (``clear``
        or overflow) and only a full save can capture the state.  Do not
        mutate."""
        return self._journal

    def add(self, triple: Triple) -> bool:
        """Add a triple.  Returns ``True`` if the store changed."""
        if not isinstance(triple, Triple):
            raise StoreError(f"Expected a Triple, got {type(triple).__name__}")
        encode = self._dictionary.encode
        ids = (encode(triple.subject), encode(triple.predicate), encode(triple.object))
        if self._spo.contains(*ids):
            return False
        self._write((ids,))
        self._version += 1
        self._journal_add(ids)
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples one by one; returns the number actually inserted.

        Prefer :meth:`bulk_load` for large batches — it stages the batch
        once instead of probing per triple.
        """
        inserted = 0
        for triple in triples:
            if self.add(triple):
                inserted += 1
        return inserted

    def bulk_load(self, triples: Iterable[Triple]) -> int:
        """Columnar bulk insert; returns the number of new triples.

        The fast path for store construction: terms are interned through
        the dictionary in one pass and the new ID triples go through the
        store's one write path, where a batch too large for the overlays
        rebuilds the CSR bases in numpy (one sort per index order; an
        empty store is built directly).  Equivalent to :meth:`add_all`
        (duplicates within the batch and against existing content are
        skipped) but several times faster on large batches.
        """
        # Subscripting the interning map interns on miss entirely in C for
        # already-seen terms (the overwhelming case in a batch).
        intern = self._dictionary.ids_map
        # Stage the batch before touching any store structure: if the input
        # iterable (or a non-Triple element) raises mid-batch, the store is
        # left exactly as it was — interned terms aside, which is the same
        # guarantee `add` gives.
        pending: Set[Tuple[int, int, int]] = set()
        for triple in triples:
            if not isinstance(triple, Triple):
                raise StoreError(f"Expected a Triple, got {type(triple).__name__}")
            pending.add(
                (intern[triple.subject], intern[triple.predicate], intern[triple.object])
            )
        return self.bulk_load_pending(pending)

    def bulk_load_pending(self, pending: Set[Tuple[int, int, int]]) -> int:
        """The load phase of :meth:`bulk_load`, for pre-staged batches.

        ``pending`` holds ID triples encoded through *this store's*
        dictionary; those the store already holds are skipped.  The
        sharded store stages a batch once (intern, route, dedupe per
        shard) and hands each shard its partition here, so building N
        shards costs one staging pass, not N+1.
        """
        if len(self._spo):
            contains = self._spo.contains
            pending = {ids for ids in pending if not contains(*ids)}
        count = len(pending)
        if not count:
            return 0
        self._version += 1
        journal = self._journal
        if journal is not None:
            added, removed = journal
            if removed:
                re_added = removed & pending
                removed -= re_added
                added.update(pending - re_added)
            else:
                added.update(pending)
            if len(added) + len(removed) > _JOURNAL_LIMIT:
                self._journal = None
        self._write(pending)
        return count

    def remove(self, triple: Triple) -> bool:
        """Remove a triple.  Returns ``True`` if it was present.

        Dictionary IDs are *not* reclaimed: interned terms keep their IDs
        for the lifetime of the store.
        """
        ids = self._stored_ids(triple)
        if ids is None:
            return False
        self.remove_ids((ids,))
        return True

    def remove_ids(self, removed: Collection[Tuple[int, int, int]]) -> None:
        """Remove ID triples that are all present in the store."""
        if not removed:
            return
        self._write((), removed)
        self._version += 1
        for ids in removed:
            self._journal_remove(ids)

    def clear(self) -> None:
        """Remove every triple.

        The term dictionary is kept: IDs remain stable across ``clear`` so
        external holders of IDs (caches, statistics) stay valid.
        """
        if len(self._spo):
            self._version += 1
        self._spo = PermutationIndex()
        self._pos = PermutationIndex()
        self._osp = PermutationIndex()
        # A cleared store's net change is "everything the snapshot had is
        # gone" — cheaper to re-snapshot fully than to journal per triple.
        self._journal = None

    # ------------------------------------------------------------------ #
    # ID-level API (used by the SPARQL layer)
    # ------------------------------------------------------------------ #
    @property
    def dictionary(self) -> TermDictionary:
        """The store's term dictionary."""
        return self._dictionary

    @property
    def data_version(self) -> int:
        """Monotonic stamp changed by every mutation of the triple set.

        ``add``/``remove``/``bulk_load``/``clear`` bump it whenever they
        actually change the store, so two equal stamps guarantee identical
        content.  The SPARQL plan cache keys on this instead of the store
        size, which an add+remove pair leaves unchanged.
        """
        return self._version

    def term_id(self, term: Term) -> Optional[int]:
        """The dictionary ID of ``term``; ``None`` if it never occurred."""
        return self._dictionary.id_for(term)

    def term_for_id(self, tid: int) -> Term:
        """The term interned under ``tid``."""
        return self._dictionary.decode(tid)

    def contains_ids(self, s: int, p: int, o: int) -> bool:
        """Membership test in ID space — one SPO index probe."""
        return self._spo.contains(s, p, o)

    def match_ids(
        self,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        object: Optional[int] = None,
    ) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(s, p, o)`` ID triples matching the (wildcard) pattern.

        ``None`` in any position means "match anything".  This is the hot
        path of the SPARQL evaluator: every yielded value is a plain int.
        """
        s, p, o = subject, predicate, object
        if s is not None and p is not None and o is not None:
            if self.contains_ids(s, p, o):
                yield (s, p, o)
            return
        if s is not None and p is not None:
            for obj in self._spo.thirds(s, p):
                yield (s, p, obj)
            return
        if s is not None and o is not None:
            for pred in self._osp.thirds(o, s):
                yield (s, pred, o)
            return
        if s is not None:
            for pred, obj in self._spo.pairs(s):
                yield (s, pred, obj)
            return
        if p is not None and o is not None:
            for subj in self._pos.thirds(p, o):
                yield (subj, p, o)
            return
        if p is not None:
            for obj, subj in self._pos.pairs(p):
                yield (subj, p, obj)
            return
        if o is not None:
            for subj, pred in self._osp.pairs(o):
                yield (subj, pred, o)
            return
        yield from self._spo.triples()

    def sorted_run_ids(
        self,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        object: Optional[int] = None,
    ):
        """The sorted ID run of the single wildcard position of a pattern.

        Exactly two positions must be constant IDs; the returned sequence
        is the matching index's third-level container (IDs in ascending
        order) and must not be mutated.  This is what merge joins stream.
        """
        s, p, o = subject, predicate, object
        if s is not None and p is not None and o is None:
            return self._spo.sorted_thirds(s, p)
        if p is not None and o is not None and s is None:
            return self._pos.sorted_thirds(p, o)
        if s is not None and o is not None and p is None:
            return self._osp.sorted_thirds(o, s)
        raise StoreError("sorted_run_ids requires exactly two constant positions")

    def count_ids(
        self,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        object: Optional[int] = None,
    ) -> int:
        """Count matching triples in ID space from index bookkeeping only."""
        s, p, o = subject, predicate, object
        if s is not None and p is not None and o is not None:
            return 1 if self._spo.contains(s, p, o) else 0
        if s is not None and p is not None:
            return self._spo.third_count(s, p)
        if s is not None and o is not None:
            return self._osp.third_count(o, s)
        if s is not None:
            return self._spo.count_for_key(s)
        if p is not None and o is not None:
            return self._pos.third_count(p, o)
        if p is not None:
            return self._pos.count_for_key(p)
        if o is not None:
            return self._osp.count_for_key(o)
        return len(self._spo)

    def position_ids(
        self,
        position: str,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        object: Optional[int] = None,
    ) -> Iterator[int]:
        """IDs occurring in one triple ``position`` of the matching triples.

        The ``position`` being enumerated must itself be a wildcard.  Most
        shapes stream an index level directly; the shapes whose distinct
        values span several index keys may yield **duplicates** — callers
        wanting distinct IDs must deduplicate (the sharded store unions
        these streams across shards into a set, so it pays that cost only
        once).  Order is unspecified.
        """
        s, p, o = subject, predicate, object
        if position == "s":
            if p is not None and o is not None:
                return self._pos.thirds(p, o)
            if p is not None:
                return (sid for _, sid in self._pos.pairs(p))
            if o is not None:
                return self._osp.seconds(o)
            return self._spo.keys()
        if position == "p":
            if s is not None and o is not None:
                return self._osp.thirds(o, s)
            if s is not None:
                return self._spo.seconds(s)
            if o is not None:
                return (pid for _, pid in self._osp.pairs(o))
            return self._pos.keys()
        if position == "o":
            if s is not None and p is not None:
                return self._spo.thirds(s, p)
            if s is not None:
                return (oid for _, oid in self._spo.pairs(s))
            if p is not None:
                return self._pos.seconds(p)
            return self._osp.keys()
        raise StoreError(f"Unknown triple position: {position!r}")

    def count_distinct_ids(
        self,
        position: str,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        object: Optional[int] = None,
    ) -> int:
        """Distinct IDs in one triple ``position`` ("s"/"p"/"o") of the
        triples matching the given (wildcard) ID pattern.

        The ``position`` being counted must itself be a wildcard.  Every
        combination is answered from the indexes without materialising
        terms or solutions; most shapes are O(1) key/length lookups, while
        the shapes that reduce to ``distinct_third_count`` union the
        per-key ID runs (O(matching facts)).  This backs the SPARQL
        layer's ``COUNT(DISTINCT ?v)`` fast path.
        """
        s, p, o = subject, predicate, object
        if position == "s":
            if p is not None and o is not None:
                return self._pos.third_count(p, o)
            if p is not None:
                return self._pos.distinct_third_count(p)
            if o is not None:
                return self._osp.second_count_for_key(o)
            return self._spo.key_count()
        if position == "p":
            if s is not None and o is not None:
                return self._osp.third_count(o, s)
            if s is not None:
                return self._spo.second_count_for_key(s)
            if o is not None:
                return self._osp.distinct_third_count(o)
            return self._pos.key_count()
        if position == "o":
            if s is not None and p is not None:
                return self._spo.third_count(s, p)
            if s is not None:
                return self._spo.distinct_third_count(s)
            if p is not None:
                return self._pos.second_count_for_key(p)
            return self._osp.key_count()
        raise StoreError(f"Unknown triple position: {position!r}")

    # ------------------------------------------------------------------ #
    # Lookup (Term-level public API)
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._spo)

    def _stored_ids(self, triple: object) -> Optional[Tuple[int, int, int]]:
        """The ID triple of ``triple`` if the store holds it, else ``None``."""
        if not isinstance(triple, Triple):
            return None
        id_for = self._dictionary.id_for
        s = id_for(triple.subject)
        p = id_for(triple.predicate)
        o = id_for(triple.object)
        if s is None or p is None or o is None or not self._spo.contains(s, p, o):
            return None
        return s, p, o

    def __contains__(self, triple: object) -> bool:
        # The common case of _stored_ids inlined: terms the dictionary has
        # already resolved are one C-level map lookup each, and only a
        # miss pays for the snapshot-base search.
        if not isinstance(triple, Triple):
            return False
        get = self._resolved_id
        s = get(triple.subject)
        p = get(triple.predicate)
        o = get(triple.object)
        if s is None or p is None or o is None:
            return self._stored_ids(triple) is not None
        return self._spo.contains(s, p, o)

    def __iter__(self) -> Iterator[Triple]:
        """Every triple, in ascending SPO ID order."""
        return map(self._dictionary.decode_triple, self._spo.triples())

    def __repr__(self) -> str:
        return f"TripleStore(name={self.name!r}, size={len(self)})"

    def _resolve(self, term: Optional[Term]):
        """Map a pattern position to an ID, ``None`` (wildcard) or ``_MISS``."""
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
        """Yield all triples matching the given (possibly wildcard) pattern.

        ``None`` in any position means "match anything".  Triples come in
        the order of the index that answers the pattern.
        """
        s = self._resolve(subject)
        p = self._resolve(predicate)
        o = self._resolve(object)
        if s is _MISS or p is _MISS or o is _MISS:
            return
        yield from map(self._dictionary.decode_triple, self.match_ids(s, p, o))

    def match_pattern(self, pattern: TriplePattern) -> Iterator[Triple]:
        """:meth:`match` taking a :class:`~repro.rdf.triple.TriplePattern`."""
        return self.match(pattern.subject, pattern.predicate, pattern.object)

    def count(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[IRI] = None,
        object: Optional[Term] = None,
    ) -> int:
        """Count matching triples without materialising any.

        Every pattern shape — including ``(s, p, ?)`` and ``(?, p, o)`` —
        is answered from index key counts.
        """
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
        decode = self._dictionary.decode
        return sorted(
            (decode(pid) for pid in self._pos.keys()),  # type: ignore[misc]
            key=lambda p: p.value,
        )

    def subjects(self, predicate: Optional[IRI] = None) -> Iterator[Term]:
        """Distinct subjects, optionally restricted to one predicate."""
        decode = self._dictionary.decode
        if predicate is None:
            for sid in self._spo.keys():
                yield decode(sid)
            return
        pid = self._dictionary.id_for(predicate)
        if pid is None:
            return
        seen: Set[int] = set()
        for _, sid in self._pos.pairs(pid):
            if sid not in seen:
                seen.add(sid)
                yield decode(sid)

    def objects(self, predicate: Optional[IRI] = None) -> Iterator[Term]:
        """Distinct objects, optionally restricted to one predicate."""
        decode = self._dictionary.decode
        if predicate is None:
            for oid in self._osp.keys():
                yield decode(oid)
            return
        pid = self._dictionary.id_for(predicate)
        if pid is None:
            return
        for oid in self._pos.seconds(pid):
            yield decode(oid)

    def objects_of(self, subject: Term, predicate: IRI) -> List[Term]:
        """All objects ``o`` such that ``(subject, predicate, o)`` is a fact."""
        sid = self._dictionary.id_for(subject)
        pid = self._dictionary.id_for(predicate)
        if sid is None or pid is None:
            return []
        decode = self._dictionary.decode
        return [decode(oid) for oid in self._spo.thirds(sid, pid)]

    def subjects_of(self, predicate: IRI, object: Term) -> List[Term]:
        """All subjects ``s`` such that ``(s, predicate, object)`` is a fact."""
        pid = self._dictionary.id_for(predicate)
        oid = self._dictionary.id_for(object)
        if pid is None or oid is None:
            return []
        decode = self._dictionary.decode
        return [decode(sid) for sid in self._pos.thirds(pid, oid)]

    def predicates_of(self, subject: Term) -> List[IRI]:
        """Distinct predicates appearing with ``subject`` as subject."""
        sid = self._dictionary.id_for(subject)
        if sid is None:
            return []
        decode = self._dictionary.decode
        return [decode(pid) for pid in self._spo.seconds(sid)]  # type: ignore[misc]

    def predicates_between(self, subject: Term, object: Term) -> List[IRI]:
        """Distinct predicates ``p`` with a fact ``(subject, p, object)``."""
        sid = self._dictionary.id_for(subject)
        oid = self._dictionary.id_for(object)
        if sid is None or oid is None:
            return []
        decode = self._dictionary.decode
        return [decode(pid) for pid in self._osp.thirds(oid, sid)]  # type: ignore[misc]

    def has_subject(self, subject: Term) -> bool:
        """Whether any fact has ``subject`` in subject position."""
        sid = self._dictionary.id_for(subject)
        return sid is not None and self._spo.has_key(sid)

    def entities(self) -> Set[Term]:
        """All IRIs/blank nodes appearing in subject or object position."""
        dictionary = self._dictionary
        entity_ids: Set[int] = set(self._spo.keys())
        entity_ids.update(
            oid for oid in self._osp.keys() if dictionary.is_entity_id(oid)
        )
        decode = dictionary.decode
        return {decode(tid) for tid in entity_ids}

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def predicate_statistics(self, predicate: IRI) -> PredicateStatistics:
        """Compute statistics for one predicate from the indexes."""
        pid = self._dictionary.id_for(predicate)
        if pid is None:
            return PredicateStatistics(predicate=predicate)
        return predicate_statistics_from_index(
            self._dictionary, self._pos, predicate, pid
        )

    def statistics(self) -> StoreStatistics:
        """Compute a full statistics snapshot."""
        stats = StoreStatistics(
            triple_count=len(self),
            predicate_count=self._pos.key_count(),
            subject_count=self._spo.key_count(),
            object_count=self._osp.key_count(),
        )
        decode = self._dictionary.decode
        predicate_stats: Dict[IRI, PredicateStatistics] = {}
        for pid in self._pos.keys():
            predicate = decode(pid)
            predicate_stats[predicate] = predicate_statistics_from_index(  # type: ignore[index]
                self._dictionary, self._pos, predicate, pid  # type: ignore[arg-type]
            )
        stats.predicates = predicate_stats
        return stats

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    def copy(self, name: Optional[str] = None) -> "TripleStore":
        """A deep-enough copy: terms are shared (immutable), indexes rebuilt."""
        return TripleStore(name=name or f"{self.name}-copy", triples=iter(self))


def _indexes(permutations) -> List[PermutationIndex]:
    """Three :class:`PermutationIndex` bases over
    :meth:`TripleStore._csr_permutations` columns."""
    return [
        PermutationIndex(*[memoryview(column) for column in columns])
        for columns in permutations
    ]
