"""Disk-backed columnar snapshots with mmap reopen.

This module gives the storage engine a second, *persistent* representation:
a versioned binary snapshot that serialises the term dictionary (string
heap + offset table) and each index order's sorted ID columns, and that
reopens without re-sorting or re-interning anything — the cold store's
index bases are :class:`~repro.store.index.PermutationIndex` column views
straight over the mapped file, and its dictionary is a
:class:`~repro.store.dictionary.TermDictionary` whose base is the mapped
string heap, decoded term by term on demand.  The reopened store is the
same object a built one is; nothing on it depends on how it was made.
The planner, merge/hash joins, scatter router and O(1) COUNT
paths all read the same ``count_for_key`` / ``third_count`` /
``sorted_run_ids`` bookkeeping they read on a warm store.

Container layout (single file, all integers little-endian)::

    offset  size  field
    ------  ----  -----------------------------------------------------
    0       8     magic ``b"RPROSNAP"``
    8       4     u32: header length in bytes
    12      4     u32: CRC-32 of the header bytes
    16      n     header — canonical JSON (sorted keys, no whitespace)
    ...     -     zero padding to the next 8-byte boundary
    ...     -     section payloads, each zero-padded to 8 bytes

The header records ``{"kind", "version", "name", "triples", "terms",
"sections"}`` where ``sections`` maps each tag to ``[relative offset,
length, crc32]`` (offsets relative to the padded end of the header, so the
header's own size never feeds back into it).  Three container *kinds*
share the layout:

* ``"store"``      — dictionary sections + three index orders
  (``TripleStore.save`` / ``TripleStore.open``);
* ``"dictionary"`` — dictionary sections only (the shared per-directory
  file of a sharded snapshot);
* ``"columns"``    — index sections only (one per shard).

Dictionary sections: ``dict/heap`` (concatenated
:func:`~repro.store.dictionary.encode_term_record` records in ID order),
``dict/offsets`` (``terms + 1`` int64 record boundaries), ``dict/kinds``
(one kind byte per ID), ``dict/lookup`` (the ID permutation sorted by
record bytes, binary-searched by ``TermDictionary.id_for``).  Index
sections, for each order ``spo`` / ``pos`` / ``osp``: the five CSR
columns ``keys``, ``key_groups``, ``seconds``, ``group_starts``,
``thirds`` described on :class:`PermutationIndex`.  Saving folds the
store's index overlays into their bases first (:meth:`TripleStore._fold`)
and writes the base columns verbatim.

A sharded snapshot is a directory: ``manifest.json`` (shard topology +
self-CRC), one shared dictionary container and one columns container per
shard — every shard reopens over the same shared
:class:`~repro.store.dictionary.TermDictionary`, so the ID space survives
exactly.  Payload files carry a **generation
suffix** (``dictionary-g3.snap``, ``shard0-g3.snap``, ...) and the
manifest — which names its generation's files — is replaced *last* and
atomically: a crash anywhere mid-save leaves the previous manifest
pointing at the previous generation's untouched files, so the last good
snapshot always survives and mixed-generation opens are impossible.
Stale generations are swept after a successful save.

Every integrity failure — bad magic, bad version, truncation, any
section or header CRC mismatch, inconsistent column lengths — raises
:class:`~repro.errors.SnapshotCorruptError`; writers emit canonical bytes
(sorted dict iteration, deterministic term records), so ``save → open →
save`` is byte-identical.
"""

from __future__ import annotations

import json
import mmap as _mmap
import os
import re
import sys
import zlib
from array import array
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import SnapshotCorruptError, StoreError
from repro.store.dictionary import TermDictionary, encode_term_record
from repro.store.index import PermutationIndex

MAGIC = b"RPROSNAP"
VERSION = 1

KIND_STORE = "store"
KIND_DICTIONARY = "dictionary"
KIND_COLUMNS = "columns"
#: Append-only snapshot delta: the terms interned since the base (a
#: dictionary-section tail) plus the net added/removed ID triples.
KIND_DELTA = "delta"

#: Index orders and the CSR columns serialised per order.
INDEX_ORDERS = ("spo", "pos", "osp")
INDEX_COLUMNS = ("keys", "key_groups", "seconds", "group_starts", "thirds")
DICT_SECTIONS = ("dict/heap", "dict/offsets", "dict/kinds", "dict/lookup")
DELTA_TERM_SECTIONS = ("dterms/heap", "dterms/offsets", "dterms/kinds")
DELTA_ADD_SECTIONS = ("add/s", "add/p", "add/o")
DELTA_DEL_SECTIONS = ("del/s", "del/p", "del/o")

MANIFEST_NAME = "manifest.json"

#: Generation-tagged payload file names of a sharded snapshot directory.
_GENERATION_PATTERN = re.compile(r"-g(\d+)\.snap$")

_PREFIX_LEN = 16  # magic + header length + header crc


def _pad8(length: int) -> int:
    return (-length) % 8


def _canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _int64_bytes(column) -> bytes:
    """Little-endian int64 bytes of a column (array / memoryview / list)."""
    if isinstance(column, memoryview) and sys.byteorder == "little":
        return column.tobytes()
    values = column if isinstance(column, array) else array("q", column)
    if sys.byteorder == "big":  # pragma: no cover - big-endian hosts only
        values = array("q", values)
        values.byteswap()
    return values.tobytes()


def _int64_view(section: memoryview, tag: str) -> memoryview:
    """An int64 view over one little-endian section payload."""
    if len(section) % 8:
        raise SnapshotCorruptError(
            f"Section {tag!r}: length {len(section)} is not a multiple of 8"
        )
    if sys.byteorder == "little":
        return section.cast("q")
    values = array("q")  # pragma: no cover - big-endian hosts only
    values.frombytes(section.tobytes())
    values.byteswap()
    return memoryview(values)


# --------------------------------------------------------------------- #
# Container writer / reader
# --------------------------------------------------------------------- #
def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` via a same-directory temp file + ``os.replace``.

    A crash mid-save can therefore never destroy the previous snapshot,
    and a sibling process that already mmap'd the old file keeps reading
    its (still-valid) inode instead of seeing a truncation window.
    """
    temp = path.with_name(path.name + ".tmp")
    temp.write_bytes(data)
    os.replace(temp, path)


def write_container(
    path: Union[str, Path],
    kind: str,
    name: str,
    sections: List[Tuple[str, bytes]],
    triples: int,
    terms: int,
    extra: Optional[dict] = None,
) -> None:
    """Serialise one snapshot container to ``path`` (canonical bytes,
    atomically replaced).

    ``extra`` merges additional keys into the header (delta containers
    record their base-generation linkage there).  Every header also
    carries a ``chain`` stamp — a CRC over the concatenated section
    payloads, i.e. a deterministic content fingerprint — which delta
    files copy as ``base_chain`` so a reopened chain can tell whether the
    deltas next to a base file actually belong to it (a crashed
    ``compact`` leaves stale deltas behind; the stamp makes them inert).
    """
    table: Dict[str, List[int]] = {}
    offset = 0
    chain = 0
    payloads = []
    for tag, payload in sections:
        table[tag] = [offset, len(payload), zlib.crc32(payload)]
        payloads.append(payload)
        chain = zlib.crc32(payload, chain)
        offset += len(payload) + _pad8(len(payload))
    body = {
        "kind": kind,
        "version": VERSION,
        "name": name,
        "triples": triples,
        "terms": terms,
        "chain": chain,
        "sections": table,
    }
    if extra:
        body.update(extra)
    header = _canonical_json(body).encode("utf-8")
    parts = [MAGIC, len(header).to_bytes(4, "little"),
             zlib.crc32(header).to_bytes(4, "little"), header,
             b"\0" * _pad8(_PREFIX_LEN + len(header))]
    for payload in payloads:
        parts.append(payload)
        parts.append(b"\0" * _pad8(len(payload)))
    _atomic_write_bytes(Path(path), b"".join(parts))


def read_container(
    buffer, kind: str, verify: bool = True
) -> Tuple[dict, Dict[str, memoryview]]:
    """Parse and validate one container; returns (header, section views).

    ``buffer`` is the raw file content (``bytes`` or ``mmap``).  With
    ``verify`` every section's CRC-32 is checked against the header (one
    sequential pass over the file — still far cheaper than a rebuild);
    the header's own CRC, the magic, the version and all structural
    bounds are checked unconditionally.
    """
    view = memoryview(buffer)
    if len(view) < _PREFIX_LEN:
        raise SnapshotCorruptError(f"Snapshot truncated: {len(view)} bytes")
    if bytes(view[:8]) != MAGIC:
        raise SnapshotCorruptError("Bad snapshot magic (not a repro snapshot)")
    header_len = int.from_bytes(view[8:12], "little")
    header_crc = int.from_bytes(view[12:16], "little")
    if _PREFIX_LEN + header_len > len(view):
        raise SnapshotCorruptError("Snapshot truncated inside the header")
    header_bytes = bytes(view[_PREFIX_LEN : _PREFIX_LEN + header_len])
    if zlib.crc32(header_bytes) != header_crc:
        raise SnapshotCorruptError("Snapshot header checksum mismatch")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SnapshotCorruptError(f"Snapshot header unparsable: {error}") from None
    if header.get("version") != VERSION:
        raise SnapshotCorruptError(
            f"Unsupported snapshot version: {header.get('version')!r}"
        )
    if header.get("kind") != kind:
        raise SnapshotCorruptError(
            f"Expected a {kind!r} snapshot, found {header.get('kind')!r}"
        )
    base = _PREFIX_LEN + header_len
    base += _pad8(base)
    table = header.get("sections")
    if not isinstance(table, dict):
        raise SnapshotCorruptError("Snapshot header has no section table")
    views: Dict[str, memoryview] = {}
    for tag, entry in table.items():
        if not (isinstance(entry, list) and len(entry) == 3):
            raise SnapshotCorruptError(f"Malformed section entry for {tag!r}")
        offset, length, crc = entry
        start = base + offset
        if offset < 0 or length < 0 or start + length > len(view):
            raise SnapshotCorruptError(f"Section {tag!r} exceeds the snapshot file")
        section = view[start : start + length]
        if verify and zlib.crc32(section) != crc:
            raise SnapshotCorruptError(f"Section {tag!r} checksum mismatch")
        views[tag] = section
    return header, views


def _load_buffer(path: Union[str, Path], use_mmap: bool):
    """The file's content as an mmap (default) or an in-memory bytes copy."""
    path = Path(path)
    try:
        if use_mmap:
            with open(path, "rb") as handle:
                return _mmap.mmap(handle.fileno(), 0, access=_mmap.ACCESS_READ)
        return path.read_bytes()
    except FileNotFoundError:
        raise
    except (ValueError, OSError) as error:
        raise SnapshotCorruptError(f"Cannot map snapshot {path}: {error}") from None


# --------------------------------------------------------------------- #
# Section builders
# --------------------------------------------------------------------- #
def dictionary_sections(dictionary: TermDictionary) -> List[Tuple[str, bytes]]:
    """The four dictionary sections (the snapshot base verbatim, then the
    records of the terms appended since)."""
    heap, offsets, kinds, lookup = dictionary.snapshot_columns()
    return [
        ("dict/heap", bytes(heap)),
        ("dict/offsets", _int64_bytes(offsets)),
        ("dict/kinds", bytes(kinds)),
        ("dict/lookup", _int64_bytes(lookup)),
    ]


def index_sections(store) -> List[Tuple[str, bytes]]:
    """The fifteen CSR sections of a store's three index orders.

    Folds the store's index overlays first, so the base columns are the
    whole content and go out verbatim.
    """
    if not store.is_frozen:
        store._fold()
    return [
        (f"{order}/{column_name}", _int64_bytes(column))
        for order in INDEX_ORDERS
        for column_name, column in zip(
            INDEX_COLUMNS, getattr(store, f"_{order}").columns()
        )
    ]


def delta_term_sections(
    dictionary: TermDictionary, start: int
) -> List[Tuple[str, bytes]]:
    """The dictionary-tail sections of a delta: records for IDs
    ``[start, len(dictionary))`` in the base heap/offsets/kinds layout
    (offsets relative to the tail's own heap)."""
    heap = bytearray()
    offsets = array("q", [0])
    kinds = bytearray()
    for tid in range(start, len(dictionary)):
        heap += encode_term_record(dictionary.decode(tid))
        offsets.append(len(heap))
        kinds.append(dictionary.kind(tid))
    return [
        ("dterms/heap", bytes(heap)),
        ("dterms/offsets", _int64_bytes(offsets)),
        ("dterms/kinds", bytes(kinds)),
    ]


def delta_triple_sections(added, removed) -> List[Tuple[str, bytes]]:
    """The six ID-triple columns of a delta (sorted for determinism)."""
    sections: List[Tuple[str, bytes]] = []
    for tags, triples in ((DELTA_ADD_SECTIONS, added), (DELTA_DEL_SECTIONS, removed)):
        rows = sorted(triples)
        for position, tag in enumerate(tags):
            sections.append(
                (tag, _int64_bytes(array("q", (row[position] for row in rows))))
            )
    return sections


def _delta_columns(views: Dict[str, memoryview], tags) -> List[memoryview]:
    columns = []
    for tag in tags:
        if tag not in views:
            raise SnapshotCorruptError(f"Delta snapshot missing section {tag!r}")
        columns.append(_int64_view(views[tag], tag))
    if len({len(column) for column in columns}) > 1:
        raise SnapshotCorruptError("Delta triple columns have unequal lengths")
    return columns


def _apply_deltas(
    store,
    dictionary: TermDictionary,
    delta_paths: List[Path],
    mmap: bool,
    verify: bool,
    apply_terms: bool,
    base_chain: Optional[int] = None,
):
    """Replay a delta chain over a freshly opened base store.

    Returns a new frozen store holding the base content with every
    delta's removals dropped and additions appended (rebuilt through
    :meth:`TripleStore.from_id_columns`, so all three permutations come
    back sorted/CSR exactly as a direct save of the final state would).
    With ``apply_terms`` each delta's dictionary tail extends
    ``dictionary`` first — the sharded open applies dictionary deltas
    once per directory instead and passes ``apply_terms=False`` for the
    per-shard chains.

    ``base_chain`` (single-file chains) is the base header's content
    stamp: deltas whose ``base_chain`` differs are stale leftovers of a
    crashed :func:`compact_store` and are ignored from that point on.
    When it is ``None`` the caller's file list is authoritative (the
    sharded manifest is replaced atomically and names exactly the deltas
    that apply), so no link validation happens — sharded per-shard
    deltas deliberately carry no ``base_chain`` stamp.
    """
    from repro.store.triplestore import TripleStore

    deltas = []
    validate = base_chain is not None
    chain = base_chain
    for path in delta_paths:
        buffer = _load_buffer(path, use_mmap=mmap)
        header, views = read_container(buffer, kind=KIND_DELTA, verify=verify)
        if validate and header.get("base_chain") != chain:
            # Stale chain from a folded base: everything from here on
            # describes a previous generation and must not replay.
            break
        chain = header.get("chain")
        deltas.append((header, views, buffer))
    if not deltas:
        return store
    if apply_terms:
        for header, views, _ in deltas:
            offsets = _int64_view(views["dterms/offsets"], "dterms/offsets")
            if len(offsets) <= 1:
                continue
            if header.get("base_terms") != len(dictionary):
                raise SnapshotCorruptError(
                    "Delta chain term counts are inconsistent with the base"
                )
            dictionary.extend_tail(
                views["dterms/heap"], offsets, views["dterms/kinds"]
            )
    total_removed = sum(
        len(_int64_view(views[DELTA_DEL_SECTIONS[0]], DELTA_DEL_SECTIONS[0]))
        for _, views, _ in deltas
        if DELTA_DEL_SECTIONS[0] in views
    )
    s_rows, p_rows, o_rows = store._spo.rows()
    if total_removed == 0:
        # Append-only chain: adds are new by journal construction, so the
        # final columns are a plain concatenation.
        parts = [[s_rows], [p_rows], [o_rows]]
        for _, views, _ in deltas:
            for part, column in zip(parts, _delta_columns(views, DELTA_ADD_SECTIONS)):
                part.append(np.asarray(column))
        s_rows, p_rows, o_rows = (np.concatenate(part) for part in parts)
    else:
        current = set(zip(s_rows.tolist(), p_rows.tolist(), o_rows.tolist()))
        for _, views, _ in deltas:
            dels = _delta_columns(views, DELTA_DEL_SECTIONS)
            for row in zip(*dels):
                if row not in current:
                    raise SnapshotCorruptError(
                        "Delta removes a triple the chain never held"
                    )
                current.discard(row)
            adds = _delta_columns(views, DELTA_ADD_SECTIONS)
            current.update(zip(*adds))
        s_rows = array("q")
        p_rows = array("q")
        o_rows = array("q")
        for s, p, o in current:
            s_rows.append(s)
            p_rows.append(p)
            o_rows.append(o)
    replayed = TripleStore.from_id_columns(
        store.name, dictionary, s_rows, p_rows, o_rows
    )
    expected = deltas[-1][0].get("triples")
    if len(replayed) != expected:
        raise SnapshotCorruptError(
            f"Delta chain replays to {len(replayed)} triples, "
            f"the last delta recorded {expected}"
        )
    # The dictionary's views may alias the base buffer; keep it (the
    # delta buffers may go — extend_tail decoded what it needed).
    replayed._snapshot_retained = store._snapshot_retained
    return replayed


def _build_dictionary(
    header: dict, sections: Dict[str, memoryview]
) -> TermDictionary:
    for tag in DICT_SECTIONS:
        if tag not in sections:
            raise SnapshotCorruptError(f"Snapshot missing section {tag!r}")
    offsets = _int64_view(sections["dict/offsets"], "dict/offsets")
    terms = header.get("terms")
    if len(offsets) != (terms or 0) + 1:
        raise SnapshotCorruptError(
            f"Dictionary offset table has {len(offsets)} entries for {terms} terms"
        )
    heap = sections["dict/heap"]
    if len(offsets) and (offsets[0] != 0 or offsets[len(offsets) - 1] != len(heap)):
        raise SnapshotCorruptError("Dictionary offsets do not span the string heap")
    try:
        return TermDictionary(
            heap=heap,
            offsets=offsets,
            kinds=sections["dict/kinds"],
            lookup=_int64_view(sections["dict/lookup"], "dict/lookup"),
        )
    except Exception as error:
        raise SnapshotCorruptError(f"Dictionary sections inconsistent: {error}") from None


def _build_index(
    order: str, header: dict, sections: Dict[str, memoryview]
) -> PermutationIndex:
    views = []
    for column_name in INDEX_COLUMNS:
        tag = f"{order}/{column_name}"
        if tag not in sections:
            raise SnapshotCorruptError(f"Snapshot missing section {tag!r}")
        views.append(_int64_view(sections[tag], tag))
    keys, key_groups, seconds, group_starts, thirds = views
    triples = header.get("triples")
    if (
        len(key_groups) != len(keys) + 1
        or len(group_starts) != len(seconds) + 1
        or (len(key_groups) and key_groups[len(key_groups) - 1] != len(seconds))
        or (len(group_starts) and group_starts[len(group_starts) - 1] != len(thirds))
        or len(thirds) != triples
    ):
        raise SnapshotCorruptError(f"Index order {order!r} columns are inconsistent")
    return PermutationIndex(keys, key_groups, seconds, group_starts, thirds)


# --------------------------------------------------------------------- #
# Single-store snapshots
# --------------------------------------------------------------------- #
def save_store(store, path: Union[str, Path]) -> None:
    """Write ``store`` (and its dictionary) as one snapshot file."""
    sections = dictionary_sections(store.dictionary) + index_sections(store)
    write_container(
        path,
        kind=KIND_STORE,
        name=store.name,
        sections=sections,
        triples=len(store),
        terms=len(store.dictionary),
    )
    store.reset_journal()


def open_store(
    path: Union[str, Path],
    mmap: bool = True,
    verify: bool = True,
    _kind: str = KIND_STORE,
    _dictionary: Optional[TermDictionary] = None,
    _expected_terms: Optional[int] = None,
    _delta_paths: Optional[List[Path]] = None,
):
    """Reopen a snapshot written by :func:`save_store`.

    With ``mmap`` (the default) the file is mapped read-only and every
    column is a zero-copy view over it — open time is O(header +
    checksums), independent of how many triples the store holds, and
    resident memory grows only with the pages a workload actually
    touches.  ``mmap=False`` reads the file into one bytes object instead
    (same structures, no page-cache dependence).  ``verify=False`` skips
    the per-section CRC pass (structural checks still run).

    Deltas appended by :func:`save_store_delta` replay transparently:
    for a ``store`` container the consecutive ``<path>.d1, .d2, ...``
    siblings are discovered automatically; sharded opens pass the
    manifest's per-shard delta files via ``_delta_paths`` (and the shard
    base file's term count via ``_expected_terms``, since the shared
    dictionary has already grown past it).
    """
    from repro.store.triplestore import TripleStore

    path = Path(path)
    buffer = _load_buffer(path, use_mmap=mmap)
    header, sections = read_container(buffer, kind=_kind, verify=verify)
    if _dictionary is None:
        dictionary = _build_dictionary(header, sections)
    else:
        dictionary = _dictionary
        expected = len(dictionary) if _expected_terms is None else _expected_terms
        if header.get("terms") != expected:
            raise SnapshotCorruptError(
                f"Shard snapshot was written against {header.get('terms')} terms, "
                f"expected {expected}"
            )
    indexes = {
        order: _build_index(order, header, sections) for order in INDEX_ORDERS
    }
    name = header.get("name")
    store = TripleStore._from_snapshot(
        name=name if isinstance(name, str) else "store",
        dictionary=dictionary,
        spo=indexes["spo"],
        pos=indexes["pos"],
        osp=indexes["osp"],
        retained=buffer,
    )
    if _delta_paths is None and _kind == KIND_STORE:
        _delta_paths = _scan_delta_paths(path)
    if _delta_paths:
        store = _apply_deltas(
            store,
            dictionary,
            _delta_paths,
            mmap=mmap,
            verify=verify,
            apply_terms=_dictionary is None,
            base_chain=header.get("chain") if _dictionary is None else None,
        )
    return store


# --------------------------------------------------------------------- #
# Single-store delta chains
# --------------------------------------------------------------------- #
def _delta_path(path: Path, sequence: int) -> Path:
    """The ``sequence``-th delta sibling of a single-file snapshot."""
    return path.with_name(f"{path.name}.d{sequence}")


def _scan_delta_paths(path: Path) -> List[Path]:
    """The consecutive existing delta siblings of ``path`` (``.d1``,
    ``.d2``, ... until the first gap — later files are unreachable)."""
    paths: List[Path] = []
    sequence = 1
    while True:
        candidate = _delta_path(path, sequence)
        if not candidate.exists():
            return paths
        paths.append(candidate)
        sequence += 1


def _chain_state(path: Path, verify: bool = True) -> Tuple[int, int, int, int]:
    """Walk the snapshot chain rooted at ``path``.

    Returns ``(chain, terms, triples, next_sequence)`` describing the
    state a reopen of ``path`` would reconstruct: the content stamp of
    the last valid chain link, the term/triple counts it recorded, and
    the sequence number the next delta should take.  Stale deltas (their
    ``base_chain`` does not continue the chain — leftovers of a crashed
    compact) terminate the walk exactly as :func:`_apply_deltas` would
    ignore them.
    """
    buffer = _load_buffer(path, use_mmap=True)
    header, _ = read_container(buffer, kind=KIND_STORE, verify=verify)
    chain = header.get("chain")
    terms = header.get("terms")
    triples = header.get("triples")
    sequence = 1
    for delta in _scan_delta_paths(path):
        delta_header, _ = read_container(
            _load_buffer(delta, use_mmap=True), kind=KIND_DELTA, verify=verify
        )
        if delta_header.get("base_chain") != chain:
            break
        chain = delta_header.get("chain")
        terms = delta_header.get("terms")
        triples = delta_header.get("triples")
        sequence += 1
    return chain, terms, triples, sequence


def save_store_delta(store, path: Union[str, Path]) -> bool:
    """Append the store's journal as one delta next to its base snapshot.

    The delta records only the terms interned since the chain's tip and
    the net added/removed ID triples, in the same checksummed container
    format as a full save — orders of magnitude smaller than rewriting a
    large store for a small mutation burst.  Returns ``False`` (writing
    nothing) when the store state already matches the chain tip.

    Raises :class:`~repro.errors.StoreError` when no base snapshot
    exists at ``path``, the journal was lost (``clear()`` or overflow),
    or the journal does not bridge the chain tip to the live state (the
    base belongs to some other store) — callers fall back to a full
    :func:`save_store`.
    """
    path = Path(path)
    journal = store.journal
    if journal is None:
        raise StoreError(
            "Mutation journal was lost (clear() or overflow); "
            "a delta cannot capture the state — use save()"
        )
    if not path.exists():
        raise StoreError(f"No base snapshot at {path} to append a delta to")
    chain, base_terms, base_triples, sequence = _chain_state(path)
    added, removed = journal
    if not added and not removed and base_terms == len(store.dictionary):
        return False
    if (
        not isinstance(base_terms, int)
        or not isinstance(base_triples, int)
        or base_terms > len(store.dictionary)
        or base_triples + len(added) - len(removed) != len(store)
    ):
        raise StoreError(
            f"Journal ({len(added)} added, {len(removed)} removed) does not "
            f"bridge the snapshot chain at {path} ({base_triples} triples, "
            f"{base_terms} terms) to the live store ({len(store)} triples, "
            f"{len(store.dictionary)} terms) — use save()"
        )
    sections = delta_term_sections(store.dictionary, base_terms)
    sections.extend(delta_triple_sections(added, removed))
    write_container(
        _delta_path(path, sequence),
        kind=KIND_DELTA,
        name=store.name,
        sections=sections,
        triples=len(store),
        terms=len(store.dictionary),
        extra={
            "base_chain": chain,
            "base_terms": base_terms,
            "base_triples": base_triples,
            "added": len(added),
            "removed": len(removed),
            "sequence": sequence,
        },
    )
    store.reset_journal()
    return True


def compact_store(store, path: Union[str, Path]) -> None:
    """Fold the delta chain at ``path`` into a fresh base snapshot.

    Writes the store's full current state as the new base (atomically
    replacing the old one) and unlinks the now-folded delta files.  A
    crash between the two steps is safe: the leftover deltas no longer
    continue the new base's ``chain`` stamp, so reopen ignores them.
    """
    path = Path(path)
    save_store(store, path)
    for delta in _scan_delta_paths(path):
        try:
            delta.unlink()
        except OSError:  # pragma: no cover - concurrent sweep
            pass


# --------------------------------------------------------------------- #
# Sharded snapshots (directory: manifest + shared dictionary + shards)
# --------------------------------------------------------------------- #
def _next_generation(directory: Path) -> int:
    """One past the highest generation suffix present in ``directory``.

    Scans file names rather than trusting the manifest, so a corrupt
    manifest can never cause a new save to overwrite the files an old
    manifest might still (partially) describe.
    """
    highest = 0
    for entry in directory.iterdir():
        match = _GENERATION_PATTERN.search(entry.name)
        if match:
            highest = max(highest, int(match.group(1)))
    return highest + 1


def _shard_clean(shard) -> bool:
    """True when the shard's net content provably equals its last
    snapshot point (journal intact and empty)."""
    journal = shard.journal
    return journal is not None and not journal[0] and not journal[1]


def _previous_manifest(store, directory: Path) -> Optional[dict]:
    """The directory's manifest, when it describes ``store``'s own last
    snapshot (same directory pin, same topology) — the precondition for
    reusing its files in an incremental save."""
    if getattr(store, "_snapshot_dir", None) != directory:
        return None
    try:
        previous = _read_manifest(directory)
    except (FileNotFoundError, SnapshotCorruptError):
        return None
    if (
        previous.get("name") != store.name
        or previous.get("num_shards") != store.num_shards
    ):
        return None
    return previous


def save_sharded_store(
    store, directory: Union[str, Path], compact: bool = False
) -> None:
    """Write a sharded store as a snapshot directory (crash-safe).

    The shared dictionary is serialised exactly once; each shard's index
    columns go to their own per-shard file so a process-based deployment
    can open shards independently.  New payload files carry a fresh
    generation suffix and the manifest — which names exactly its
    snapshot's files — is atomically replaced *last*: until that instant
    any reader (or a post-crash reopen) resolves the previous manifest
    to its intact files, and afterwards unreferenced generations are
    swept.  Journals reset only after the manifest is durable, so a
    crash mid-save never loses the ability to re-save (or delta-save)
    the same state.

    Saving back into the store's own last snapshot directory is
    incremental: shards whose journal is empty (net content unchanged)
    keep their existing files and delta chains, and the dictionary file
    is kept whenever the term count still matches (terms are
    append-only, so an equal count means identical content).  A fully
    clean re-save writes nothing at all.  With ``compact`` every
    delta-bearing file is folded into a fresh base instead — afterwards
    no chain remains.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    previous = _previous_manifest(store, directory)
    if previous is not None:
        journals = [shard.journal for shard in store.shards]
        if all(journal is not None for journal in journals):
            net = sum(len(added) - len(removed) for added, removed in journals)
            if previous["triples"] + net != len(store):
                # The journals do not bridge this manifest to the live
                # state (they were consumed by a save elsewhere and the
                # snapshot pin desynced): reusing "clean" shard files
                # would corrupt the snapshot.  Rewrite everything.
                previous = None
    generation = _next_generation(directory)
    terms = len(store.dictionary)
    reuse_dictionary = (
        previous is not None
        and previous["terms"] == terms
        and not (compact and previous["dictionary_deltas"])
    )
    if reuse_dictionary:
        dictionary_name = previous["dictionary"]
        dictionary_terms = previous["dictionary_terms"]
        dictionary_deltas = list(previous["dictionary_deltas"])
    else:
        dictionary_name = f"dictionary-g{generation}.snap"
        dictionary_terms = terms
        dictionary_deltas = []
    shard_entries = []
    rewritten = []
    for position, shard in enumerate(store.shards):
        entry = None
        if previous is not None and _shard_clean(shard):
            candidate = previous["shards"][position]
            if not (compact and candidate["deltas"]):
                entry = {
                    "file": candidate["file"],
                    "terms": candidate["terms"],
                    "deltas": list(candidate["deltas"]),
                }
        if entry is None:
            entry = {
                "file": f"shard{position}-g{generation}.snap",
                "terms": terms,
                "deltas": [],
            }
            rewritten.append((shard, entry["file"]))
        shard_entries.append(entry)
    if (
        previous is not None
        and reuse_dictionary
        and not rewritten
        and shard_entries == previous["shards"]
        and list(store.boundaries) == previous["boundaries"]
        and bool(store._bounded) == bool(previous["bounded"])
        and bool(store._skew_warned) == bool(previous.get("skew_warned", False))
        and store.skew_threshold == previous.get("skew_threshold", 4.0)
    ):
        return  # the snapshot on disk already equals the live state
    if not reuse_dictionary:
        write_container(
            directory / dictionary_name,
            kind=KIND_DICTIONARY,
            name=store.name,
            sections=dictionary_sections(store.dictionary),
            triples=len(store),
            terms=terms,
        )
    for shard, file_name in rewritten:
        write_container(
            directory / file_name,
            kind=KIND_COLUMNS,
            name=shard.name,
            sections=index_sections(shard),
            triples=len(shard),
            terms=terms,
        )
    body = {
        "format": "repro-sharded-snapshot",
        "version": VERSION,
        "generation": generation,
        "name": store.name,
        "num_shards": store.num_shards,
        "boundaries": list(store.boundaries),
        "bounded": store._bounded,
        "skew_threshold": store.skew_threshold,
        # The one-shot skew latch travels with the snapshot: a dataset
        # that already warned must not re-warn every time it is reopened
        # (worker respawns and serve() restarts reopen constantly).
        "skew_warned": bool(store._skew_warned),
        "terms": terms,
        "triples": len(store),
        "dictionary": dictionary_name,
        "dictionary_terms": dictionary_terms,
        "dictionary_deltas": dictionary_deltas,
        "shards": shard_entries,
    }
    body["crc32"] = zlib.crc32(_canonical_json(body).encode("utf-8"))
    _atomic_write_bytes(
        directory / MANIFEST_NAME,
        (json.dumps(body, sort_keys=True, indent=2) + "\n").encode("utf-8"),
    )
    for shard, _ in rewritten:
        shard.reset_journal()
    # The new manifest is durable; sweep payload files it does not name
    # (previous generations, leftovers of crashed saves).
    keep = {MANIFEST_NAME, dictionary_name, *dictionary_deltas}
    for entry in shard_entries:
        keep.add(entry["file"])
        keep.update(entry["deltas"])
    for item in directory.iterdir():
        if item.name not in keep and (
            _GENERATION_PATTERN.search(item.name) or item.name.endswith(".tmp")
        ):
            try:
                item.unlink()
            except OSError:  # pragma: no cover - concurrent sweep
                pass


def save_sharded_delta(store, directory: Union[str, Path]) -> bool:
    """Append the sharded store's journals as per-shard delta files.

    Writes one ``shard{i}-d{K}-g{G}.snap`` delta per shard with a
    non-empty journal (only its net added/removed ID triples) plus at
    most one ``dictionary-d{K}-g{G}.snap`` tail for terms interned since
    the manifest, then atomically replaces the manifest to reference the
    grown chains — untouched shards keep their files unread and
    unwritten, which is the point: a small mutation burst costs I/O
    proportional to the burst, not to the store.

    Returns ``False`` (writing nothing) when the directory already
    reflects the live state.  Raises :class:`~repro.errors.StoreError`
    when the directory is not this store's own last snapshot or any
    journal was lost — callers fall back to :func:`save_sharded_store`.
    """
    directory = Path(directory)
    previous = _previous_manifest(store, directory)
    if previous is None:
        raise StoreError(
            f"{directory} does not hold this store's snapshot — use save()"
        )
    for shard in store.shards:
        if shard.journal is None:
            raise StoreError(
                "A shard's mutation journal was lost (clear() or overflow); "
                "a delta cannot capture the state — use save()"
            )
    terms = len(store.dictionary)
    if not isinstance(previous["terms"], int) or previous["terms"] > terms:
        raise StoreError(
            f"Snapshot at {directory} records {previous['terms']} terms, "
            f"store holds {terms} — not this store's snapshot; use save()"
        )
    changed = [
        (position, shard)
        for position, shard in enumerate(store.shards)
        if not _shard_clean(shard)
    ]
    # The journals must bridge the manifest's state to the live store.
    # They don't when a full save into some *other* directory consumed
    # them since: writing a delta here would then record the new triple
    # count without the triples, corrupting the snapshot silently.
    net = sum(
        len(shard.journal[0]) - len(shard.journal[1]) for shard in store.shards
    )
    if previous["triples"] + net != len(store):
        raise StoreError(
            f"Journals (net {net:+d} triples) do not bridge the snapshot at "
            f"{directory} ({previous['triples']} triples) to the live store "
            f"({len(store)} triples) — they were consumed by a save "
            f"elsewhere; use save()"
        )
    grew = terms != previous["terms"]
    metadata_same = (
        list(store.boundaries) == previous["boundaries"]
        and bool(store._bounded) == bool(previous["bounded"])
        and bool(store._skew_warned) == bool(previous.get("skew_warned", False))
    )
    if not changed and not grew and metadata_same:
        return False
    generation = previous["generation"]
    dictionary_deltas = list(previous["dictionary_deltas"])
    if grew:
        sequence = len(dictionary_deltas) + 1
        name = f"dictionary-d{sequence}-g{generation}.snap"
        write_container(
            directory / name,
            kind=KIND_DELTA,
            name=store.name,
            sections=delta_term_sections(store.dictionary, previous["terms"]),
            triples=0,
            terms=terms,
            extra={"base_terms": previous["terms"], "sequence": sequence},
        )
        dictionary_deltas.append(name)
    shard_entries = [
        {
            "file": entry["file"],
            "terms": entry["terms"],
            "deltas": list(entry["deltas"]),
        }
        for entry in previous["shards"]
    ]
    for position, shard in changed:
        added, removed = shard.journal
        entry = shard_entries[position]
        sequence = len(entry["deltas"]) + 1
        file_name = f"shard{position}-d{sequence}-g{generation}.snap"
        write_container(
            directory / file_name,
            kind=KIND_DELTA,
            name=shard.name,
            sections=delta_triple_sections(added, removed),
            triples=len(shard),
            terms=terms,
            extra={
                "added": len(added),
                "removed": len(removed),
                "sequence": sequence,
            },
        )
        entry["deltas"].append(file_name)
    body = {
        "format": "repro-sharded-snapshot",
        "version": VERSION,
        "generation": generation,
        "name": store.name,
        "num_shards": store.num_shards,
        "boundaries": list(store.boundaries),
        "bounded": store._bounded,
        "skew_threshold": store.skew_threshold,
        "skew_warned": bool(store._skew_warned),
        "terms": terms,
        "triples": len(store),
        "dictionary": previous["dictionary"],
        "dictionary_terms": previous["dictionary_terms"],
        "dictionary_deltas": dictionary_deltas,
        "shards": shard_entries,
    }
    body["crc32"] = zlib.crc32(_canonical_json(body).encode("utf-8"))
    _atomic_write_bytes(
        directory / MANIFEST_NAME,
        (json.dumps(body, sort_keys=True, indent=2) + "\n").encode("utf-8"),
    )
    # Manifest durable; the journals it captured may now reset.  Orphans
    # of a crash before this point are swept by the next full save.
    for _, shard in changed:
        shard.reset_journal()
    return True


def _read_manifest(directory: Path) -> dict:
    path = directory / MANIFEST_NAME
    try:
        body = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as error:
        raise SnapshotCorruptError(f"Sharded manifest unparsable: {error}") from None
    if not isinstance(body, dict) or "crc32" not in body:
        raise SnapshotCorruptError("Sharded manifest has no checksum")
    recorded = body.pop("crc32")
    if zlib.crc32(_canonical_json(body).encode("utf-8")) != recorded:
        raise SnapshotCorruptError("Sharded manifest checksum mismatch")
    if body.get("version") != VERSION or body.get("format") != "repro-sharded-snapshot":
        raise SnapshotCorruptError(
            f"Unsupported sharded snapshot: format={body.get('format')!r} "
            f"version={body.get('version')!r}"
        )
    num_shards = body.get("num_shards")
    shards = body.get("shards")
    boundaries = body.get("boundaries")
    if (
        not isinstance(num_shards, int)
        or num_shards < 1
        or not isinstance(shards, list)
        or len(shards) != num_shards
        or not isinstance(boundaries, list)
        or len(boundaries) > max(0, num_shards - 1)
    ):
        raise SnapshotCorruptError("Sharded manifest topology is inconsistent")
    # Normalise to the delta-aware entry shape.  Pre-delta manifests
    # listed bare file names; every shard was then written against the
    # manifest's full term count and no chains existed.
    entries = []
    for entry in shards:
        if isinstance(entry, str):
            entry = {"file": entry, "terms": body.get("terms"), "deltas": []}
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("file"), str)
            or not isinstance(entry.setdefault("deltas", []), list)
        ):
            raise SnapshotCorruptError("Sharded manifest shard entry is malformed")
        entry.setdefault("terms", body.get("terms"))
        entries.append(entry)
    body["shards"] = entries
    body.setdefault("dictionary_terms", body.get("terms"))
    body.setdefault("dictionary_deltas", [])
    if not isinstance(body["dictionary_deltas"], list):
        raise SnapshotCorruptError("Sharded manifest dictionary chain is malformed")
    return body


def _open_shared_dictionary(
    directory: Path, manifest: dict, mmap: bool, verify: bool
) -> Tuple[TermDictionary, object]:
    """Open a sharded snapshot's shared dictionary file.

    The one prologue both the parent-side :func:`open_sharded_store` and
    the worker-side :func:`open_shard_stores` run — shared so the two
    paths can never diverge on dictionary validation, which is what the
    byte-identical worker ID space rests on.  Returns ``(dictionary,
    buffer)``; the buffer must stay referenced while the dictionary's
    views are alive.
    """
    dict_buffer = _load_buffer(directory / manifest["dictionary"], use_mmap=mmap)
    dict_header, dict_sections = read_container(
        dict_buffer, kind=KIND_DICTIONARY, verify=verify
    )
    if dict_header.get("terms") != manifest["dictionary_terms"]:
        raise SnapshotCorruptError(
            "Sharded manifest and dictionary snapshot disagree on term count"
        )
    dictionary = _build_dictionary(dict_header, dict_sections)
    for delta_name in manifest["dictionary_deltas"]:
        delta_buffer = _load_buffer(directory / delta_name, use_mmap=mmap)
        delta_header, delta_views = read_container(
            delta_buffer, kind=KIND_DELTA, verify=verify
        )
        if delta_header.get("base_terms") != len(dictionary):
            raise SnapshotCorruptError(
                "Dictionary delta chain term counts are inconsistent"
            )
        dictionary.extend_tail(
            delta_views["dterms/heap"],
            _int64_view(delta_views["dterms/offsets"], "dterms/offsets"),
            delta_views["dterms/kinds"],
        )
        # extend_tail decodes the records it keeps; the delta buffer may go.
    if len(dictionary) != manifest["terms"]:
        raise SnapshotCorruptError(
            "Dictionary delta chain does not reach the manifest's term count"
        )
    return dictionary, dict_buffer


def open_sharded_store(
    directory: Union[str, Path], mmap: bool = True, verify: bool = True
):
    """Reopen a directory written by :func:`save_sharded_store`."""
    from repro.shard.sharded_store import ShardedTripleStore

    directory = Path(directory)
    manifest = _read_manifest(directory)
    dictionary, dict_buffer = _open_shared_dictionary(
        directory, manifest, mmap, verify
    )
    shards = tuple(
        open_store(
            directory / entry["file"],
            mmap=mmap,
            verify=verify,
            _kind=KIND_COLUMNS,
            _dictionary=dictionary,
            _expected_terms=entry["terms"],
            _delta_paths=[directory / name for name in entry["deltas"]],
        )
        for entry in manifest["shards"]
    )
    if sum(len(shard) for shard in shards) != manifest["triples"]:
        raise SnapshotCorruptError(
            "Sharded manifest triple count does not match the shard snapshots"
        )
    return ShardedTripleStore._from_snapshot(
        name=manifest["name"],
        dictionary=dictionary,
        shards=shards,
        boundaries=list(manifest["boundaries"]),
        bounded=bool(manifest["bounded"]),
        skew_threshold=float(manifest.get("skew_threshold", 4.0)),
        skew_warned=bool(manifest.get("skew_warned", False)),
        retained=dict_buffer,
    )


def open_shard_stores(
    directory: Union[str, Path],
    shard_indices,
    mmap: bool = True,
    verify: bool = True,
):
    """Open a subset of a sharded snapshot's shards over one shared
    dictionary.

    This is the worker-process entry point of the process-parallel
    executor (:mod:`repro.shard.workers`): each worker mmap-opens *its*
    shard's columns file plus the shared dictionary file — nothing is
    pickled across the process boundary and nothing is re-interned, so
    the worker's ID space is byte-for-byte the parent's.

    Returns ``(stores, dictionary, manifest)`` where ``stores`` maps each
    requested shard index to its cold :class:`TripleStore`.
    """
    directory = Path(directory)
    manifest = _read_manifest(directory)
    dictionary, dict_buffer = _open_shared_dictionary(
        directory, manifest, mmap, verify
    )
    stores = {}
    for index in shard_indices:
        if not 0 <= index < manifest["num_shards"]:
            raise SnapshotCorruptError(
                f"Shard index {index} out of range for "
                f"{manifest['num_shards']}-shard snapshot"
            )
        entry = manifest["shards"][index]
        store = open_store(
            directory / entry["file"],
            mmap=mmap,
            verify=verify,
            _kind=KIND_COLUMNS,
            _dictionary=dictionary,
            _expected_terms=entry["terms"],
            _delta_paths=[directory / name for name in entry["deltas"]],
        )
        # The dictionary's heap/lookup views alias dict_buffer; retain it
        # alongside the shard's own buffer for the store's lifetime.
        store._snapshot_retained = (store._snapshot_retained, dict_buffer)
        stores[index] = store
    return stores, dictionary, manifest
