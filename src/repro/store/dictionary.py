"""Dictionary encoding of RDF terms.

A :class:`TermDictionary` interns every RDF term to a dense integer ID, the
way RDF-3X-style engines do: the storage and query layers then operate on
plain integers (cheap hashing, cheap equality, compact sorted containers)
and only materialise :class:`~repro.rdf.terms.Term` objects at the API
boundary.

IDs are assigned densely in interning order and are **stable for the
lifetime of the dictionary**: removing triples from a store, or clearing
it, never invalidates or reuses an ID.  This lets query results, caches and
statistics hold bare integers without worrying about remapping.

Snapshot support (:mod:`repro.store.persist`) serialises a dictionary as a
**string heap + offset table**: every term is encoded to a self-delimiting
byte record (:func:`encode_term_record`), the records are concatenated in
ID order, and an ``int64`` offset table of ``n + 1`` entries marks the
record boundaries.  :class:`LazyTermDictionary` reopens that layout without
re-interning anything: ``decode`` parses one record on demand (memoising
per ID) and ``id_for`` binary-searches a precomputed record-sorted ID
permutation, so a cold-opened store resolves query constants in
O(log n) record probes instead of paying an O(n) dictionary rebuild.  The
first *interning* call promotes the lazy dictionary to the fully writable
form transparently.
"""

from __future__ import annotations

from struct import Struct
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import StoreError
from repro.rdf.terms import BlankNode, IRI, Literal, Term
from repro.rdf.triple import Triple

#: Term-kind tags stored per ID (one byte each).
KIND_IRI = 0
KIND_BLANK = 1
KIND_LITERAL = 2

#: Literal payload sub-tags (see :func:`encode_term_record`).
_LIT_PLAIN = 0
_LIT_LANG = 1
_LIT_DATATYPE = 2

_U32 = Struct("<I")

#: Entries allowed in a lazy dictionary's id_for memo before it is
#: dropped and rebuilt — bounds the memory of long-lived read-only cold
#: stores probed with ever-new constants (misses are memoised too).
_ID_CACHE_LIMIT = 65536


def encode_term_record(term: Term) -> bytes:
    """Encode one term as a self-delimiting snapshot heap record.

    The encoding is injective and deterministic (required for the
    byte-identical round-trip guarantee and for binary-searching the
    record-sorted permutation):

    * ``IRI`` → ``0x00`` + UTF-8 IRI string;
    * ``BlankNode`` → ``0x01`` + UTF-8 label;
    * ``Literal`` → ``0x02`` + u32 length + UTF-8 lexical form + one
      sub-tag byte (plain / language / datatype) + UTF-8 tag payload.
    """
    if isinstance(term, IRI):
        return bytes((KIND_IRI,)) + term.value.encode("utf-8")
    if isinstance(term, BlankNode):
        return bytes((KIND_BLANK,)) + term.label.encode("utf-8")
    if isinstance(term, Literal):
        lexical = term.lexical.encode("utf-8")
        if term.language is not None:
            tag, payload = _LIT_LANG, term.language.encode("utf-8")
        elif term.datatype is not None:
            tag, payload = _LIT_DATATYPE, term.datatype.encode("utf-8")
        else:
            tag, payload = _LIT_PLAIN, b""
        return (
            bytes((KIND_LITERAL,))
            + _U32.pack(len(lexical))
            + lexical
            + bytes((tag,))
            + payload
        )
    raise StoreError(f"Cannot encode non-term value: {term!r}")


def decode_term_record(record) -> Term:
    """Rebuild the term encoded by :func:`encode_term_record`.

    Accepts any bytes-like object (a ``memoryview`` slice of the mmap'd
    heap on the lazy decode path).
    """
    record = bytes(record)
    if not record:
        raise StoreError("Empty term record")
    kind = record[0]
    if kind == KIND_IRI:
        return IRI(record[1:].decode("utf-8"))
    if kind == KIND_BLANK:
        return BlankNode(record[1:].decode("utf-8"))
    if kind == KIND_LITERAL:
        (lexical_len,) = _U32.unpack_from(record, 1)
        lexical = record[5 : 5 + lexical_len].decode("utf-8")
        tag = record[5 + lexical_len]
        payload = record[6 + lexical_len :].decode("utf-8")
        if tag == _LIT_LANG:
            return Literal(lexical, language=payload)
        if tag == _LIT_DATATYPE:
            return Literal(lexical, datatype=payload)
        if tag == _LIT_PLAIN:
            return Literal(lexical)
    raise StoreError(f"Malformed term record (kind byte {kind})")


class _InternMap(dict):
    """A ``Term -> ID`` dict that interns unknown terms on subscript miss.

    Lookups of already-interned terms — the overwhelming majority during
    bulk loads — stay entirely in C (`dict.__getitem__`); only a genuine
    miss drops into :meth:`__missing__` to assign the next dense ID and
    record the term and its kind byte.
    """

    __slots__ = ("_terms", "_kinds")

    def __init__(self, terms: List[Term], kinds: bytearray):
        super().__init__()
        self._terms = terms
        self._kinds = kinds

    def __missing__(self, term: Term) -> int:
        if isinstance(term, IRI):
            kind = KIND_IRI
        elif isinstance(term, Literal):
            kind = KIND_LITERAL
        elif isinstance(term, BlankNode):
            kind = KIND_BLANK
        else:
            raise StoreError(f"Cannot intern non-term value: {term!r}")
        tid = len(self._terms)
        self[term] = tid
        self._terms.append(term)
        self._kinds.append(kind)
        return tid


class TermDictionary:
    """A bidirectional mapping ``Term <-> dense integer ID``.

    The forward direction (:meth:`encode`) interns: unknown terms are
    assigned the next free ID.  The reverse direction (:meth:`decode`) is a
    list lookup.  A per-ID kind byte answers "is this a literal/entity?"
    without materialising the term — the statistics layer relies on this.
    """

    __slots__ = ("_ids", "_terms", "_kinds")

    def __init__(self) -> None:
        self._terms: List[Term] = []
        self._kinds = bytearray()
        self._ids: _InternMap = _InternMap(self._terms, self._kinds)

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: object) -> bool:
        return term in self._ids

    def __repr__(self) -> str:
        return f"TermDictionary(size={len(self._terms)})"

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def encode(self, term: Term) -> int:
        """Intern ``term``, returning its (possibly fresh) ID."""
        return self._ids[term]

    def id_for(self, term: Term) -> Optional[int]:
        """The ID of ``term`` without interning; ``None`` if unknown."""
        return self._ids.get(term)

    @property
    def ids_map(self) -> Dict[Term, int]:
        """The raw interning ``Term -> ID`` mapping.

        Exposed so hot paths can intern (subscript) or probe (``.get``)
        without a method call per term.  Subscripting interns on miss;
        callers must not mutate it any other way.
        """
        return self._ids

    def encode_triple(self, triple: Triple) -> Tuple[int, int, int]:
        """Intern all three positions of ``triple``."""
        return (
            self.encode(triple.subject),
            self.encode(triple.predicate),
            self.encode(triple.object),
        )

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #
    def decode(self, tid: int) -> Term:
        """The term interned under ``tid``.

        Raises
        ------
        StoreError
            If ``tid`` was never assigned.
        """
        try:
            return self._terms[tid]
        except IndexError:
            raise StoreError(f"Unknown term ID: {tid}") from None

    def decode_triple(self, ids: Tuple[int, int, int]) -> Triple:
        """Rebuild a :class:`Triple` from an ID triple."""
        terms = self._terms
        return Triple(terms[ids[0]], terms[ids[1]], terms[ids[2]])  # type: ignore[arg-type]

    def terms(self) -> Iterator[Term]:
        """All interned terms, in ID order."""
        return iter(self._terms)

    # ------------------------------------------------------------------ #
    # Kind queries (no term materialisation)
    # ------------------------------------------------------------------ #
    def kind(self, tid: int) -> int:
        """The kind tag (:data:`KIND_IRI` / `KIND_BLANK` / `KIND_LITERAL`)."""
        try:
            return self._kinds[tid]
        except IndexError:
            raise StoreError(f"Unknown term ID: {tid}") from None

    def is_literal_id(self, tid: int) -> bool:
        """Whether ``tid`` denotes a literal."""
        return self._kinds[tid] == KIND_LITERAL

    def kinds_of(self, tids: List[int]) -> bytes:
        """The kind tags of ``tids``, one byte per ID, in order.

        The column form of :meth:`kind`: the block kernels read it with
        ``np.frombuffer``.  It returns a copy, so no buffer view of the
        growing kind column outlives the call.
        """
        return bytes(map(self._kinds.__getitem__, tids))

    def is_entity_id(self, tid: int) -> bool:
        """Whether ``tid`` denotes an IRI or blank node."""
        return self._kinds[tid] != KIND_LITERAL

    # ------------------------------------------------------------------ #
    # Snapshot serialisation
    # ------------------------------------------------------------------ #
    def snapshot_columns(self) -> Tuple[bytes, object, bytes, object]:
        """The dictionary's snapshot sections.

        Returns ``(heap, offsets, kinds, lookup)``: the concatenated term
        records in ID order, the ``n + 1`` record-boundary offsets, the
        per-ID kind bytes, and the ID permutation sorted by record bytes
        (what :meth:`LazyTermDictionary.id_for` binary-searches).  The
        output is deterministic for a given term sequence, which is what
        makes saving an unmutated reopened store byte-identical.
        """
        from array import array

        heap = bytearray()
        offsets = array("q", [0])
        records: List[bytes] = []
        for term in self.terms():
            record = encode_term_record(term)
            records.append(record)
            heap += record
            offsets.append(len(heap))
        lookup = array("q", sorted(range(len(records)), key=records.__getitem__))
        return bytes(heap), offsets, bytes(self._kinds), lookup


class LazyTermDictionary(TermDictionary):
    """A read-only :class:`TermDictionary` view over snapshot sections.

    Construction is O(1) in the number of interned terms (one ``None``
    placeholder list aside): no record is parsed and no ``Term`` object is
    built until something asks for it.

    * :meth:`decode` parses the requested record from the heap on first
      use and memoises the term per ID;
    * :meth:`id_for` binary-searches the record-sorted ID permutation,
      comparing raw heap bytes — O(log n) probes, no interning;
    * the first call that must *intern* (``encode`` of an unknown term, or
      grabbing :attr:`ids_map` for a staging loop) transparently
      **promotes** the dictionary: every record is decoded once and the
      writable ``Term -> ID`` map is built, after which behaviour is
      exactly that of a warm :class:`TermDictionary`.
    """

    __slots__ = (
        "_heap",
        "_offsets",
        "_lookup",
        "_id_cache",
        "_promoted",
        "_base_count",
        "_tail_heap",
        "_tail_offsets",
        "_tail_kinds",
        "_tail_ids",
    )

    def __init__(
        self,
        heap: memoryview,
        offsets: memoryview,
        kinds: memoryview,
        lookup: memoryview,
    ):
        count = len(offsets) - 1
        if count < 0 or len(kinds) != count or len(lookup) != count:
            raise StoreError("Inconsistent dictionary snapshot sections")
        self._heap = heap
        self._offsets = offsets
        self._lookup = lookup
        # Memoised id_for results (misses included): the SPARQL evaluator
        # re-resolves a query's constant terms once per pattern probe, so
        # without this every probe would repeat the O(log n) record
        # search.  Safe because the dictionary is immutable until
        # promotion, and superseded by the real interning map afterwards.
        self._id_cache: Dict[Term, Optional[int]] = {}
        self._terms = [None] * count  # type: ignore[list-item]
        self._kinds = kinds  # type: ignore[assignment]
        self._ids = _InternMap([], bytearray())  # replaced on promotion
        self._promoted = False
        # Snapshot-delta tail: records appended by extend_tail() past the
        # base sections.  The tail stays outside the record-sorted lookup
        # permutation (recomputing it would be O(n log n) and defeat the
        # O(1 + tail) delta reopen); id_for consults the small exact-match
        # map for tail IDs instead.
        self._base_count = count
        self._tail_heap = bytearray()
        self._tail_offsets: List[int] = [0]
        self._tail_kinds = bytearray()
        self._tail_ids: Dict[bytes, int] = {}

    @property
    def is_promoted(self) -> bool:
        """Whether the writable interning map has been built."""
        return self._promoted

    def _record(self, tid: int):
        if tid < self._base_count:
            return self._heap[self._offsets[tid] : self._offsets[tid + 1]]
        index = tid - self._base_count
        return memoryview(self._tail_heap)[
            self._tail_offsets[index] : self._tail_offsets[index + 1]
        ]

    def extend_tail(self, heap, offsets, kinds) -> None:
        """Append snapshot-delta term records past the current ID space.

        ``heap``/``offsets``/``kinds`` have the same layout as the base
        dictionary sections (``offsets`` holds ``n + 1`` boundaries
        starting at 0).  The records receive the next dense IDs in order
        — exactly the IDs they held when the delta was written, which the
        persist layer validates via the delta's recorded base term count.
        Unpromoted, the tail is indexed by an exact-record map (the
        base lookup permutation is left untouched); a promoted dictionary
        interns the decoded terms directly.
        """
        count = len(offsets) - 1
        if count <= 0:
            return
        if self._promoted:
            ids = self._ids
            for index in range(count):
                ids[decode_term_record(heap[offsets[index] : offsets[index + 1]])]
            return
        start = len(self._terms)
        grown = len(self._tail_heap)
        self._tail_heap += bytes(heap)
        tail_offsets = self._tail_offsets
        for index in range(count):
            tail_offsets.append(grown + offsets[index + 1])
        self._tail_kinds += bytes(kinds)
        self._terms.extend([None] * count)
        tail_ids = self._tail_ids
        for index in range(count):
            tail_ids[bytes(self._record(start + index))] = start + index

    @property
    def has_tail(self) -> bool:
        """Whether delta term records were appended past the base sections."""
        return len(self._tail_offsets) > 1

    def _promote(self) -> None:
        """Build the writable interning state (idempotent)."""
        if self._promoted:
            return
        terms = self._terms
        for tid in range(len(terms)):
            if terms[tid] is None:
                terms[tid] = decode_term_record(self._record(tid))
        kinds = bytearray(self._kinds)
        kinds += self._tail_kinds
        ids = _InternMap(terms, kinds)
        ids.update((term, tid) for tid, term in enumerate(terms))
        self._kinds = kinds
        self._ids = ids
        self._promoted = True

    # -- encoding ------------------------------------------------------ #
    def encode(self, term: Term) -> int:
        tid = self.id_for(term)
        if tid is not None:
            return tid
        self._promote()
        return self._ids[term]

    def id_for(self, term: Term) -> Optional[int]:
        if self._promoted:
            return self._ids.get(term)
        cache = self._id_cache
        if term in cache:
            return cache[term]
        try:
            record = encode_term_record(term)
        except StoreError:
            return None  # non-term probe: the warm dict.get returns None too
        if self._tail_ids:
            tail_tid = self._tail_ids.get(record)
            if tail_tid is not None:
                cache[term] = tail_tid
                return tail_tid
        lookup = self._lookup
        low, high = 0, len(lookup)
        while low < high:
            mid = (low + high) // 2
            if bytes(self._record(lookup[mid])) < record:
                low = mid + 1
            else:
                high = mid
        tid: Optional[int] = None
        if low < len(lookup):
            candidate = lookup[low]
            if self._record(candidate) == record:
                tid = candidate
        if len(cache) >= _ID_CACHE_LIMIT:
            cache.clear()  # memo only — dropping it costs re-probes, not answers
        cache[term] = tid
        return tid

    @property
    def ids_map(self) -> Dict[Term, int]:
        self._promote()
        return self._ids

    def __contains__(self, term: object) -> bool:
        if self._promoted:
            return term in self._ids
        return self.id_for(term) is not None  # type: ignore[arg-type]

    # -- kind queries --------------------------------------------------- #
    def kind(self, tid: int) -> int:
        if not self._promoted and tid >= self._base_count:
            try:
                return self._tail_kinds[tid - self._base_count]
            except IndexError:
                raise StoreError(f"Unknown term ID: {tid}") from None
        return super().kind(tid)

    def kinds_of(self, tids: List[int]) -> bytes:
        if self._promoted or not self.has_tail:
            return super().kinds_of(tids)
        return bytes(map(self.kind, tids))

    def is_literal_id(self, tid: int) -> bool:
        kinds = self._kinds
        if self._promoted or tid < len(kinds):
            return kinds[tid] == KIND_LITERAL
        return self._tail_kinds[tid - self._base_count] == KIND_LITERAL

    def is_entity_id(self, tid: int) -> bool:
        return not self.is_literal_id(tid)

    # -- decoding ------------------------------------------------------ #
    def decode(self, tid: int) -> Term:
        try:
            term = self._terms[tid]
        except IndexError:
            raise StoreError(f"Unknown term ID: {tid}") from None
        if term is None:
            term = decode_term_record(self._record(tid))
            self._terms[tid] = term
        return term

    def decode_triple(self, ids: Tuple[int, int, int]) -> Triple:
        decode = self.decode
        return Triple(decode(ids[0]), decode(ids[1]), decode(ids[2]))  # type: ignore[arg-type]

    def terms(self) -> Iterator[Term]:
        return (self.decode(tid) for tid in range(len(self._terms)))

    # -- serialisation ------------------------------------------------- #
    def snapshot_columns(self) -> Tuple[bytes, object, bytes, object]:
        """Snapshot sections; raw views are passed through unpromoted.

        An unpromoted lazy dictionary hands back its original section
        bytes verbatim (no record is decoded), which both keeps resaving a
        cold store cheap and guarantees byte identity.  With a delta tail
        the heap/offsets/kinds concatenate (still no Term is decoded) and
        only the lookup permutation is recomputed over raw record bytes —
        the deterministic output a warm dictionary holding the same terms
        would produce.  Once promoted it falls back to the generic
        deterministic builder.
        """
        from array import array

        if self._promoted:
            return super().snapshot_columns()
        if not self.has_tail:
            return bytes(self._heap), self._offsets, bytes(self._kinds), self._lookup
        base_len = len(self._heap)
        heap = bytes(self._heap) + bytes(self._tail_heap)
        offsets = array("q", self._offsets)
        offsets.extend(base_len + bound for bound in self._tail_offsets[1:])
        kinds = bytes(self._kinds) + bytes(self._tail_kinds)
        lookup = array(
            "q",
            sorted(
                range(len(self._terms)),
                key=lambda tid: bytes(self._record(tid)),
            ),
        )
        return heap, offsets, kinds, lookup
