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
record boundaries.  A dictionary reopened from a snapshot keeps those
sections as its *base* and appends every later term past them, so a cold
store resolves query constants in O(log n) record probes and decodes a
term only when something asks for it, instead of paying an O(n)
dictionary rebuild.  A dictionary built in memory is the same class with
an empty base.
"""

from __future__ import annotations

from array import array
from heapq import merge
from struct import Struct
from typing import Dict, Iterator, List, Optional, Sequence, Tuple
from weakref import ref

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

#: Most absent terms the miss memo holds before it is dropped and rebuilt —
#: bounds the memory of long-lived cold stores probed with ever-new
#: constants.
_MISS_LIMIT = 65536


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
    snapshot heap).
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


def _kind_of(term: Term) -> int:
    """The kind tag of ``term``; raises for non-terms."""
    if isinstance(term, IRI):
        return KIND_IRI
    if isinstance(term, Literal):
        return KIND_LITERAL
    if isinstance(term, BlankNode):
        return KIND_BLANK
    raise StoreError(f"Cannot intern non-term value: {term!r}")


class _InternMap(dict):
    """A ``Term -> ID`` dict that interns unknown terms on subscript miss.

    Lookups of already-known terms — the overwhelming majority during
    bulk loads — stay entirely in C (`dict.__getitem__`); only a genuine
    miss drops into :meth:`__missing__`, which finds the term in the
    dictionary's snapshot base or assigns it the next dense ID.  The map
    holds its dictionary weakly: a reference cycle would keep a dropped
    dictionary and all its terms alive until a full garbage collection.
    """

    __slots__ = ("_dictionary",)

    def __init__(self, dictionary: "TermDictionary"):
        super().__init__()
        self._dictionary = ref(dictionary)

    def __missing__(self, term: Term) -> int:
        return self._dictionary()._intern(term)


class TermDictionary:
    """A bidirectional mapping ``Term <-> dense integer ID``.

    The forward direction (:meth:`encode`) interns: unknown terms are
    assigned the next free ID.  The reverse direction (:meth:`decode`) is a
    list lookup.  A per-ID kind byte answers "is this a literal/entity?"
    without materialising the term — the statistics layer relies on this.

    The optional arguments are a snapshot's dictionary sections (see
    :meth:`snapshot_columns`); they become the dictionary's **base**, IDs
    ``0 .. n-1``, whose records stay in the (usually mmap'd) heap and are
    not parsed up front.  :meth:`decode` parses a base record on first use.
    :meth:`id_for` and interning look in the map of appended and already
    resolved terms first, then binary-search the base's record-sorted ID
    permutation on raw heap bytes, and keep each hit.  Interned terms and
    snapshot-delta records (:meth:`extend_tail`) append past the base.  A
    dictionary built in memory has an empty base.
    """

    __slots__ = (
        "_ids",
        "_terms",
        "_kinds",
        "_heap",
        "_offsets",
        "_lookup",
        "_loaded",
        "_misses",
        "__weakref__",
    )

    def __init__(
        self,
        heap=b"",
        offsets: Sequence[int] = (0,),
        kinds=b"",
        lookup: Sequence[int] = (),
    ) -> None:
        count = len(offsets) - 1
        if count < 0 or len(kinds) != count or len(lookup) != count:
            raise StoreError("Inconsistent dictionary snapshot sections")
        self._heap = heap
        self._offsets = offsets
        self._lookup = lookup
        self._kinds = bytearray(kinds)
        self._terms: List[Optional[Term]] = [None] * count
        self._ids = _InternMap(self)
        # Terms the base search found absent: the evaluator resolves the
        # same query constants once per pattern probe.  It is consulted
        # only after the map misses, and every term appended to the ID
        # space enters the map, so a remembered miss never hides a term.
        self._misses: set = set()
        # IDs read from snapshot sections (the base and delta records);
        # every ID past them was assigned by interning.
        self._loaded = count

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: object) -> bool:
        return self.id_for(term) is not None  # type: ignore[arg-type]

    def __repr__(self) -> str:
        return f"TermDictionary(size={len(self._terms)})"

    @property
    def interned(self) -> int:
        """How many IDs this dictionary assigned by interning (records read
        from snapshot sections, base or delta, do not count)."""
        return len(self._terms) - self._loaded

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def encode(self, term: Term) -> int:
        """Intern ``term``, returning its (possibly fresh) ID."""
        return self._ids[term]

    def id_for(self, term: Term) -> Optional[int]:
        """The ID of ``term`` without interning; ``None`` if unknown."""
        tid = self._ids.get(term)
        if tid is None and term not in self._misses:
            tid = self._find(term)
            if tid is None and len(self._lookup):
                if len(self._misses) >= _MISS_LIMIT:
                    self._misses.clear()  # a memo: dropping it costs re-probes only
                self._misses.add(term)
        return tid

    @property
    def ids_map(self) -> Dict[Term, int]:
        """The raw interning ``Term -> ID`` mapping.

        Exposed so hot paths can intern by subscript without a method call
        per term.  Subscripting interns on miss; it holds only appended
        and already resolved terms, so probe with :meth:`id_for`, and do
        not mutate it.
        """
        return self._ids

    def encode_triple(self, triple: Triple) -> Tuple[int, int, int]:
        """Intern all three positions of ``triple``."""
        return (
            self.encode(triple.subject),
            self.encode(triple.predicate),
            self.encode(triple.object),
        )

    def _record(self, tid: int):
        """The heap record of base ID ``tid``."""
        return self._heap[self._offsets[tid] : self._offsets[tid + 1]]

    def _find(self, term: Term) -> Optional[int]:
        """Binary-search the base for ``term``, keeping a hit as resolved."""
        lookup = self._lookup
        if not len(lookup):
            return None
        try:
            record = encode_term_record(term)
        except StoreError:
            return None  # a non-term probe matches nothing
        low, high = 0, len(lookup)
        while low < high:
            mid = (low + high) // 2
            if bytes(self._record(lookup[mid])) < record:
                low = mid + 1
            else:
                high = mid
        if low == len(lookup) or self._record(lookup[low]) != record:
            return None
        tid = lookup[low]
        self._ids[term] = tid
        self._terms[tid] = term
        return tid

    def _intern(self, term: Term) -> int:
        """The base ID of ``term``, or the next free ID assigned to it."""
        tid = self._find(term)
        if tid is None:
            kind = _kind_of(term)
            tid = len(self._terms)
            self._terms.append(term)
            self._kinds.append(kind)
            self._ids[term] = tid
        return tid

    def extend_tail(self, heap, offsets, kinds) -> None:
        """Append snapshot-delta term records past the current ID space.

        ``heap``/``offsets``/``kinds`` have the same layout as the base
        sections (``offsets`` holds ``n + 1`` boundaries starting at 0).
        The records receive the next dense IDs in order — exactly the IDs
        they held when the delta was written, which the persist layer
        validates via the delta's recorded base term count.
        """
        count = len(offsets) - 1
        if count <= 0:
            return
        for index in range(count):
            term = decode_term_record(heap[offsets[index] : offsets[index + 1]])
            self._ids[term] = len(self._terms)
            self._terms.append(term)
        self._kinds += kinds
        self._loaded += count

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
            term = self._terms[tid]
        except IndexError:
            raise StoreError(f"Unknown term ID: {tid}") from None
        if term is None:
            term = self._terms[tid] = decode_term_record(self._record(tid))
            self._ids[term] = tid
        return term

    def decode_column(self, values: Sequence) -> List[Optional[Term]]:
        """The terms of a result column, in order.

        ``values`` holds IDs, or also Terms (passed through) and ``None``
        (unbound).  A column of IDs is one index pass over the terms
        list; entries of a snapshot base not decoded yet are then parsed
        one by one through :meth:`decode`.
        """
        try:
            column = list(map(self._terms.__getitem__, values))
        except (TypeError, IndexError):  # Terms, unbound cells or a bad ID
            decode = self.decode
            return [decode(value) if type(value) is int else value for value in values]
        # Terms are always truthy, so ``all`` finds an undecoded entry in C.
        if len(self._lookup) and not all(column):
            decode = self.decode
            column = [term if term is not None else decode(value)
                      for term, value in zip(column, values)]
        return column

    def decode_triple(self, ids: Tuple[int, int, int]) -> Triple:
        """Rebuild a :class:`Triple` from an ID triple."""
        decode = self.decode
        return Triple(decode(ids[0]), decode(ids[1]), decode(ids[2]))  # type: ignore[arg-type]

    def terms(self) -> Iterator[Term]:
        """All interned terms, in ID order."""
        return map(self.decode, range(len(self._terms)))

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
        (what :meth:`id_for` binary-searches).  The base sections go out
        verbatim, followed by the appended terms' records; the lookup
        merges the base's with the sorted appended IDs.  The output is
        deterministic for a given term sequence, which is what makes
        saving an unmutated reopened store byte-identical.
        """
        base = len(self._lookup)
        if len(self._terms) == base:
            return bytes(self._heap), self._offsets, bytes(self._kinds), self._lookup
        heap = bytearray(self._heap)
        offsets = array("q", self._offsets)
        for term in self._terms[base:]:
            heap += encode_term_record(term)  # type: ignore[arg-type]
            offsets.append(len(heap))
        heap = bytes(heap)

        def record(tid: int) -> bytes:
            return heap[offsets[tid] : offsets[tid + 1]]

        appended = sorted(range(base, len(self._terms)), key=record)
        lookup = array("q", merge(self._lookup, appended, key=record))
        return heap, offsets, bytes(self._kinds), lookup
