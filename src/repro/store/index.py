"""Permutation indexes for triples.

Two index families live here:

* :class:`IdTripleIndex` — the store's writable workhorse since the
  dictionary encoding refactor: a two-level nested index over **integer
  term IDs**, ``key -> second -> sorted array of thirds``.  Integer keys
  hash and compare in a few nanoseconds, and the sorted third-level
  (:class:`SortedList`, a bisect-maintained ``list`` subclass) keeps
  bisect membership, range iteration and sort-merge joins cheap.
* :class:`FrozenIdIndex` — the read-only columnar twin used by cold-opened
  snapshots (:mod:`repro.store.persist`): the same logical mapping laid
  out as five sorted int64 columns in CSR form, viewed through
  :class:`ColumnView` windows over either in-memory bytes or an ``mmap``.
  It answers the exact bookkeeping API of :class:`IdTripleIndex`
  (``count_for_key`` / ``third_count`` / ``sorted_thirds`` / ...) without
  materialising any Python container, so the planner and the join
  operators run unchanged on a store that was never rebuilt in memory.

Three instances with different orderings (SPO, POS, OSP) give the store
constant-time dispatch for every pattern shape.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterator, Set, Tuple


class SortedList(list):
    """A bisect-maintained sorted ``list`` of integers.

    The third-level runs of this store are short (objects per
    ``(subject, predicate)``, subjects per ``(predicate, object)``, ...),
    so a plain list with C-level ``insort`` beats chunked sorted-container
    libraries by a wide margin here — and, crucially for the columnar bulk
    loader, constructing one from an already-sorted run is a plain list
    copy (Timsort recognises sorted input in O(n)).
    """

    __slots__ = ()

    def __init__(self, iterable=()):
        super().__init__(iterable)
        self.sort()

    def add(self, value):
        """Insert ``value`` keeping the list sorted."""
        insort(self, value)

    def update(self, iterable):
        """Merge new values in (one sort instead of one insort per value)."""
        self.extend(iterable)
        self.sort()

    def remove(self, value):
        """Remove ``value``; raises ``ValueError`` when absent."""
        index = bisect_left(self, value)
        if index >= len(self) or self[index] != value:
            raise ValueError(f"{value!r} not in list")
        del self[index]

    def __contains__(self, value):
        index = bisect_left(self, value)
        return index < len(self) and self[index] == value


class IdTripleIndex:
    """A two-level nested index over integer IDs: ``key -> second -> [thirds]``.

    The meaning of the three positions is decided by the caller (the store
    uses subject/predicate/object permutations).  The third level is a
    sorted integer sequence, so membership is a bisect.  Every iterator
    walks keys and seconds in ascending order, not dict insertion order,
    so warm, CSR and frozen forms stream entries in the same order (the
    block kernels and the per-row operators rely on it).  Keys bulk-loaded
    in sorted order make those sorts linear.
    """

    __slots__ = ("_index", "_size", "_key_counts")

    def __init__(self) -> None:
        self._index: Dict[int, Dict[int, SortedList]] = {}
        self._size = 0
        self._key_counts: Dict[int, int] = {}

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, key: int, second: int, third: int) -> bool:
        """Insert an entry.  Returns ``True`` if it was not already present."""
        by_second = self._index.get(key)
        if by_second is None:
            by_second = {}
            self._index[key] = by_second
        thirds = by_second.get(second)
        if thirds is None:
            thirds = SortedList()
            by_second[second] = thirds
        elif third in thirds:
            return False
        thirds.add(third)
        self._size += 1
        self._key_counts[key] = self._key_counts.get(key, 0) + 1
        return True

    def remove(self, key: int, second: int, third: int) -> bool:
        """Remove an entry.  Returns ``True`` if it was present."""
        by_second = self._index.get(key)
        if by_second is None:
            return False
        thirds = by_second.get(second)
        if thirds is None or third not in thirds:
            return False
        thirds.remove(third)
        self._size -= 1
        remaining = self._key_counts[key] - 1
        if remaining:
            self._key_counts[key] = remaining
        else:
            del self._key_counts[key]
        if not thirds:
            del by_second[second]
        if not by_second:
            del self._index[key]
        return True

    def bulk_extend(self, entries: "list[Tuple[int, int, int]]") -> None:
        """Extend from a **sorted, deduplicated** run of new entries.

        The columnar bulk-load path: ``entries`` must be sorted by
        ``(key, second, third)`` and contain no entry already present in
        the index (the store dedupes against its flat triple map before
        calling this).  Each ``(key, second)`` group is contiguous, so the
        third-level containers are assembled by appending in sorted order
        — no bisect insertion, no re-sort, no intermediate copies.  The
        steady-state cost per entry is one unpack, two comparisons and one
        C-level append; group/key bookkeeping only runs at boundaries.
        """
        if not entries:
            return
        index = self._index
        key_counts = self._key_counts
        make_run = SortedList.__new__

        iterator = iter(entries)
        current_key, current_second, third = next(iterator)
        run = make_run(SortedList)
        run.append(third)
        by_second = index.get(current_key)
        if by_second is None:
            by_second = index[current_key] = {}
        added_for_key = 0

        for key, second, third in iterator:
            if key == current_key and second == current_second:
                run.append(third)
                continue
            existing = by_second.get(current_second)
            if existing is None:
                by_second[current_second] = run
            else:
                existing.update(run)
            added_for_key += len(run)
            run = make_run(SortedList)
            run.append(third)
            current_second = second
            if key != current_key:
                key_counts[current_key] = key_counts.get(current_key, 0) + added_for_key
                added_for_key = 0
                current_key = key
                by_second = index.get(key)
                if by_second is None:
                    by_second = index[key] = {}
        existing = by_second.get(current_second)
        if existing is None:
            by_second[current_second] = run
        else:
            existing.update(run)
        added_for_key += len(run)
        key_counts[current_key] = key_counts.get(current_key, 0) + added_for_key
        self._size += len(entries)

    def bulk_extend_grouped(
        self,
        keys: "list[int]",
        seconds: "list[int]",
        bounds: "list[int]",
        thirds: "list[int]",
    ) -> None:
        """Extend from pre-grouped sorted runs (vectorised bulk-load path).

        ``keys[g]`` / ``seconds[g]`` identify group ``g``; its third IDs are
        ``thirds[bounds[g]:bounds[g + 1]]``, already sorted and all new to
        the index.  The caller (the store's numpy-backed column sorter) has
        done the per-entry work in C, so this loop only runs per *group*.
        """
        if not keys:
            return
        index = self._index
        key_counts = self._key_counts
        make_run = SortedList.__new__
        extend = list.extend
        append = list.append

        current_key = keys[0]
        by_second = index.get(current_key)
        if by_second is None:
            by_second = index[current_key] = {}
        added_for_key = 0
        start = bounds[0]
        for key, second, end in zip(keys, seconds, bounds[1:]):
            if key != current_key:
                key_counts[current_key] = key_counts.get(current_key, 0) + added_for_key
                added_for_key = 0
                current_key = key
                by_second = index.get(key)
                if by_second is None:
                    by_second = index[key] = {}
            existing = by_second.get(second)
            if existing is None:
                run = make_run(SortedList)
                if end - start == 1:  # singleton groups dominate: skip the slice
                    append(run, thirds[start])
                else:
                    extend(run, thirds[start:end])
                by_second[second] = run
            else:
                existing.update(thirds[start:end])
            added_for_key += end - start
            start = end
        key_counts[current_key] = key_counts.get(current_key, 0) + added_for_key
        self._size += len(thirds)

    def clear(self) -> None:
        """Remove all entries."""
        self._index.clear()
        self._key_counts.clear()
        self._size = 0

    def csr_columns(self):
        """The index content as the five sorted CSR snapshot columns.

        Returns ``(keys, key_groups, seconds, group_starts, thirds)`` as
        ``array('q')`` values in the exact layout :class:`FrozenIdIndex`
        consumes (keys ascending, seconds ascending per key, thirds
        already sorted per group) — the snapshot writer serialises these
        verbatim.
        """
        from array import array

        keys = array("q")
        key_groups = array("q", [0])
        seconds = array("q")
        group_starts = array("q", [0])
        thirds = array("q")
        index = self._index
        for key in sorted(index):
            by_second = index[key]
            for second in sorted(by_second):
                seconds.append(second)
                thirds.extend(by_second[second])
                group_starts.append(len(thirds))
            keys.append(key)
            key_groups.append(len(seconds))
        return keys, key_groups, seconds, group_starts, thirds

    def key_columns(self, key: int):
        """One key's entries as CSR run columns: ``(seconds, bounds, thirds)``.

        ``seconds[g]`` is group ``g``'s second ID (ascending); its sorted
        thirds are ``thirds[bounds[g] - bounds[0] : bounds[g + 1] - bounds[0]]``
        (``bounds`` has ``len(seconds) + 1`` entries and may be rebased —
        the frozen twin hands out absolute snapshot offsets).  The block
        join kernels consume these as numpy views; for the writable index
        the columns are assembled per call with C-level extends, so the
        cost is O(groups) Python plus O(entries) C.
        """
        from array import array

        seconds = array("q")
        bounds = array("q", [0])
        thirds = array("q")
        by_second = self._index.get(key)
        if by_second is not None:
            for second in sorted(by_second):
                seconds.append(second)
                thirds.extend(by_second[second])
                bounds.append(len(thirds))
        return seconds, bounds, thirds

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def contains(self, key: int, second: int, third: int) -> bool:
        """Membership test for a fully specified entry."""
        by_second = self._index.get(key)
        if by_second is None:
            return False
        thirds = by_second.get(second)
        return thirds is not None and third in thirds

    def keys(self) -> Iterator[int]:
        """Iterate over all distinct keys (ascending)."""
        return iter(sorted(self._index))

    def seconds(self, key: int) -> Iterator[int]:
        """Iterate over the distinct second IDs under ``key`` (ascending)."""
        by_second = self._index.get(key)
        return iter(()) if by_second is None else iter(sorted(by_second))

    def thirds(self, key: int, second: int) -> Iterator[int]:
        """Iterate over the third IDs under ``(key, second)`` in sorted order."""
        by_second = self._index.get(key)
        if by_second is None:
            return iter(())
        thirds = by_second.get(second)
        return iter(()) if thirds is None else iter(thirds)

    def sorted_thirds(self, key: int, second: int):
        """The sorted third-level container under ``(key, second)``.

        Returns the container itself (or an empty tuple) so merge joins can
        walk the run without copying.  Callers must not mutate it.
        """
        by_second = self._index.get(key)
        if by_second is None:
            return ()
        return by_second.get(second, ())

    def pairs(self, key: int) -> Iterator[Tuple[int, int]]:
        """Iterate over ``(second, third)`` pairs under ``key`` (sorted)."""
        by_second = self._index.get(key)
        if by_second is None:
            return
        for second in sorted(by_second):
            for third in by_second[second]:
                yield second, third

    def items_for_key(self, key: int) -> Iterator[Tuple[int, SortedList]]:
        """Iterate over ``(second, thirds)`` groups under ``key``.

        Exposes the sorted third-level containers directly so callers can
        take ``len`` per group without iterating entries (the statistics
        layer uses this for literal-object counts).
        """
        by_second = self._index.get(key)
        if by_second is None:
            return iter(())
        return ((second, by_second[second]) for second in sorted(by_second))

    def triples(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate over every ``(key, second, third)`` entry (sorted)."""
        index = self._index
        for key in sorted(index):
            by_second = index[key]
            for second in sorted(by_second):
                for third in by_second[second]:
                    yield key, second, third

    # ------------------------------------------------------------------ #
    # Counting (no materialisation)
    # ------------------------------------------------------------------ #
    def key_count(self) -> int:
        """Number of distinct keys."""
        return len(self._index)

    def count_for_key(self, key: int) -> int:
        """Number of entries under ``key`` — O(1) from maintained counts."""
        return self._key_counts.get(key, 0)

    def second_count_for_key(self, key: int) -> int:
        """Number of distinct second IDs under ``key``."""
        by_second = self._index.get(key)
        return 0 if by_second is None else len(by_second)

    def third_count(self, key: int, second: int) -> int:
        """Number of entries under ``(key, second)`` — a pure index lookup."""
        by_second = self._index.get(key)
        if by_second is None:
            return 0
        thirds = by_second.get(second)
        return 0 if thirds is None else len(thirds)

    def distinct_third_count(self, key: int) -> int:
        """Number of distinct third IDs across all seconds under ``key``."""
        by_second = self._index.get(key)
        if by_second is None:
            return 0
        if len(by_second) == 1:
            return len(next(iter(by_second.values())))
        distinct: Set[int] = set()
        for thirds in by_second.values():
            distinct.update(thirds)
        return len(distinct)

    def has_key(self, key: int) -> bool:
        """Whether any entry exists under ``key``."""
        return key in self._index


class ColumnView:
    """A read-only window onto a run of little-endian int64 IDs.

    The snapshot layer hands these out wherever the writable store would
    hand out a :class:`SortedList`: the underlying storage is a
    ``memoryview`` cast to ``'q'`` — over a ``bytes`` buffer or an
    ``mmap`` — so iteration and indexing run at C speed and slicing never
    copies.  Views returned from :meth:`FrozenIdIndex.sorted_thirds` are
    sorted ascending; ``in`` relies on that (bisect probe, like
    :class:`SortedList`).
    """

    __slots__ = ("mv",)

    def __init__(self, mv: memoryview):
        #: The backing int64 memoryview (exposed so hot paths — bisect,
        #: iteration — can work on the raw view without a method call).
        self.mv = mv

    def __len__(self) -> int:
        return len(self.mv)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return ColumnView(self.mv[item])
        return self.mv[item]

    def __iter__(self):
        return iter(self.mv)

    def __contains__(self, value) -> bool:
        mv = self.mv
        index = bisect_left(mv, value)
        return index < len(mv) and mv[index] == value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ColumnView):
            return self.mv == other.mv
        if isinstance(other, (list, tuple)):
            return len(other) == len(self.mv) and all(
                a == b for a, b in zip(self.mv, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        preview = ", ".join(map(str, self.mv[:6]))
        suffix = ", ..." if len(self.mv) > 6 else ""
        return f"ColumnView([{preview}{suffix}], len={len(self.mv)})"

    def tolist(self) -> "list[int]":
        """Materialise the window as a plain list (promotion paths only)."""
        return self.mv.tolist()


class FrozenIdIndex:
    """A read-only :class:`IdTripleIndex` over CSR-laid-out ID columns.

    The five columns describe one permutation's entries sorted by
    ``(key, second, third)``:

    * ``keys[i]`` — the i-th distinct key, ascending;
    * ``key_groups[i] : key_groups[i + 1]`` — that key's group range;
    * ``seconds[g]`` — group ``g``'s second ID (ascending per key);
    * ``group_starts[g] : group_starts[g + 1]`` — group ``g``'s run
      bounds in ``thirds``;
    * ``thirds`` — all third IDs, ascending within each group.

    Every lookup is a bisect over a raw int64 ``memoryview`` (C-level
    ``__getitem__``), so probes cost O(log n) with tiny constants and the
    structure needs no Python dicts or lists at all — opening a snapshot
    builds exactly five views, independent of the KB size.  The writable
    store promotes ("thaws") one of these into an :class:`IdTripleIndex`
    via :meth:`groups` + :meth:`IdTripleIndex.bulk_extend_grouped` the
    first time a mutation touches it.
    """

    __slots__ = ("_keys", "_key_groups", "_seconds", "_group_starts", "_thirds")

    def __init__(
        self,
        keys: memoryview,
        key_groups: memoryview,
        seconds: memoryview,
        group_starts: memoryview,
        thirds: memoryview,
    ):
        self._keys = keys
        self._key_groups = key_groups
        self._seconds = seconds
        self._group_starts = group_starts
        self._thirds = thirds

    def __len__(self) -> int:
        return len(self._thirds)

    # ------------------------------------------------------------------ #
    # Internal slot lookups
    # ------------------------------------------------------------------ #
    def _key_slot(self, key: int) -> int:
        """Position of ``key`` in the keys column, or ``-1``."""
        keys = self._keys
        slot = bisect_left(keys, key)
        if slot < len(keys) and keys[slot] == key:
            return slot
        return -1

    def _group_slot(self, key: int, second: int) -> int:
        """Group index of ``(key, second)``, or ``-1``."""
        slot = self._key_slot(key)
        if slot < 0:
            return -1
        seconds = self._seconds
        start = self._key_groups[slot]
        end = self._key_groups[slot + 1]
        group = bisect_left(seconds, second, start, end)
        if group < end and seconds[group] == second:
            return group
        return -1

    # ------------------------------------------------------------------ #
    # Lookup (mirrors IdTripleIndex)
    # ------------------------------------------------------------------ #
    def contains(self, key: int, second: int, third: int) -> bool:
        """Membership test for a fully specified entry."""
        group = self._group_slot(key, second)
        if group < 0:
            return False
        thirds = self._thirds
        start = self._group_starts[group]
        end = self._group_starts[group + 1]
        slot = bisect_left(thirds, third, start, end)
        return slot < end and thirds[slot] == third

    def keys(self) -> Iterator[int]:
        """Iterate over all distinct keys (ascending)."""
        return iter(self._keys)

    def seconds(self, key: int) -> Iterator[int]:
        """Iterate over the distinct second IDs under ``key`` (ascending)."""
        slot = self._key_slot(key)
        if slot < 0:
            return iter(())
        return iter(self._seconds[self._key_groups[slot] : self._key_groups[slot + 1]])

    def thirds(self, key: int, second: int) -> Iterator[int]:
        """Iterate over the third IDs under ``(key, second)`` in sorted order."""
        group = self._group_slot(key, second)
        if group < 0:
            return iter(())
        return iter(
            self._thirds[self._group_starts[group] : self._group_starts[group + 1]]
        )

    def sorted_thirds(self, key: int, second: int):
        """The sorted third-level run under ``(key, second)`` (no copy)."""
        group = self._group_slot(key, second)
        if group < 0:
            return ()
        return ColumnView(
            self._thirds[self._group_starts[group] : self._group_starts[group + 1]]
        )

    def key_columns(self, key: int):
        """One key's entries as CSR run columns: ``(seconds, bounds, thirds)``.

        Same contract as :meth:`IdTripleIndex.key_columns`, but answered
        with zero-copy windows over the snapshot columns; ``bounds`` keeps
        its absolute offsets (callers rebase against ``bounds[0]``).
        """
        slot = self._key_slot(key)
        if slot < 0:
            from array import array

            return array("q"), array("q", [0]), array("q")
        group_start = self._key_groups[slot]
        group_end = self._key_groups[slot + 1]
        run_start = self._group_starts[group_start]
        run_end = self._group_starts[group_end]
        return (
            self._seconds[group_start:group_end],
            self._group_starts[group_start : group_end + 1],
            self._thirds[run_start:run_end],
        )

    def pairs(self, key: int) -> Iterator[Tuple[int, int]]:
        """Iterate over ``(second, third)`` pairs under ``key``."""
        slot = self._key_slot(key)
        if slot < 0:
            return
        seconds = self._seconds
        group_starts = self._group_starts
        thirds = self._thirds
        for group in range(self._key_groups[slot], self._key_groups[slot + 1]):
            second = seconds[group]
            for third in thirds[group_starts[group] : group_starts[group + 1]]:
                yield second, third

    def items_for_key(self, key: int) -> Iterator[Tuple[int, ColumnView]]:
        """Iterate over ``(second, sorted thirds view)`` groups under ``key``."""
        slot = self._key_slot(key)
        if slot < 0:
            return iter(())
        return self._iter_items(slot)

    def _iter_items(self, slot: int) -> Iterator[Tuple[int, ColumnView]]:
        seconds = self._seconds
        group_starts = self._group_starts
        thirds = self._thirds
        for group in range(self._key_groups[slot], self._key_groups[slot + 1]):
            yield seconds[group], ColumnView(
                thirds[group_starts[group] : group_starts[group + 1]]
            )

    def triples(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate over every ``(key, second, third)`` entry (sorted)."""
        keys = self._keys
        key_groups = self._key_groups
        seconds = self._seconds
        group_starts = self._group_starts
        thirds = self._thirds
        for slot in range(len(keys)):
            key = keys[slot]
            for group in range(key_groups[slot], key_groups[slot + 1]):
                second = seconds[group]
                for third in thirds[group_starts[group] : group_starts[group + 1]]:
                    yield key, second, third

    # ------------------------------------------------------------------ #
    # Counting (no materialisation)
    # ------------------------------------------------------------------ #
    def key_count(self) -> int:
        """Number of distinct keys."""
        return len(self._keys)

    def count_for_key(self, key: int) -> int:
        """Number of entries under ``key`` — two bisects and a subtraction."""
        slot = self._key_slot(key)
        if slot < 0:
            return 0
        group_starts = self._group_starts
        return (
            group_starts[self._key_groups[slot + 1]]
            - group_starts[self._key_groups[slot]]
        )

    def second_count_for_key(self, key: int) -> int:
        """Number of distinct second IDs under ``key``."""
        slot = self._key_slot(key)
        if slot < 0:
            return 0
        return self._key_groups[slot + 1] - self._key_groups[slot]

    def third_count(self, key: int, second: int) -> int:
        """Number of entries under ``(key, second)``."""
        group = self._group_slot(key, second)
        if group < 0:
            return 0
        return self._group_starts[group + 1] - self._group_starts[group]

    def distinct_third_count(self, key: int) -> int:
        """Number of distinct third IDs across all seconds under ``key``."""
        slot = self._key_slot(key)
        if slot < 0:
            return 0
        start = self._key_groups[slot]
        end = self._key_groups[slot + 1]
        group_starts = self._group_starts
        thirds = self._thirds
        if end - start == 1:
            return group_starts[start + 1] - group_starts[start]
        distinct: Set[int] = set()
        for group in range(start, end):
            distinct.update(thirds[group_starts[group] : group_starts[group + 1]])
        return len(distinct)

    def has_key(self, key: int) -> bool:
        """Whether any entry exists under ``key``."""
        return self._key_slot(key) >= 0

    # ------------------------------------------------------------------ #
    # Promotion / serialisation support
    # ------------------------------------------------------------------ #
    def columns(self) -> Tuple[memoryview, memoryview, memoryview, memoryview, memoryview]:
        """The five raw CSR columns (keys, key_groups, seconds,
        group_starts, thirds) — the snapshot writer copies these verbatim,
        which is what makes save→open→save byte-identical."""
        return (
            self._keys,
            self._key_groups,
            self._seconds,
            self._group_starts,
            self._thirds,
        )

    def groups(self) -> Tuple["list[int]", "list[int]", "list[int]", "list[int]"]:
        """Group-level runs in :meth:`IdTripleIndex.bulk_extend_grouped` form.

        Returns ``(keys, seconds, bounds, thirds)`` where ``keys[g]`` /
        ``seconds[g]`` identify group ``g`` and its thirds are
        ``thirds[bounds[g]:bounds[g + 1]]`` — the store's thaw path feeds
        this straight into a fresh writable index.
        """
        group_keys: "list[int]" = []
        keys = self._keys
        key_groups = self._key_groups
        for slot in range(len(keys)):
            group_keys.extend([keys[slot]] * (key_groups[slot + 1] - key_groups[slot]))
        return (
            group_keys,
            self._seconds.tolist(),
            self._group_starts.tolist(),
            self._thirds.tolist(),
        )

    def thaw(self) -> IdTripleIndex:
        """A writable :class:`IdTripleIndex` with identical content."""
        index = IdTripleIndex()
        group_keys, seconds, bounds, thirds = self.groups()
        index.bulk_extend_grouped(group_keys, seconds, bounds, thirds)
        return index
