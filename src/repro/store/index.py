"""Permutation indexes for triples.

One index class lives here, :class:`PermutationIndex`: one permutation
(SPO, POS or OSP) of a store's integer ID triples, ``key -> second ->
sorted thirds``.  It has two parts:

* an immutable **CSR base** — five sorted int64 columns (described on the
  class) viewed as ``memoryview`` windows over numpy arrays, ``bytes`` or
  an mmap'd snapshot.  Every lookup is a bisect, so the base needs no
  Python container proportional to its size, and a snapshot writes the
  columns verbatim.  Only :meth:`~PermutationIndex.contains` adds a
  derived column: a direct-address table of key positions, built on its
  first call, one int32 per term ID up to the largest key.  Every other
  lookup bisects, so the indexes that membership never probes (POS and
  OSP) never pay for a table;
* a small **overlay** of per-key added and removed ``(second, third)``
  entries, kept net against the base (an added entry is never in the
  base, a removed one always is).

A read of a key the overlay does not touch goes straight to the base.  A
touched key is answered from one merged :meth:`~PermutationIndex.key_columns`
run, built once per write to that key; every other per-key read derives
from it.  The store folds the overlay into a fresh base once it grows past
a share of the base, and before every save
(:meth:`~repro.store.triplestore.TripleStore._fold`) — reads never fold.

Three instances with different orderings (SPO, POS, OSP) give the store
constant-time dispatch for every pattern shape.  Every iterator walks keys
ascending, seconds ascending per key and thirds ascending per group, on
every store and after any sequence of mutations: the block kernels' row
order relies on it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, Iterator, Optional, Set, Tuple

import numpy as np


def csr_from_sorted(keys_col, seconds_col, thirds_col):
    """One permutation's five CSR columns from presorted, deduped columns.

    ``(keys_col, seconds_col, thirds_col)`` must already be sorted
    lexicographically; boundary detection is two vectorised comparisons,
    so the Python cost is O(1) regardless of row count.
    """
    n = int(keys_col.size)
    if not n:
        empty = np.empty(0, dtype=np.int64)
        zero = np.zeros(1, dtype=np.int64)
        return empty, zero, empty, zero, empty
    group_change = np.empty(n, dtype=bool)
    group_change[0] = True
    np.not_equal(keys_col[1:], keys_col[:-1], out=group_change[1:])
    group_change[1:] |= seconds_col[1:] != seconds_col[:-1]
    group_rows = np.flatnonzero(group_change)
    group_keys = keys_col[group_rows]
    seconds = seconds_col[group_rows]
    group_starts = np.empty(group_rows.size + 1, dtype=np.int64)
    group_starts[:-1] = group_rows
    group_starts[-1] = n
    key_change = np.empty(group_keys.size, dtype=bool)
    key_change[0] = True
    np.not_equal(group_keys[1:], group_keys[:-1], out=key_change[1:])
    key_slots = np.flatnonzero(key_change)
    keys = group_keys[key_slots]
    key_groups = np.empty(key_slots.size + 1, dtype=np.int64)
    key_groups[:-1] = key_slots
    key_groups[-1] = group_keys.size
    return keys, key_groups, seconds, group_starts, np.ascontiguousarray(thirds_col)


def _int64(column) -> np.ndarray:
    """A zero-copy int64 ndarray over a buffer-backed column."""
    return np.frombuffer(column, dtype=np.int64)


def _merge_rows(columns, drop, extra):
    """Row columns minus the rows at positions ``drop``, with the ``extra``
    row tuples appended after them (not re-sorted)."""
    if drop:
        keep = np.ones(columns[0].size, dtype=bool)
        keep[np.fromiter(drop, dtype=np.int64, count=len(drop))] = False
        columns = [column[keep] for column in columns]
    if extra:
        added = np.array(extra, dtype=np.int64).reshape(-1, len(columns))
        columns = [
            np.concatenate((column, added[:, position]))
            for position, column in enumerate(columns)
        ]
    return columns


def _lexsorted(columns):
    """Row columns re-sorted lexicographically."""
    order = np.lexsort(columns[::-1])
    return [column[order] for column in columns]


def _column(values=()) -> memoryview:
    """A read-only int64 column holding ``values``."""
    return memoryview(array("q", values).tobytes()).cast("q")


def _slot_table(keys) -> memoryview:
    """A direct-address table over a keys column: ``table[key]`` is the
    key's position in the column, or ``-1`` (keys are dense term IDs, so
    the table is as long as the largest key)."""
    keys = _int64(keys)
    table = np.full(int(keys[-1]) + 1 if keys.size else 0, -1, dtype=np.int32)
    table[keys] = np.arange(keys.size, dtype=np.int32)
    return memoryview(table)


#: ``key_columns`` of an absent key.
_EMPTY_RUN = (_column(), _column([0]), _column())


class _KeyDelta:
    """One key's overlay: entries added to and removed from the base, the
    key's base entry count, and the merged run (``None`` until read)."""

    __slots__ = ("base_count", "added", "removed", "merged")

    def __init__(self, base_count: int):
        self.base_count = base_count
        self.added: Set[Tuple[int, int]] = set()
        self.removed: Set[Tuple[int, int]] = set()
        self.merged: Optional[tuple] = None

    def count(self) -> int:
        return self.base_count + len(self.added) - len(self.removed)


class PermutationIndex:
    """One index permutation: a CSR base plus a per-key mutation overlay.

    The five base columns describe the permutation's entries sorted by
    ``(key, second, third)``:

    * ``keys[i]`` — the i-th distinct key, ascending;
    * ``key_groups[i] : key_groups[i + 1]`` — that key's group range;
    * ``seconds[g]`` — group ``g``'s second ID (ascending per key);
    * ``group_starts[g] : group_starts[g + 1]`` — group ``g``'s run
      bounds in ``thirds``;
    * ``thirds`` — all third IDs, ascending within each group.

    ``PermutationIndex()`` is an empty index.  :meth:`add` and
    :meth:`remove` write into the overlay only; the store replaces the
    whole index with a freshly built one when it folds, so a reader that
    still holds the old index keeps a consistent base and overlay.
    """

    __slots__ = (
        "_keys",
        "_key_groups",
        "_seconds",
        "_group_starts",
        "_thirds",
        "_delta",
        "_pending",
        "_size",
        "_key_count",
        "_key_slots",
    )

    def __init__(self, *columns: memoryview):
        if not columns:
            columns = (_column(), _column([0]), _column(), _column([0]), _column())
        keys, key_groups, seconds, group_starts, thirds = columns
        self._keys = keys
        self._key_groups = key_groups
        self._seconds = seconds
        self._group_starts = group_starts
        self._thirds = thirds
        self._delta: Dict[int, _KeyDelta] = {}
        self._pending = 0
        self._size = len(thirds)
        self._key_count = len(keys)
        self._key_slots: Optional[memoryview] = None

    def __len__(self) -> int:
        return self._size

    @property
    def pending(self) -> int:
        """Number of overlay entries (adds plus removes) not yet folded."""
        return self._pending

    def columns(self) -> Tuple[memoryview, memoryview, memoryview, memoryview, memoryview]:
        """The five base columns (keys, key_groups, seconds, group_starts,
        thirds) — the whole content once :attr:`pending` is zero.  The
        snapshot writer copies them verbatim, which is what makes
        save→open→save byte-identical."""
        return (
            self._keys,
            self._key_groups,
            self._seconds,
            self._group_starts,
            self._thirds,
        )

    # ------------------------------------------------------------------ #
    # Base lookups
    # ------------------------------------------------------------------ #
    def _key_slot(self, key: int) -> int:
        """Position of ``key`` in the base keys column, or ``-1``."""
        keys = self._keys
        slot = bisect_left(keys, key)
        if slot < len(keys) and keys[slot] == key:
            return slot
        return -1

    def _group_slot(self, key: int, second: int) -> int:
        """Base group index of ``(key, second)``, or ``-1``."""
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

    def _base_position(self, key: int, second: int, third: int) -> int:
        """Offset of a base entry in the thirds column, or ``-1``."""
        group = self._group_slot(key, second)
        if group < 0:
            return -1
        thirds = self._thirds
        end = self._group_starts[group + 1]
        slot = bisect_left(thirds, third, self._group_starts[group], end)
        return slot if slot < end and thirds[slot] == third else -1

    def _base_count(self, key: int) -> int:
        slot = self._key_slot(key)
        if slot < 0:
            return 0
        group_starts = self._group_starts
        return (
            group_starts[self._key_groups[slot + 1]]
            - group_starts[self._key_groups[slot]]
        )

    # ------------------------------------------------------------------ #
    # Overlay writes
    # ------------------------------------------------------------------ #
    def add(self, key: int, second: int, third: int) -> bool:
        """Insert an entry.  Returns ``True`` if it was not already present."""
        return self._write(key, (second, third), 1)

    def remove(self, key: int, second: int, third: int) -> bool:
        """Remove an entry.  Returns ``True`` if it was present."""
        return self._write(key, (second, third), -1)

    def _write(self, key: int, entry: Tuple[int, int], change: int) -> bool:
        """Add (``change`` +1) or remove (-1) one entry through the overlay."""
        delta = self._delta.get(key)
        if delta is not None and (entry in delta.added or entry in delta.removed):
            present = entry in delta.added
        else:
            present = self._base_position(key, *entry) >= 0
        if present == (change > 0):
            return False
        if delta is None:
            delta = self._delta[key] = _KeyDelta(self._base_count(key))
        undo, do = (delta.removed, delta.added) if change > 0 else (delta.added, delta.removed)
        if entry in undo:  # back to the base's state
            undo.discard(entry)
            self._pending -= 1
        else:
            do.add(entry)
            self._pending += 1
        self._size += change
        if delta.count() == (1 if change > 0 else 0):
            self._key_count += change  # the key appeared or emptied
        delta.merged = None
        if not delta.added and not delta.removed:
            del self._delta[key]
        return True

    # ------------------------------------------------------------------ #
    # Merged views
    # ------------------------------------------------------------------ #
    def key_columns(self, key: int):
        """One key's entries as CSR run columns: ``(seconds, bounds, thirds)``.

        ``seconds[g]`` is group ``g``'s second ID (ascending); its sorted
        thirds are ``thirds[bounds[g] - bounds[0] : bounds[g + 1] - bounds[0]]``
        (``bounds`` has ``len(seconds) + 1`` entries; an untouched key hands
        out zero-copy windows with the base's absolute offsets).  A touched
        key's columns are merged from the base and the overlay once per
        write and cached.
        """
        delta = self._delta.get(key) if self._delta else None
        if delta is None:
            return self._base_key_columns(key)
        if delta.merged is None:
            delta.merged = self._merge_key(key, delta)
        return delta.merged

    def _base_key_columns(self, key: int):
        """:meth:`key_columns` of the base alone."""
        slot = self._key_slot(key)
        if slot < 0:
            return _EMPTY_RUN
        group_start = self._key_groups[slot]
        group_end = self._key_groups[slot + 1]
        return (
            self._seconds[group_start:group_end],
            self._group_starts[group_start : group_end + 1],
            self._thirds[self._group_starts[group_start] : self._group_starts[group_end]],
        )

    def _merge_key(self, key: int, delta: _KeyDelta):
        """The merged run columns of one touched key."""
        seconds, bounds, thirds = self._base_key_columns(key)
        start = bounds[0]
        second_col = np.repeat(_int64(seconds), np.diff(_int64(bounds)))
        drop = [
            self._base_position(key, second, third) - start
            for second, third in delta.removed
        ]
        columns = _merge_rows([second_col, _int64(thirds)], drop, list(delta.added))
        second_col, third_col = _lexsorted(columns) if delta.added else columns
        _, _, seconds, bounds, thirds = csr_from_sorted(
            np.full(second_col.size, key, dtype=np.int64), second_col, third_col
        )
        return memoryview(seconds), memoryview(bounds), memoryview(thirds)

    def rows(self):
        """Every entry as three sorted int64 columns ``(keys, seconds, thirds)``."""
        columns = self.unsorted_rows()
        if any(delta.added for delta in self._delta.values()):
            columns = _lexsorted(columns)
        return tuple(columns)

    def unsorted_rows(self):
        """Every entry as three int64 columns: the base's entries in sorted
        order minus the removed ones, then the added entries, unsorted —
        for the store's fold, which sorts them once."""
        keys, key_groups, seconds, group_starts, thirds = map(_int64, self.columns())
        per_group = np.diff(group_starts)
        key_col = np.repeat(np.repeat(keys, np.diff(key_groups)), per_group)
        columns = [key_col, np.repeat(seconds, per_group), thirds]
        if not self._delta:
            return tuple(columns)
        drop = [
            self._base_position(key, second, third)
            for key, delta in self._delta.items()
            for second, third in delta.removed
        ]
        extra = [
            (key, second, third)
            for key, delta in self._delta.items()
            for second, third in delta.added
        ]
        return tuple(_merge_rows(columns, drop, extra))

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def _merged_run(self, key: int, second: int):
        """The sorted thirds under ``(key, second)`` of a touched key."""
        seconds, bounds, thirds = self.key_columns(key)
        group = bisect_left(seconds, second)
        if group < len(seconds) and seconds[group] == second:
            return thirds[bounds[group] : bounds[group + 1]]
        return ()

    def contains(self, key: int, second: int, third: int) -> bool:
        """Membership test for a fully specified entry.

        The store's ``in`` and ``contains_ids`` run here, so the base
        lookup stays in this one frame: the key's position from the slot
        table, then a bisect over its seconds and one over the group's
        thirds (a one-entry group is compared directly).  An overlay that
        touches ``key`` then overrides the answer.
        """
        found = False
        slots = self._key_slots
        if slots is None:
            slots = self._key_slots = _slot_table(self._keys)
        slot = slots[key] if key < len(slots) else -1
        if slot >= 0:
            key_groups = self._key_groups
            seconds = self._seconds
            end = key_groups[slot + 1]
            group = bisect_left(seconds, second, key_groups[slot], end)
            if group < end and seconds[group] == second:
                group_starts = self._group_starts
                thirds = self._thirds
                start = group_starts[group]
                end = group_starts[group + 1]
                if end - start == 1:  # most groups: no bisect call
                    found = thirds[start] == third
                else:
                    slot = bisect_left(thirds, third, start, end)
                    found = slot < end and thirds[slot] == third
        delta = self._delta.get(key) if self._delta else None
        if delta is None:
            return found
        if found:
            return not delta.removed or (second, third) not in delta.removed
        return (second, third) in delta.added

    def keys(self) -> Iterator[int]:
        """Iterate over all distinct keys (ascending)."""
        emptied = [k for k, d in self._delta.items() if d.base_count and not d.count()]
        new = [k for k, d in self._delta.items() if not d.base_count and d.count()]
        if not emptied and not new:
            return iter(self._keys)
        keys = _int64(self._keys)
        if emptied:
            keys = keys[~np.isin(keys, emptied)]
        if new:
            keys = np.sort(np.concatenate((keys, np.array(new, dtype=np.int64))))
        return iter(memoryview(keys))

    def seconds(self, key: int) -> Iterator[int]:
        """Iterate over the distinct second IDs under ``key`` (ascending)."""
        return iter(self.key_columns(key)[0])

    def thirds(self, key: int, second: int) -> Iterator[int]:
        """Iterate over the third IDs under ``(key, second)`` in sorted order."""
        return iter(self.sorted_thirds(key, second))

    def sorted_thirds(self, key: int, second: int):
        """The sorted third-level run under ``(key, second)`` (no copy).

        A ``memoryview`` window, or an empty tuple when there is none;
        callers must not mutate it.
        """
        if self._delta and key in self._delta:
            return self._merged_run(key, second)
        group = self._group_slot(key, second)
        if group < 0:
            return ()
        return self._thirds[self._group_starts[group] : self._group_starts[group + 1]]

    def items_for_key(self, key: int) -> Iterator[Tuple[int, memoryview]]:
        """Iterate over ``(second, sorted thirds window)`` groups under ``key``."""
        seconds, bounds, thirds = self.key_columns(key)
        start = bounds[0]
        for group, second in enumerate(seconds):
            yield second, thirds[bounds[group] - start : bounds[group + 1] - start]

    def pairs(self, key: int) -> Iterator[Tuple[int, int]]:
        """Iterate over ``(second, third)`` pairs under ``key`` (sorted)."""
        for second, run in self.items_for_key(key):
            for third in run:
                yield second, third

    def triples(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate over every ``(key, second, third)`` entry (sorted)."""
        return zip(*(column.tolist() for column in self.rows()))

    # ------------------------------------------------------------------ #
    # Counting (no materialisation)
    # ------------------------------------------------------------------ #
    def key_count(self) -> int:
        """Number of distinct keys."""
        return self._key_count

    def count_for_key(self, key: int) -> int:
        """Number of entries under ``key`` — two bisects and a subtraction."""
        if self._delta and key in self._delta:
            return self._delta[key].count()
        return self._base_count(key)

    def second_count_for_key(self, key: int) -> int:
        """Number of distinct second IDs under ``key``."""
        return len(self.key_columns(key)[0])

    def third_count(self, key: int, second: int) -> int:
        """Number of entries under ``(key, second)``."""
        if self._delta and key in self._delta:
            return len(self._merged_run(key, second))
        group = self._group_slot(key, second)
        if group < 0:
            return 0
        return self._group_starts[group + 1] - self._group_starts[group]

    def distinct_third_count(self, key: int) -> int:
        """Number of distinct third IDs across all seconds under ``key``."""
        seconds, _, thirds = self.key_columns(key)
        if len(seconds) <= 1:
            return len(thirds)
        return len(set(thirds))

    def has_key(self, key: int) -> bool:
        """Whether any entry exists under ``key``."""
        return self.count_for_key(key) > 0
