"""Dictionary-encoded, fully indexed in-memory triple store.

Architecture
------------
The storage substrate has three layers, bottom to top:

1. **Term dictionary** (:mod:`repro.store.dictionary`).  A
   :class:`TermDictionary` interns every RDF term to a dense integer ID
   (RDF-3X style).  IDs are assigned in interning order and stay stable
   across ``remove``/``clear``, so upper layers can hold bare ints in
   caches and statistics.  A per-ID kind byte answers "literal or
   entity?" without materialising the term.

2. **ID indexes** (:mod:`repro.store.index`).  Three
   :class:`IdTripleIndex` permutations (SPO, POS, OSP) map
   ``key -> second -> sorted array of thirds`` over plain ints, giving
   constant-time dispatch for all eight triple-pattern shapes, bisect
   membership tests, deterministic sorted iteration, and the sorted runs
   the SPARQL planner's merge joins stream (``sorted_thirds``).  Each
   index can also be **bulk-built from presorted runs**
   (``bulk_extend`` / ``bulk_extend_grouped``) instead of one insertion
   per entry.

3. **Store facade** (:mod:`repro.store.triplestore`).
   :class:`TripleStore` keeps the public Term-in/Term-out API unchanged
   while translating at the boundary.  It additionally exposes an
   ID-level API (``match_ids`` / ``count_ids`` / ``term_id`` /
   ``sorted_run_ids`` / ``dictionary``) that the SPARQL evaluator uses
   to join on integers and stream solutions without building Term
   objects, and that every pattern-shape count is answered from index
   bookkeeping alone.  :meth:`TripleStore.bulk_load` is the columnar
   construction fast path (:mod:`repro.store.bulk`): batch-intern,
   accumulate ``array('q')`` ID columns, sort once per index order
   (in numpy for large batches) and build the indexes from the sorted
   runs.

What this enables: the SPARQL layer binds variables to integer IDs and
decodes only the rows it actually returns, endpoints can serve much
larger simulated KBs at the same latency, and later scaling PRs
(sharding by ID range, async endpoints, alternative backends) can build
on a compact integer substrate instead of hashed Term objects.

Statistics (:mod:`repro.store.stats`) are likewise computed in ID space
from the POS permutation plus dictionary kind bytes.

Persistence (:mod:`repro.store.persist`) adds a second, on-disk
representation of layers 1 and 2: a versioned, checksummed snapshot that
``TripleStore.save`` writes and ``TripleStore.open`` maps back in
read-only — the dictionary becomes a lazily decoding
:class:`LazyTermDictionary` over the string heap and each index order a
:class:`FrozenIdIndex` over mmap'd CSR columns, so reopening skips the
re-intern/re-sort rebuild entirely and the first mutation promotes the
store back to the writable form.
"""

from repro.store.dictionary import LazyTermDictionary, TermDictionary
from repro.store.triplestore import TripleStore
from repro.store.index import ColumnView, FrozenIdIndex, IdTripleIndex
from repro.store.stats import PredicateStatistics, StoreStatistics
from repro.store.bulk import load_ntriples_file, load_triples

__all__ = [
    "TripleStore",
    "TermDictionary",
    "LazyTermDictionary",
    "IdTripleIndex",
    "FrozenIdIndex",
    "ColumnView",
    "PredicateStatistics",
    "StoreStatistics",
    "load_triples",
    "load_ntriples_file",
]
