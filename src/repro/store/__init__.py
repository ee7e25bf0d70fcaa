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
   :class:`PermutationIndex` permutations (SPO, POS, OSP) map
   ``key -> second -> sorted thirds`` over plain ints, giving
   constant-time dispatch for all eight triple-pattern shapes, bisect
   membership tests, deterministic ascending iteration, and the sorted
   runs the SPARQL planner's merge joins stream (``sorted_thirds``).
   Each is an immutable CSR base of five sorted int64 columns plus a
   small per-key overlay of added and removed entries; the store folds
   the overlay into a fresh base, sorted in numpy, once it grows.

3. **Store facade** (:mod:`repro.store.triplestore`).
   :class:`TripleStore` keeps the public Term-in/Term-out API unchanged
   while translating at the boundary.  It additionally exposes an
   ID-level API (``match_ids`` / ``count_ids`` / ``term_id`` /
   ``sorted_run_ids`` / ``dictionary``) that the SPARQL evaluator uses
   to join on integers and stream solutions without building Term
   objects, and that every pattern-shape count is answered from index
   bookkeeping alone.  :meth:`TripleStore.bulk_load` is the columnar
   construction fast path (:mod:`repro.store.bulk`): batch-intern, then
   build the CSR bases with one numpy sort per index order.

What this enables: the SPARQL layer binds variables to integer IDs and
decodes only the rows it actually returns, endpoints can serve much
larger simulated KBs at the same latency, and later scaling PRs
(sharding by ID range, async endpoints, alternative backends) can build
on a compact integer substrate instead of hashed Term objects.

Statistics (:mod:`repro.store.stats`) are likewise computed in ID space
from the POS permutation plus dictionary kind bytes.

Persistence (:mod:`repro.store.persist`) writes layers 1 and 2 as a
versioned, checksummed snapshot that ``TripleStore.save`` writes and
``TripleStore.open`` maps back in read-only — the dictionary becomes a
lazily decoding :class:`LazyTermDictionary` over the string heap and each
index base is a view over the mmap'd CSR columns, so reopening skips the
re-intern/re-sort rebuild entirely.  Mutations of a reopened store go to
the index overlays; the mapped file is never written.
"""

from repro.store.dictionary import LazyTermDictionary, TermDictionary
from repro.store.triplestore import TripleStore
from repro.store.index import PermutationIndex
from repro.store.stats import PredicateStatistics, StoreStatistics
from repro.store.bulk import load_ntriples_file, load_triples

__all__ = [
    "TripleStore",
    "TermDictionary",
    "LazyTermDictionary",
    "PermutationIndex",
    "PredicateStatistics",
    "StoreStatistics",
    "load_triples",
    "load_ntriples_file",
]
