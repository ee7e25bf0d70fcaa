"""Cross-shard join shipping: broadcast hash joins for non-co-partitioned BGPs.

The scatter layer can only run a group per shard when every top-level
pattern shares one *subject* variable (subject-range partitioning makes
such groups co-partitioned).  Everything else used to fall back to the
single-threaded merged view.  This module removes that fallback for the
common 2–3 pattern shapes — s–o chains and small star/chain mixes — with
a parent-coordinated **distributed hash join**:

1. Pick a *partition variable* ``?v`` that appears in subject position.
   The patterns anchored on ``?v`` (subject == ``?v``) form a
   co-partitioned sub-group: their join results for a given subject ID
   live entirely on that subject's home shard, so scattering the anchor
   is exact and disjoint across shards.
2. Every remaining pattern's **full global match set** is materialised
   once in the parent as parallel int64 ID columns (the kernel column
   builder, :func:`repro.sparql.kernels.pattern_columns`) and broadcast
   to the workers inside the (cached, pickled-once) plan.
3. Each worker evaluates the anchor locally and probes the broadcast
   tables with a hash join — the classic broadcast join: correct because
   ``scatter(anchor) ⋈ tables`` over disjoint anchor partitions equals
   the full join, multiset-exact.

The anchor runs one of two ways on each shard (:func:`anchor_seeds`):

* **seeded** — a semi-join reduction.  The first broadcast table always
  shares variables with the anchor; its distinct join keys are the only
  anchor solutions that can survive the probe.  When a shard has fewer
  keys than its cheapest anchor pattern has rows, the anchor runs over
  one input binding per key — the bound-input evaluation OPTIONAL and
  EXISTS re-entries use, planned once for all keys — so the planner
  picks index lookups instead of a scan.  ``s:e s:p ?m . ?m s:q ?o``
  then costs a handful of lookups on each shard instead of a scan of
  ``?m s:q ?o``;
* **scanned** — otherwise the anchor streams in full, as before.

Both sides of the choice are exact counts (the table's key count and
the shard's own index count), so no tuning constant is involved.  The
sharded evaluator adds **key-owner routing** on top: when the partition
variable is one of the first table's join variables, only the shards
owning those keys are dispatched, and an empty broadcast table
dispatches nothing (see :mod:`repro.sparql.scatter`).

Shipping only engages when the broadcast side is small: the candidate
with the cheapest total broadcast rows wins, and a candidate above
:data:`DEFAULT_BROADCAST_LIMIT` rows (override with the
``REPRO_BROADCAST_LIMIT`` environment variable) is rejected with a
reason string that :meth:`ShardedQueryEvaluator.explain` surfaces.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.obs import config as _config
from repro.sparql import kernels
from repro.sparql.ast import GroupGraphPattern, TriplePatternNode
from repro.sparql.bindings import IdBinding, Variable
from repro.sparql.plan import plan_context, resolve_pattern_ids

#: Largest total broadcast side (rows across all shipped patterns) a ship
#: plan may carry; above this, the merged-view fallback is cheaper than
#: pickling the tables to every worker.
DEFAULT_BROADCAST_LIMIT = _config.DEFAULT_BROADCAST_LIMIT


def broadcast_limit() -> int:
    """The configured broadcast-row ceiling (``REPRO_BROADCAST_LIMIT``)."""
    return _config.broadcast_limit()


class BroadcastTable:
    """One shipped pattern's match set as columnar ID data.

    ``variables`` are the pattern's variables in s, p, o position order;
    ``columns`` hold one little-endian int64 byte string per variable
    (bytes pickle compactly and cross process boundaries without copies
    of Python int objects).  ``join_variables`` are the variables already
    bound when this table is probed — the static hash key.  The probe
    index is built lazily per process and cached on the instance.
    """

    __slots__ = ("variables", "join_variables", "columns", "rows", "_index")

    def __init__(
        self,
        variables: Tuple[Variable, ...],
        join_variables: Tuple[Variable, ...],
        columns: Tuple[bytes, ...],
        rows: int,
    ):
        self.variables = variables
        self.join_variables = join_variables
        self.columns = columns
        self.rows = rows
        self._index = None

    def __getstate__(self):
        return (self.variables, self.join_variables, self.columns, self.rows)

    def __setstate__(self, state):
        self.variables, self.join_variables, self.columns, self.rows = state
        self._index = None

    def index(self) -> Dict[Tuple, List[Tuple]]:
        """``join-key -> [extension assignments]``, built once per process."""
        built = self._index
        if built is None:
            decoded = [_decode_column(col, self.rows) for col in self.columns]
            key_slots = [self.variables.index(v) for v in self.join_variables]
            extension = [
                (variable, slot)
                for slot, variable in enumerate(self.variables)
                if variable not in self.join_variables
            ]
            built = {}
            for row in range(self.rows):
                key = tuple(decoded[slot][row] for slot in key_slots)
                assignment = tuple(
                    (variable, decoded[slot][row]) for variable, slot in extension
                )
                bucket = built.get(key)
                if bucket is None:
                    bucket = built[key] = []
                bucket.append(assignment)
            self._index = built
        return built


def _decode_column(data: bytes, rows: int) -> List[int]:
    return np.frombuffer(data, dtype="<i8").tolist()


def _encode_column(values) -> bytes:
    if isinstance(values, array):
        return values.tobytes()
    return np.ascontiguousarray(values, dtype="<i8").tobytes()


class ShipPlan:
    """A complete cross-shard join plan: scatter the anchor, probe the rest.

    Picklable and immutable once built; the executor pickles it once per
    query and workers cache the unpickled instance, so broadcast columns
    cross each worker's queue exactly once.
    """

    __slots__ = ("partition_variable", "anchor", "tables", "shipped", "_owners")

    def __init__(
        self,
        partition_variable: Variable,
        anchor: GroupGraphPattern,
        tables: Tuple[BroadcastTable, ...],
        shipped: Tuple[TriplePatternNode, ...],
    ):
        self.partition_variable = partition_variable
        self.anchor = anchor
        self.tables = tables
        self.shipped = shipped
        self._owners = None

    def __getstate__(self):
        return (self.partition_variable, self.anchor, self.tables, self.shipped)

    def __setstate__(self, state):
        self.partition_variable, self.anchor, self.tables, self.shipped = state
        self._owners = None

    def key_owners(self, owner_of) -> Optional[Tuple[int, ...]]:
        """The shards owning the seed keys, or ``None`` if keys do not route.

        Seed keys route when the partition variable is one of the first
        table's join variables: only the shards ``owner_of(subject_id)``
        names for those key values can produce a surviving anchor
        solution.  Computed once per process, like the probe index.
        """
        cached = self._owners
        if cached is None:
            owners = None
            table = self.tables[0] if self.tables else None
            if table is not None and self.partition_variable in table.join_variables:
                slot = table.join_variables.index(self.partition_variable)
                owners = tuple(sorted({owner_of(key[slot]) for key in table.index()}))
            cached = self._owners = (owners,)
        return cached[0]

    @property
    def broadcast_rows(self) -> int:
        """Total rows shipped across all broadcast tables."""
        return sum(table.rows for table in self.tables)

    @property
    def broadcast_bytes(self) -> int:
        """Total encoded column bytes shipped across all broadcast tables."""
        return sum(
            len(column) for table in self.tables for column in table.columns
        )

    def describe(self) -> str:
        anchors = len(self.anchor.elements)
        return (
            f"ship[anchor=?{self.partition_variable.name}({anchors} patterns) "
            f"broadcast={len(self.tables)} tables/{self.broadcast_rows} rows]"
        )


def build_ship_plan(
    store, dictionary, group: GroupGraphPattern, limit: Optional[int] = None
) -> Tuple[Optional[ShipPlan], str]:
    """Try to build a ship plan for ``group``; ``(None, reason)`` on failure.

    Requirements, each yielding a distinct reason for explain output:

    * the group is a pure BGP (triple patterns only) of >= 2 patterns;
    * some subject-position variable anchors a non-empty pattern subset,
      and the remaining patterns connect to the anchor transitively via
      shared variables (a disconnected shipped pattern would broadcast a
      Cartesian product) without repeated variables inside one pattern;
    * the cheapest candidate's total broadcast rows (exact index counts)
      stay within ``limit``.
    """
    if limit is None:
        limit = broadcast_limit()
    elements = group.elements
    if not elements:
        return None, "empty group"
    if not all(isinstance(e, TriplePatternNode) for e in elements):
        return None, "unsupported shape: group mixes non-pattern elements"
    patterns = list(elements)
    if len(patterns) < 2:
        return None, "single pattern without a subject variable"
    candidates = sorted(
        {p.subject for p in patterns if isinstance(p.subject, Variable)},
        key=lambda v: v.name,
    )
    if not candidates:
        return None, "non-co-partitioned: no variable in subject position"

    best: Optional[Tuple[int, Variable, List, List]] = None
    structural = "non-co-partitioned: no anchor candidate connects every pattern"
    for candidate in candidates:
        anchored = [p for p in patterns if p.subject == candidate]
        rest = [p for p in patterns if p.subject != candidate]
        if not rest:
            # Fully co-partitioned on this candidate; the plain scatter
            # path owns that case, shipping would only add overhead.
            continue
        ordered = _order_connected(anchored, rest)
        if ordered is None:
            continue
        total = 0
        for pattern in ordered:
            consts = resolve_pattern_ids(dictionary, pattern)
            if consts is not None:
                total += store.count_ids(*consts)
        if best is None or total < best[0]:
            best = (total, candidate, anchored, ordered)

    if best is None:
        return None, structural
    total, candidate, anchored, ordered = best
    if total > limit:
        return None, (
            f"broadcast side too large ({total} rows > limit {limit}; "
            f"raise REPRO_BROADCAST_LIMIT to override)"
        )

    bound = set()
    for pattern in anchored:
        bound.update(pattern.variables())
    tables: List[BroadcastTable] = []
    for pattern in ordered:
        variables = tuple(dict.fromkeys(pattern.variables()))
        join_variables = tuple(v for v in variables if v in bound)
        consts = resolve_pattern_ids(dictionary, pattern)
        rows, columns = _pattern_table(store, consts, len(variables))
        if not variables:
            # Fully-constant pattern: an existence check. Zero rows make
            # the whole group empty; represent that as an empty keyed
            # table so probes find nothing.  One row is a tautology.
            if rows:
                continue
            tables.append(BroadcastTable((), (), (), 0))
            continue
        tables.append(BroadcastTable(variables, join_variables, columns, rows))
        bound.update(variables)
    return (
        ShipPlan(candidate, GroupGraphPattern(tuple(anchored)), tuple(tables), tuple(ordered)),
        "",
    )


def _order_connected(
    anchored: List[TriplePatternNode], rest: List[TriplePatternNode]
) -> Optional[List[TriplePatternNode]]:
    """Greedy connected ordering of the shipped patterns, or ``None``.

    Each picked pattern must share a variable with what is already bound
    (anchor variables plus previously shipped patterns) and may not repeat
    a variable within itself (the columnar table carries no within-row
    equality check).
    """
    bound = set()
    for pattern in anchored:
        bound.update(pattern.variables())
    ordered: List[TriplePatternNode] = []
    pool = list(rest)
    while pool:
        pick = None
        for pattern in pool:
            variables = pattern.variables()
            if len(set(variables)) != len(variables):
                return None
            if not variables or set(variables) & bound:
                pick = pattern
                break
        if pick is None:
            return None
        pool.remove(pick)
        ordered.append(pick)
        bound.update(pick.variables())
    return ordered


def _pattern_table(store, consts, var_count: int) -> Tuple[int, Tuple[bytes, ...]]:
    """A resolved pattern's full match set as ``(rows, int64 column bytes)``.

    ``consts is None`` (a constant the dictionary never saw) is an empty
    table.  The columns come from the vectorized kernel column builder.
    """
    if consts is None:
        return 0, tuple(b"" for _ in range(var_count))
    rows, columns = kernels.pattern_columns(store, consts)
    return rows, tuple(_encode_column(col) for col in columns)


def anchor_seeds(
    store, plan: ShipPlan, initial: IdBinding
) -> Optional[List[IdBinding]]:
    """The initial bindings that seed ``plan``'s anchor on ``store``.

    One binding per distinct join key of the first broadcast table;
    ``None`` when the anchor should be scanned instead — no table to
    seed from, ``initial`` already pins a join variable (an OPTIONAL or
    EXISTS re-entry, whose anchor the pin already restricts), or at
    least as many keys as the cheapest anchor pattern has rows on this
    shard.
    """
    if not plan.tables:
        return None
    table = plan.tables[0]
    join_variables = table.join_variables
    if any(initial.get(v) is not None for v in join_variables):
        return None
    index = table.index()
    estimator = plan_context(store).estimator
    rows = min(
        estimator.pattern_estimate(pattern, set())
        for pattern in plan.anchor.elements
    )
    if len(index) >= rows:
        return None
    bound = dict(initial.items())
    return [IdBinding({**bound, **dict(zip(join_variables, key))}) for key in index]


def execute_ship_plan(
    evaluator, plan: ShipPlan, initial: IdBinding
) -> Iterator[IdBinding]:
    """Run a ship plan against one shard's local evaluator.

    The anchor sub-group streams through the normal local pipeline —
    over the seed bindings when :func:`anchor_seeds` seeds it, else in
    full; each broadcast table is then probed
    with a dict hash join.  Extensions go through
    :meth:`IdBinding.extend`'s conflict check, so variables the initial
    binding already pins filter correctly.
    """
    seeds = anchor_seeds(evaluator.store, plan, initial)
    if seeds is None:
        solutions: Iterable[IdBinding] = evaluator._evaluate_group(
            plan.anchor, initial
        )
    else:
        solutions = _seeded_anchor(evaluator, plan.anchor, seeds)
    for table in plan.tables:
        solutions = _probe_table(solutions, table)
    return iter(solutions)


def _seeded_anchor(
    evaluator, anchor: GroupGraphPattern, seeds: List[IdBinding]
) -> Iterable[IdBinding]:
    """The anchor's solutions under every seed.

    The seeds bind the same variables, so one plan serves them all: they
    enter the block kernels as seed rows, and each key costs its index
    lookups (:func:`repro.sparql.kernels.execute`), in seed order.
    """
    if not seeds:
        return ()
    plan = evaluator._plan_for(anchor, list(anchor.elements), set(seeds[0]), False)
    return evaluator._run_plan(plan, seeds, root_call=False)


def _probe_table(
    solutions: Iterable[IdBinding], table: BroadcastTable
) -> Iterator[IdBinding]:
    index: Optional[Dict] = None
    join_variables = table.join_variables
    for solution in solutions:
        if index is None:
            index = table.index()
            if not index:
                return
        key = tuple(solution.get(v) for v in join_variables)
        bucket = index.get(key)
        if not bucket:
            continue
        for assignment in bucket:
            extended: Optional[IdBinding] = solution
            for variable, value in assignment:
                extended = extended.extend(variable, value)  # type: ignore[union-attr]
                if extended is None:
                    break
            if extended is not None:
                yield extended
