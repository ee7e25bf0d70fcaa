"""Vectorized block join kernels over the store's CSR ID columns.

The scalar evaluator (:mod:`repro.sparql.evaluate`) streams one
:class:`~repro.sparql.bindings.IdBinding` at a time through per-row index
probes.  At paper scale (~14k triples) that is fine; at the 1M–10M-triple
worlds the scale presets build, the per-row Python dominates end-to-end
latency.  This module replaces the hot inner loops with numpy block
operations over the very same CSR columns the indexes already keep:

* **Scan** — a pattern's whole match set materialises as parallel int64
  columns straight off the index (``sorted_run_ids`` for two-constant
  patterns, :meth:`~repro.store.index.PermutationIndex.key_columns` for
  one-constant, :meth:`~repro.store.index.PermutationIndex.rows` for
  zero-constant), then streams out in bounded blocks.
* **Merge** — the sort-merge semi-join becomes one ``np.searchsorted``
  probe of the block's join column against the pattern's sorted run.
* **Probe** — hash joins on a single shared variable (and ``nested``
  steps cheap enough to build) become a sorted-build + ``searchsorted``
  range expansion: the classic ``repeat``/``cumsum`` gather that emits
  every (left row, build row) match pair without a Python loop.
* **Cartesian** — disconnected patterns cross in ``repeat``/``tile``
  chunks.

Everything stays *streaming at block granularity*: blocks are produced
lazily, so ASK stops after the first emitted row and LIMIT after the
first full page, paying at most one block (:data:`BLOCK_ROWS` rows) of
slack.  Kernels preserve the left stream's row order, so a scalar
``merge`` operator running after the vectorized prefix still sees the
nondecreasing stream the planner promised it.  Results are multiset-
identical to the scalar operators — the differential harnesses pin this
across warm, cold-mmap and sharded stores.

How the blocks leave the kernels depends on the query:

* **Columnar finish** (:func:`plan_blocks` + :func:`finish`) — when every
  plan step vectorizes and the evaluator asks for it (an unordered,
  non-aggregate SELECT projecting ``*`` or plain variables over triple
  patterns, at most one VALUES node and ``=`` / ``!=`` / ``[NOT]
  EXISTS`` FILTERs; see :class:`ColumnarPlan`), projection, DISTINCT and
  OFFSET/LIMIT run on the ID columns and only the page's rows come out,
  as ID tuples.  Two more block operators serve it:

  * **Seed + lookup** — the VALUES rows become the first block, and the
    plan's ``scan`` makes one index call per seed row, gathering the
    matches with ``repeat`` (:func:`_lookup_blocks`).
  * **Masks** — each FILTER becomes a boolean mask applied to every
    block before the finish counts it: an ID comparison (literal pairs
    go through the scalar FILTER) or one ``contains_ids`` probe per row.

* **Per-row emit** (:func:`execute`) — otherwise the blocks become
  :class:`IdBinding` rows, and any steps past the vectorizable prefix run
  through the evaluator's scalar operators.

Both orders are the same: blocks in stream order, rows in block order,
DISTINCT keeping first occurrences, and each seed row's matches in index
order, just as the per-row operators visit them.  That holds because
every index iterates keys, seconds and thirds in ascending ID order, with
or without pending overlay entries.  The pinned Table 1 relies on it.

The kernels run on any store: the index columns are ``memoryview``
windows (over numpy arrays, bytes or an mmap) or merged runs, and sharded
stores concatenate per-shard columns (subject-range partitioning keeps
concatenated subject runs sorted).  Evaluators built with
``use_vectorized=False`` skip them and keep the per-row operators.
"""

from __future__ import annotations

from itertools import chain, repeat, starmap
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as _np

from repro.sparql.ast import FilterNode, TriplePatternNode, ValuesNode
from repro.sparql.bindings import Binding, IdBinding, Variable
from repro.sparql.plan import HASH, MERGE, NESTED, SCAN, BGPPlan, PlanStep
from repro.store.dictionary import KIND_LITERAL

#: Rows per emitted block: large enough to amortise per-block Python,
#: small enough that ASK / LIMIT early exits waste little work.
BLOCK_ROWS = 4096

#: A ``nested`` step is upgraded to a block probe-join only while the
#: pattern's standalone build estimate stays within this factor of the
#: incoming stream's estimated cardinality (plus a flat allowance) —
#: building a huge table to probe it with a handful of rows would trade
#: the scalar path's selectivity away.
NESTED_BUILD_FACTOR = 16.0
NESTED_BUILD_MIN = 4096.0


class CompareMask(NamedTuple):
    """``FILTER(?left = ?right)`` (``equal``) or ``FILTER(?left != ?right)``
    over two variables the BGP binds; ``node`` is the FILTER itself, which
    the scalar evaluator answers for literal-literal rows."""

    left: Variable
    right: Variable
    equal: bool
    node: FilterNode


class ExistsMask(NamedTuple):
    """``FILTER [NOT] EXISTS { pattern }`` over one triple pattern whose
    variables the BGP binds."""

    pattern: TriplePatternNode
    negated: bool


class ColumnarPlan(NamedTuple):
    """A group the columnar finish may answer: the BGP plan, the VALUES
    node seeding it (or ``None``) and the FILTER masks over its blocks."""

    bgp: BGPPlan
    values: Optional[ValuesNode]
    masks: Tuple


# --------------------------------------------------------------------- #
# Column adaptation
# --------------------------------------------------------------------- #
def _as_array(run):
    """``run`` as an int64 ndarray.

    The store hands out index ``memoryview`` windows (over numpy arrays,
    bytes or an mmap), which convert without a copy, and the empty tuple
    of an absent run.
    """
    if isinstance(run, memoryview):
        return _np.frombuffer(run, dtype=_np.int64)
    return _np.fromiter(run, dtype=_np.int64, count=len(run))


def _empty_cols(count: int) -> List:
    return [_np.empty(0, dtype=_np.int64) for _ in range(count)]


# --------------------------------------------------------------------- #
# Pattern tables: a pattern's match set as parallel ID columns
# --------------------------------------------------------------------- #
def _pattern_columns(store, consts) -> Tuple[int, List]:
    """The match set of a resolved pattern as ``(row_count, columns)``.

    ``consts`` is the ``[s, p, o]`` list from ``_resolve_constants``
    (``None`` per variable position); the returned columns align with the
    variable positions in s, p, o order.  Sharded stores concatenate
    per-shard columns — subjects partition by ID range, so concatenated
    subject runs remain sorted and fully-constant probes hit exactly one
    shard.
    """
    shards = getattr(store, "shards", None)
    if shards is not None:
        var_count = sum(1 for c in consts if c is None)
        total = 0
        parts: Optional[List[List]] = None
        for shard in shards:
            n, cols = _pattern_columns(shard, consts)
            if not n:
                continue
            total += n
            if parts is None:
                parts = [[] for _ in cols]
            for bucket, col in zip(parts, cols):
                bucket.append(col)
        if not total:
            return 0, _empty_cols(var_count)
        assert parts is not None
        return total, [
            part[0] if len(part) == 1 else _np.concatenate(part) for part in parts
        ]

    s, p, o = consts
    bound = sum(1 for c in consts if c is not None)
    if bound == 3:
        return (1 if store.contains_ids(s, p, o) else 0), []
    if bound == 2:
        run = _as_array(store.sorted_run_ids(s, p, o))
        return run.size, [run]
    if bound == 1:
        # One constant: one key of the matching index, expanded from its
        # per-key CSR runs.  seconds/thirds map back to pattern positions
        # according to the index permutation.
        if s is not None:
            seconds, bounds, thirds = store._spo.key_columns(s)
            second_col, third_col = _expand_key(seconds, bounds, thirds)
            return third_col.size, [second_col, third_col]  # [p, o]
        if p is not None:
            seconds, bounds, thirds = store._pos.key_columns(p)
            second_col, third_col = _expand_key(seconds, bounds, thirds)
            return third_col.size, [third_col, second_col]  # [s, o]
        seconds, bounds, thirds = store._osp.key_columns(o)
        second_col, third_col = _expand_key(seconds, bounds, thirds)
        return third_col.size, [second_col, third_col]  # [s, p]
    # Zero constants: the whole SPO index as three sorted columns.
    s_col, p_col, o_col = store._spo.rows()
    return o_col.size, [s_col, p_col, o_col]


def _expand_key(seconds, bounds, thirds):
    """Expand one key's ``key_columns`` runs to aligned (second, third)
    columns.  ``bounds`` may carry absolute base offsets (an untouched
    key's zero-copy windows); only the deltas matter here."""
    seconds = _as_array(seconds)
    bounds = _as_array(bounds)
    thirds = _as_array(thirds)
    if not thirds.size:
        return _np.empty(0, dtype=_np.int64), thirds
    return _np.repeat(seconds, _np.diff(bounds)), thirds


def pattern_columns(store, consts) -> Tuple[int, List]:
    """Public wrapper over :func:`_pattern_columns` for other modules.

    The cross-shard join shipper (:mod:`repro.sparql.distjoin`) uses it to
    materialise a broadcast side's ID columns in one vectorized pass.
    """
    return _pattern_columns(store, consts)


def _pattern_run(store, consts):
    """A two-constant pattern's sorted third-level run as one array."""
    shards = getattr(store, "shards", None)
    if shards is None:
        return _as_array(store.sorted_run_ids(*consts))
    parts = [_as_array(shard.sorted_run_ids(*consts)) for shard in shards]
    parts = [part for part in parts if part.size]
    if not parts:
        return _np.empty(0, dtype=_np.int64)
    if len(parts) == 1:
        return parts[0]
    # Subject-range sharding keeps subject runs globally sorted across the
    # shard order; patterns with a constant subject live in one shard.
    return _np.concatenate(parts)


def _pattern_variables(pattern: TriplePatternNode) -> Tuple[Variable, ...]:
    """The pattern's variables in s, p, o position order (with repeats)."""
    return tuple(
        term
        for term in (pattern.subject, pattern.predicate, pattern.object)
        if isinstance(term, Variable)
    )


# --------------------------------------------------------------------- #
# Block operators
# --------------------------------------------------------------------- #
# A block is ``(vars, cols, n)``: ``cols[i]`` is the int64 column of
# ``vars[i]`` and every column has ``n`` rows.  ``vars`` may be empty
# (fully-constant patterns) with ``n`` still carrying the multiplicity.


def _scan_blocks(store, pattern, consts) -> Iterator[Tuple]:
    variables = _pattern_variables(pattern)
    n, cols = _pattern_columns(store, consts)
    if not n:
        return
    for start in range(0, n, BLOCK_ROWS):
        stop = min(n, start + BLOCK_ROWS)
        yield variables, [col[start:stop] for col in cols], stop - start


def _seed_block(dictionary, values: ValuesNode) -> Tuple:
    """A VALUES node's rows as one block: ID columns in row order,
    duplicates kept.  A row holding a term the dictionary never saw is
    dropped, because it can match no pattern."""
    width = len(values.variables)
    ids = list(map(dictionary.id_for, chain.from_iterable(values.rows)))
    n = len(values.rows)
    if None in ids:
        rows = [ids[start : start + width] for start in range(0, len(ids), width)]
        ids = [tid for row in rows if None not in row for tid in row]
        n = len(ids) // width
    table = _np.array(ids, dtype=_np.int64).reshape(n, width)
    return values.variables, [table[:, slot] for slot in range(width)], n


def _lookup_blocks(store, seed, pattern, consts) -> Iterator[Tuple]:
    """Index nested-loop join of a seed block against ``pattern``.

    Each seed row fills the pattern positions its variables bind and makes
    one index call.  With two fixed positions that is ``sorted_run_ids``,
    whose runs are all fetched up front (C-level loops) and converted once
    per block; otherwise :func:`_pattern_columns` (``key_columns`` with
    one fixed position, ``contains_ids`` with three), row by row.  The
    matches are gathered with ``repeat``, with no Python per output row.
    Seed row order is kept and each row's matches come in index order,
    exactly as the per-row ``scan`` lists them.  Blocks are cut once they
    reach :data:`BLOCK_ROWS` rows.
    """
    seed_vars, seed_cols, n = seed
    terms = (pattern.subject, pattern.predicate, pattern.object)
    seeded = [isinstance(term, Variable) and term in seed_vars for term in terms]
    new_vars = tuple(
        term
        for term, fixed in zip(terms, seeded)
        if isinstance(term, Variable) and not fixed
    )
    variables = tuple(seed_vars) + new_vars
    # One (s, p, o) probe per seed row: seed values, constants, None.
    probes = zip(*(
        seed_cols[seed_vars.index(term)].tolist() if fixed else repeat(const, n)
        for term, const, fixed in zip(terms, consts, seeded)
    ))
    if len(new_vars) == 1 and getattr(store, "shards", None) is None:
        runs = list(starmap(store.sorted_run_ids, probes))
        counts = list(map(len, runs))
        for start, stop, total in _cuts(counts):
            out = _repeat_seed(seed_cols, counts, start, stop)
            out.append(
                _np.fromiter(chain.from_iterable(runs[start:stop]), dtype=_np.int64, count=total)
            )
            yield variables, out, total
        return
    counts = []
    parts: List[List] = [[] for _ in new_vars]
    start = pending = 0
    for row, probe in enumerate(probes):
        count, cols = _pattern_columns(store, list(probe))
        counts.append(count)
        if count:
            for part, col in zip(parts, cols):
                part.append(col)
            pending += count
        if pending and (pending >= BLOCK_ROWS or row == n - 1):
            out = _repeat_seed(seed_cols, counts, start, row + 1)
            out.extend(_np.concatenate(part) for part in parts)
            yield variables, out, pending
            start, pending = row + 1, 0
            parts = [[] for _ in new_vars]


def _cuts(counts: List[int]) -> Iterator[Tuple[int, int, int]]:
    """``(start, stop, rows)`` ranges of seed rows whose matches fill a
    block of at least :data:`BLOCK_ROWS` rows (the last may hold fewer)."""
    start = total = 0
    for row, count in enumerate(counts):
        total += count
        if total >= BLOCK_ROWS:
            yield start, row + 1, total
            start, total = row + 1, 0
    if total:
        yield start, len(counts), total


def _repeat_seed(seed_cols, counts: List[int], start: int, stop: int) -> List:
    """Seed rows ``start:stop``, each repeated as often as it matched."""
    rows = _np.repeat(_np.arange(start, stop), counts[start:stop])
    return [col[rows] for col in seed_cols]


def _mask_blocks(blocks, masks: List[Callable]) -> Iterator[Tuple]:
    """Keep each block's rows that every mask accepts, in order.

    A mask maps a block to a boolean keep-array; later masks only see the
    rows earlier ones kept.  Emptied blocks are dropped.
    """
    for variables, cols, n in blocks:
        for mask in masks:
            keep = mask(variables, cols, n)
            kept = int(_np.count_nonzero(keep))
            if kept != n:
                cols = [col[keep] for col in cols]
                n = kept
            if not n:
                break
        if n:
            yield variables, cols, n


def _compare_mask(evaluator, spec: CompareMask) -> Callable:
    """``?a = ?b`` / ``?a != ?b`` as a block mask.

    IDs decide every row where either side is an IRI or blank node: the
    dictionary interns each term once, so equal terms share an ID.  Rows
    where both sides are literals go through the scalar FILTER instead,
    which keeps value equality (``"1"`` vs ``"01"`` as integers) and NaN
    exact.
    """
    dictionary = evaluator.store.dictionary
    decode = dictionary.decode
    expressions = evaluator._expressions

    def literals(col):
        kinds = dictionary.kinds_of(col.tolist())
        return _np.frombuffer(kinds, dtype=_np.uint8) == KIND_LITERAL

    def scalar(left_id, right_id) -> bool:
        binding = Binding({spec.left: decode(left_id), spec.right: decode(right_id)})
        return expressions.evaluate_boolean(spec.node.expression, binding)

    def mask(variables, cols, n):
        left = cols[variables.index(spec.left)]
        right = cols[variables.index(spec.right)]
        keep = (left == right) if spec.equal else (left != right)
        both = _np.flatnonzero(literals(left) & literals(right))
        if both.size:
            keep[both] = list(map(scalar, left[both].tolist(), right[both].tolist()))
        return keep

    return mask


def _exists_mask(evaluator, spec: ExistsMask) -> Callable:
    """``[NOT] EXISTS { pattern }`` as one ``contains_ids`` probe per row.

    A pattern constant missing from the dictionary makes ``EXISTS`` false
    on every row.
    """
    consts = evaluator._resolve_constants(spec.pattern)
    contains = evaluator.store.contains_ids
    terms = (spec.pattern.subject, spec.pattern.predicate, spec.pattern.object)

    def mask(variables, cols, n):
        if consts is None:
            return _np.full(n, spec.negated)
        probes = [
            cols[variables.index(term)].tolist() if const is None else repeat(const, n)
            for term, const in zip(terms, consts)
        ]
        found = _np.fromiter(starmap(contains, zip(*probes)), dtype=bool, count=n)
        return ~found if spec.negated else found

    return mask


def _merge_blocks(blocks, run, variable) -> Iterator[Tuple]:
    """Semi-join each block against a sorted run on ``variable``."""
    if not run.size:
        return
    for variables, cols, n in blocks:
        probe = cols[variables.index(variable)]
        pos = _np.searchsorted(run, probe)
        hits = run[_np.minimum(pos, run.size - 1)] == probe
        kept = int(_np.count_nonzero(hits))
        if not kept:
            continue
        if kept == n:
            yield variables, cols, n
        else:
            yield variables, [col[hits] for col in cols], kept


def _probe_blocks(blocks, build_vars, build_cols, join_variable) -> Iterator[Tuple]:
    """Join each block against a built pattern table on one shared variable.

    The build side is sorted by its join column once; every block then
    probes with two ``searchsorted`` calls and expands the matching ranges
    with the ``repeat``/``cumsum`` gather.  Left row order is preserved.
    """
    slot = build_vars.index(join_variable)
    order = _np.argsort(build_cols[slot], kind="stable")
    sorted_keys = build_cols[slot][order]
    new_vars = tuple(v for i, v in enumerate(build_vars) if i != slot)
    new_cols = [build_cols[i][order] for i, v in enumerate(build_vars) if i != slot]
    for variables, cols, n in blocks:
        probe = cols[variables.index(join_variable)]
        left = _np.searchsorted(sorted_keys, probe, side="left")
        counts = _np.searchsorted(sorted_keys, probe, side="right") - left
        total = int(counts.sum())
        if not total:
            continue
        rows = _np.repeat(_np.arange(n), counts)
        offsets = _np.concatenate(([0], _np.cumsum(counts)[:-1]))
        within = _np.arange(total) - offsets[rows]
        positions = left[rows] + within
        out = [col[rows] for col in cols]
        out.extend(col[positions] for col in new_cols)
        yield variables + new_vars, out, total


def _cross_blocks(blocks, build_vars, build_cols, build_n) -> Iterator[Tuple]:
    """Cartesian-product each block with a built pattern table, chunked so
    no emitted block exceeds ~:data:`BLOCK_ROWS` rows."""
    if not build_n:
        return
    left_chunk = max(1, BLOCK_ROWS // build_n)
    for variables, cols, n in blocks:
        for start in range(0, n, left_chunk):
            stop = min(n, start + left_chunk)
            span = stop - start
            rows = _np.repeat(_np.arange(start, stop), build_n)
            positions = _np.tile(_np.arange(build_n), span)
            out = [col[rows] for col in cols]
            out.extend(col[positions] for col in build_cols)
            yield variables + build_vars, out, span * build_n


def _emit(blocks) -> Iterator[IdBinding]:
    """Stream blocks out as :class:`IdBinding` rows (plain-int values)."""
    for variables, cols, n in blocks:
        if not variables:
            for _ in range(n):
                yield IdBinding.EMPTY
            continue
        columns = [col.tolist() for col in cols]
        for values in zip(*columns):
            yield IdBinding(dict(zip(variables, values)))


# --------------------------------------------------------------------- #
# Plan execution
# --------------------------------------------------------------------- #
def _vectorizable_prefix(steps: Tuple[PlanStep, ...]) -> int:
    """How many leading plan steps the block kernels can run.

    A step qualifies structurally: no repeated variables inside the
    pattern (the columns carry no within-row equality check), and the
    operator must map onto a kernel — ``merge`` always does, ``hash``
    needs at most one join variable, ``nested`` exactly one plus a build
    side the estimates call affordable.  Suffix steps run through the
    scalar operators unchanged.
    """
    prefix = 0
    for index, step in enumerate(steps):
        variables = _pattern_variables(step.pattern)
        if len(set(variables)) != len(variables):
            break
        if index == 0:
            if step.operator != SCAN:
                break
            prefix = 1
            continue
        if step.operator == MERGE:
            prefix = index + 1
            continue
        if step.operator == HASH:
            if len(step.join_variables) > 1:
                break
            prefix = index + 1
            continue
        if step.operator == NESTED:
            if len(step.join_variables) != 1:
                break
            allowance = (
                NESTED_BUILD_FACTOR * steps[index - 1].estimate + NESTED_BUILD_MIN
            )
            if step.build_estimate > allowance:
                break
            prefix = index + 1
            continue
        break
    return prefix


def execute(evaluator, plan: BGPPlan) -> Optional[Iterator[IdBinding]]:
    """Run ``plan`` with block kernels where possible.

    Returns a lazy :class:`IdBinding` iterator covering the *whole* plan —
    the vectorized prefix feeds any remaining steps through the
    evaluator's scalar operators — or ``None`` when not even the first
    scan vectorizes (the caller keeps its scalar pipeline).  Only called
    for single-input groups (empty initial binding, no VALUES): kernels
    compute complete solutions from the store alone.  VALUES-seeded
    groups finish in columns through :func:`plan_blocks` instead, or run
    per row.
    """
    steps = plan.steps
    prefix = _vectorizable_prefix(steps)
    if not prefix:
        return None
    return _execute(evaluator, steps, prefix)


def plan_blocks(evaluator, plan: ColumnarPlan) -> Optional[Iterator[Tuple]]:
    """The plan's lazy block stream, or ``None`` unless every step vectorizes.

    For callers that finish the query in ID columns (:func:`finish`).
    Without a VALUES node these are the blocks :func:`execute` emits as
    rows (same single-input contract).  With one, its rows are the first
    block and the plan's ``scan`` looks each of them up
    (:func:`_lookup_blocks`).  The FILTER masks then drop rows from every
    block, so the finish counts only the rows that survive.
    """
    steps = plan.bgp.steps
    if _vectorizable_prefix(steps) != len(steps):
        return None
    blocks = _blocks(evaluator, steps, plan.values)
    if plan.masks:
        masks = [
            _compare_mask(evaluator, spec)
            if isinstance(spec, CompareMask)
            else _exists_mask(evaluator, spec)
            for spec in plan.masks
        ]
        blocks = _mask_blocks(blocks, masks)
    return blocks


def _blocks(evaluator, steps, values: Optional[ValuesNode] = None) -> Iterator[Tuple]:
    """Blocks of the vectorized ``steps`` (all of them kernel-runnable),
    seeded by ``values`` when given."""
    store = evaluator.store
    consts = evaluator._resolve_constants(steps[0].pattern)
    if consts is None:
        return  # a constant the dictionary never saw: provably empty
    if values is None:
        blocks = _scan_blocks(store, steps[0].pattern, consts)
    else:
        seed = _seed_block(store.dictionary, values)
        blocks = _lookup_blocks(store, seed, steps[0].pattern, consts)
    for step in steps[1:]:
        consts = evaluator._resolve_constants(step.pattern)
        if consts is None:
            return
        if step.operator == MERGE:
            blocks = _merge_blocks(blocks, _pattern_run(store, consts), step.merge_variable)
        elif step.join_variables:
            build_n, build_cols = _pattern_columns(store, consts)
            if not build_n:
                return
            blocks = _probe_blocks(
                blocks,
                _pattern_variables(step.pattern),
                build_cols,
                step.join_variables[0],
            )
        else:
            build_n, build_cols = _pattern_columns(store, consts)
            blocks = _cross_blocks(
                blocks, _pattern_variables(step.pattern), build_cols, build_n
            )
    yield from blocks


def _execute(evaluator, steps, prefix) -> Iterator[IdBinding]:
    solutions: Iterator[IdBinding] = _emit(_blocks(evaluator, steps[:prefix]))
    for step in steps[prefix:]:
        if step.operator == MERGE:
            solutions = evaluator._merge_join(
                solutions, step.pattern, step.merge_variable
            )
        elif step.operator == HASH:
            solutions = evaluator._hash_join(
                solutions, step.pattern, step.join_variables
            )
        else:
            solutions = evaluator._join_pattern(solutions, step.pattern)
    yield from solutions


# --------------------------------------------------------------------- #
# Columnar finish: projection, DISTINCT and OFFSET/LIMIT over blocks
# --------------------------------------------------------------------- #
def finish(
    blocks, variables, distinct: bool, offset: int, limit: Optional[int]
) -> Tuple[List[Variable], List[tuple]]:
    """Project, deduplicate and page a block stream without per-row Python.

    Returns ``(bound, rows)``: the projected ``variables`` the blocks bind
    (projection order, duplicates dropped) and the surviving page as ID
    tuples aligned with ``bound``.  A projected variable the plan never
    binds is left out of ``bound``, so it stays unbound in every row.

    Row order is exactly the per-row path's (emit each block's rows in
    order, project, keep each row's first occurrence under DISTINCT, then
    skip ``offset`` and take ``limit``).  DISTINCT dedups each block with
    ``np.unique(..., return_index=True)`` and sorted first indices, then
    drops rows an earlier block already counted through a running seen
    set; OFFSET/LIMIT slice the columns.  The stream is abandoned as soon
    as ``offset + limit`` rows are counted, which also bounds the seen set.
    """
    stop = None if limit is None else offset + limit
    bound: List[Variable] = []
    rows: List[tuple] = []
    if limit == 0:
        return bound, rows
    slots: Optional[List[int]] = None
    seen: set = set()
    counted = None  # the previous block's rows, not yet in ``seen``
    taken = 0
    for block_vars, cols, n in blocks:
        if slots is None:
            bound = [v for v in dict.fromkeys(variables) if v in block_vars]
            slots = [block_vars.index(v) for v in bound]
        cols = [cols[slot] for slot in slots]
        if distinct:
            # Earlier blocks' rows only matter once a later block exists,
            # so a one-block page never builds Python keys at all.
            if counted is not None:
                seen.update(_row_keys(*counted))
            cols, n = _first_rows(cols, n)
            if seen:
                fresh = _np.fromiter(
                    (key not in seen for key in _row_keys(cols, n)), dtype=bool, count=n
                )
                cols = [col[fresh] for col in cols]
                n = int(_np.count_nonzero(fresh))
            counted = (cols, n)
        start = max(0, offset - taken)
        end = n if stop is None else min(n, stop - taken)
        if start < end:
            if cols:
                rows.extend(zip(*(col[start:end].tolist() for col in cols)))
            else:
                rows.extend([()] * (end - start))
        taken += n
        if stop is not None and taken >= stop:
            break
    return bound, rows


def _first_rows(cols: List, n: int) -> Tuple[List, int]:
    """A block's distinct rows, each at its first occurrence, in order."""
    if not cols:
        return cols, min(n, 1)
    if len(cols) == 1:
        _, first = _np.unique(cols[0], return_index=True)
    else:
        _, first = _np.unique(_np.stack(cols, axis=1), axis=0, return_index=True)
    if first.size == n:
        return cols, n
    first.sort()
    return [col[first] for col in cols], int(first.size)


def _row_keys(cols: List, n: int) -> list:
    """Hashable per-row keys of a block's projected columns."""
    if not cols:
        return [()] * n
    if len(cols) == 1:
        return cols[0].tolist()
    return list(zip(*(col.tolist() for col in cols)))
