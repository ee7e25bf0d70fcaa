"""Vectorized block join kernels over the store's CSR ID columns.

The scalar evaluator (:mod:`repro.sparql.evaluate`) streams one
:class:`~repro.sparql.bindings.IdBinding` at a time through per-row index
probes.  At paper scale (~14k triples) that is fine; at the 1M–10M-triple
worlds the scale presets build, the per-row Python dominates end-to-end
latency.  This module replaces the hot inner loops with numpy block
operations over the very same CSR columns the indexes already keep:

* **Scan** — a pattern's whole match set materialises as parallel int64
  columns straight off the index (``sorted_run_ids`` for two-constant
  patterns, :meth:`~repro.store.index.FrozenIdIndex.key_columns` for
  one-constant, the full five-column CSR for zero-constant), then streams
  out in bounded blocks.
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
  non-aggregate SELECT over triple patterns only, projecting ``*`` or
  plain variables), projection, DISTINCT and OFFSET/LIMIT run on the ID
  columns and only the page's rows come out, as ID tuples.
* **Per-row emit** (:func:`execute`) — otherwise the blocks become
  :class:`IdBinding` rows, and any steps past the vectorizable prefix run
  through the evaluator's scalar operators.

Both orders are the same: blocks in stream order, rows in block order,
DISTINCT keeping first occurrences.  The pinned Table 1 relies on it.

The kernels are generic over index forms: warm ``array('q')`` columns,
frozen snapshot ``memoryview`` windows (mmap included) and sharded
stores (per-shard columns concatenate; subject-range partitioning keeps
concatenated subject runs sorted).  When numpy is missing — or
``REPRO_NO_NUMPY`` is set — :func:`kernels_available` is ``False`` and
the evaluator keeps its pure-Python operators.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Tuple

from repro.obs import config as _config
from repro.sparql.ast import TriplePatternNode
from repro.sparql.bindings import IdBinding, Variable
from repro.sparql.plan import HASH, MERGE, NESTED, SCAN, BGPPlan, PlanStep
from repro.store.index import ColumnView

try:  # numpy is an optional accelerator throughout the library
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

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


def kernels_available() -> bool:
    """Whether the block kernels can run (numpy importable and not
    disabled via the ``REPRO_NO_NUMPY`` environment variable)."""
    return _np is not None and not _config.numpy_disabled()


# --------------------------------------------------------------------- #
# Column adaptation
# --------------------------------------------------------------------- #
def _as_array(run):
    """``run`` as an int64 ndarray, zero-copy for buffer-backed forms.

    Accepts every third-level run container the store hands out: the
    writable index's ``SortedList``, the frozen index's :class:`ColumnView`
    / raw ``memoryview`` (bytes- or mmap-backed), ``array('q')`` columns,
    and plain sequences.
    """
    if isinstance(run, ColumnView):
        return _np.frombuffer(run.mv, dtype=_np.int64)
    if isinstance(run, (memoryview, array)):
        return _np.frombuffer(run, dtype=_np.int64)
    if isinstance(run, _np.ndarray):
        return run
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
    # Zero constants: the full SPO CSR expands to three columns.
    index = store._spo
    if hasattr(index, "columns"):
        keys, key_groups, seconds, group_starts, thirds = index.columns()
    else:
        keys, key_groups, seconds, group_starts, thirds = index.csr_columns()
    keys = _as_array(keys)
    key_groups = _as_array(key_groups)
    seconds = _as_array(seconds)
    group_starts = _as_array(group_starts)
    thirds = _as_array(thirds)
    if not thirds.size:
        return 0, _empty_cols(3)
    per_key = group_starts[key_groups[1:]] - group_starts[key_groups[:-1]]
    s_col = _np.repeat(keys, per_key)
    p_col = _np.repeat(seconds, _np.diff(group_starts))
    return thirds.size, [s_col, p_col, thirds]


def _expand_key(seconds, bounds, thirds):
    """Expand one key's ``key_columns`` runs to aligned (second, third)
    columns.  ``bounds`` may carry absolute snapshot offsets (the frozen
    index's zero-copy windows); only the deltas matter here."""
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
    Callers must check :func:`kernels_available` first.
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
    compute complete solutions from the store alone.
    """
    steps = plan.steps
    prefix = _vectorizable_prefix(steps)
    if not prefix:
        return None
    return _execute(evaluator, steps, prefix)


def plan_blocks(evaluator, plan: BGPPlan) -> Optional[Iterator[Tuple]]:
    """The plan's lazy block stream, or ``None`` unless every step vectorizes.

    The same blocks :func:`execute` emits as rows, for callers that finish
    the query in ID columns (:func:`finish`).  Same single-input contract
    as :func:`execute`.
    """
    steps = plan.steps
    if _vectorizable_prefix(steps) != len(steps):
        return None
    return _blocks(evaluator, steps)


def _blocks(evaluator, steps) -> Iterator[Tuple]:
    """Blocks of the vectorized ``steps`` (all of them kernel-runnable)."""
    store = evaluator.store
    consts = evaluator._resolve_constants(steps[0].pattern)
    if consts is None:
        return  # a constant the dictionary never saw: provably empty
    blocks = _scan_blocks(store, steps[0].pattern, consts)
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
