"""Vectorized block join kernels over the store's CSR ID columns.

These kernels are the one executor of planned basic graph patterns,
whoever asks: the top-level group of a query, VALUES-seeded lookups and
the groups that arrive with bindings (OPTIONAL, UNION and subgroup
re-entry, per-row FILTER EXISTS, shipped-join anchors seeded with
broadcast keys).  Every operator is a numpy block operation over the
same CSR columns the indexes already keep:

* **Scan / cross** — a pattern's whole match set materialises as
  parallel int64 columns straight off the index (``sorted_run_ids`` for
  two-constant patterns,
  :meth:`~repro.store.index.PermutationIndex.key_columns` for
  one-constant, :meth:`~repro.store.index.PermutationIndex.rows` for
  zero-constant) and crosses the left rows in ``repeat``/``tile``
  chunks; the top-level group's one empty seed row makes that the plain
  scan.  Disconnected patterns cross the same way.
* **Lookup** — one index call per left row for the pattern positions it
  binds, the matches gathered with ``repeat`` (:func:`_lookup_blocks`):
  a first step the seeds bind, ``nested`` steps, and joins on two or
  more shared variables.
* **Merge** — the sort-merge semi-join becomes one ``np.searchsorted``
  probe of the block's join column against the pattern's sorted run.
* **Probe** — a join on one shared variable (``hash`` steps, and
  ``nested`` steps cheap enough to build) sorts the built table once and
  expands every (left row, build row) match pair with the
  ``repeat``/``cumsum`` gather, with no Python loop.

A pattern that repeats a variable (``?x <p> ?x``) keeps the rows whose
repeated positions agree, with one column per variable.

**Seeds.**  The incoming solutions become seed blocks
(:func:`_seed_blocks`): one ID column per BGP variable they bind, plus
an origin column of row indexes when some solution binds a variable the
BGP never uses.  A solution binding a BGP variable to a term outside the
dictionary matches nothing and is dropped.

How the blocks leave depends on the caller:

* **Columnar finish** (:func:`plan_blocks` + :func:`finish`) — for an
  unordered, non-aggregate SELECT projecting ``*`` or plain variables
  over triple patterns, at most one VALUES node and ``=`` / ``!=`` /
  ``[NOT] EXISTS`` FILTERs (see :class:`ColumnarPlan`), projection,
  DISTINCT and OFFSET/LIMIT run on the ID columns and only the page's
  rows come out, as one list of IDs per projected variable — the columns
  the evaluator decodes and the result set keeps.  The VALUES rows are
  the seed block, and each FILTER becomes a boolean mask applied to
  every block before the finish counts it: an ID comparison (literal
  pairs go through the scalar FILTER) or one ``contains_ids`` probe per
  row.
* **Per-row emit** (:func:`execute`) — every other caller reads
  :class:`IdBinding` rows.  Each row extends the solution it grew from,
  so UNDEF, out-of-dictionary values and variables the BGP never uses
  pass through unchanged.

Both orders are the order of the per-row reference operators the tests
keep (``tests/reference_engine.py``): seed order, blocks in stream order,
rows in block order, DISTINCT keeping first occurrences, and each left
row's matches in the order the index visits them — a lookup makes the
per-row operator's own index call, and a built table keeps its scan
order within one key, as the per-row hash join's buckets do.  That holds because every index iterates keys, seconds and thirds in
ascending ID order, with or without pending overlay entries.  The pinned
Table 1 relies on it.

Everything streams at block granularity: blocks are produced lazily, so
ASK stops after the first emitted row and LIMIT after the first full
page, paying at most one block (:data:`BLOCK_ROWS` rows) of slack.

The kernels run on any store: the index columns are ``memoryview``
windows (over numpy arrays, bytes or an mmap) or merged runs, and sharded
stores concatenate per-shard columns (subject-range partitioning keeps
concatenated subject runs sorted).
"""
from __future__ import annotations

from itertools import chain, repeat, starmap
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as _np

from repro.sparql.ast import FilterNode, TriplePatternNode, ValuesNode
from repro.sparql.bindings import Binding, IdBinding, Variable
from repro.sparql.plan import HASH, MERGE, NESTED, BGPPlan, PlanStep
from repro.store.dictionary import KIND_LITERAL

#: Rows per emitted block: large enough to amortise per-block Python,
#: small enough that ASK / LIMIT early exits waste little work.
BLOCK_ROWS = 4096

#: A ``nested`` step is upgraded to a block probe-join only while the
#: pattern's standalone build estimate stays within this factor of the
#: incoming stream's estimated cardinality (plus a flat allowance) —
#: building a huge table to probe it with a handful of rows would trade
#: the per-row lookup's selectivity away.
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
# (fully-constant patterns, the top-level group's empty seed row) with
# ``n`` still carrying the multiplicity.

#: The block column of seed-row indexes: each row's position in the
#: incoming solutions it extends (see :func:`execute`).
ORIGIN = object()


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


def _seed_blocks(solutions: List[IdBinding], variables, carry: bool) -> Iterator[Tuple]:
    """The incoming solutions as seed blocks, in order.

    Each block holds one ID column per BGP variable (of ``variables``)
    its rows bind, plus the :data:`ORIGIN` column when ``carry`` is set.
    Consecutive solutions binding the same BGP variables share a block of
    at most :data:`BLOCK_ROWS` rows.  A solution binding a BGP variable
    to a term outside the dictionary matches no pattern and is dropped.
    """
    run: Optional[Tuple] = None
    rows: List[List] = []
    for index, solution in enumerate(solutions):
        bound = tuple(v for v in variables if solution.get(v) is not None)
        values = [solution.get(v) for v in bound]
        if any(type(value) is not int for value in values):
            continue
        if bound != run or len(rows) == BLOCK_ROWS:
            if rows:
                yield _rows_block(run, rows, carry)
            run, rows = bound, []
        if carry:
            values.append(index)
        rows.append(values)
    if rows:
        yield _rows_block(run, rows, carry)


def _rows_block(variables, rows: List[List], carry: bool) -> Tuple:
    names = variables + (ORIGIN,) if carry else variables
    n = len(rows)
    if not names:
        return (), [], n
    table = _np.array(rows, dtype=_np.int64).reshape(n, len(names))
    return names, [table[:, slot] for slot in range(len(names))], n


def _fold_repeats(variables, cols, n) -> Tuple:
    """Keep the rows whose columns for one repeated variable agree, with
    one column per variable (``?x <p> ?x`` binds ``?x`` once)."""
    distinct = tuple(dict.fromkeys(variables))
    if len(distinct) == len(variables):
        return variables, cols, n
    first = {}
    keep = _np.ones(n, dtype=bool)
    for slot, variable in enumerate(variables):
        if variable in first:
            keep &= cols[first[variable]] == cols[slot]
        else:
            first[variable] = slot
    return (
        distinct,
        [cols[first[variable]][keep] for variable in distinct],
        int(_np.count_nonzero(keep)),
    )


def _lookup_blocks(store, seed, pattern, consts) -> Iterator[Tuple]:
    """Index nested-loop join of a seed block against ``pattern``.

    Each seed row fills the pattern positions its variables bind and makes
    one index call.  With two fixed positions that is ``sorted_run_ids``,
    whose runs are all fetched up front (C-level loops) and converted once
    per block; otherwise :func:`_pattern_columns` (``key_columns`` with
    one fixed position, ``contains_ids`` with three), row by row.  The
    matches are gathered with ``repeat``, with no Python per output row.
    Seed row order is kept and each row's matches come in index order,
    exactly as one ``match_ids`` call per row lists them.  Blocks are cut once they
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
            block = _fold_repeats(variables, out, pending)
            if block[2]:
                yield block
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


def _sorted_build(build, join_variable) -> Tuple:
    """A built table sorted (stably) by its ``join_variable`` column:
    ``(sorted keys, other variables, their columns)``."""
    build_vars, build_cols, _ = build
    slot = build_vars.index(join_variable)
    order = _np.argsort(build_cols[slot], kind="stable")
    return (
        build_cols[slot][order],
        tuple(v for i, v in enumerate(build_vars) if i != slot),
        [col[order] for i, col in enumerate(build_cols) if i != slot],
    )


def _probe_blocks(blocks, build, join_variable) -> Iterator[Tuple]:
    """Join each block against a :func:`_sorted_build` table on one shared
    variable.

    Every block probes with two ``searchsorted`` calls and expands the
    matching ranges with the ``repeat``/``cumsum`` gather.  Left row order
    is preserved, and each row's matches keep the table's scan order.
    """
    sorted_keys, new_vars, new_cols = build
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


def _cross_blocks(blocks, build) -> Iterator[Tuple]:
    """Cartesian-product each block with a built table, chunked so no
    emitted block exceeds ~:data:`BLOCK_ROWS` rows.  One left row, or a
    table that large, meets the table in slices, a left row at a time:
    the top-level group's empty seed row streams the bare scan."""
    build_vars, build_cols, build_n = build
    if not build_n:
        return
    left_chunk = BLOCK_ROWS // build_n
    for variables, cols, n in blocks:
        if n == 1 or not left_chunk:
            for row in range(n):
                for start in range(0, build_n, BLOCK_ROWS):
                    stop = min(build_n, start + BLOCK_ROWS)
                    out = [_np.full(stop - start, col[row]) for col in cols]
                    out.extend(col[start:stop] for col in build_cols)
                    yield variables + build_vars, out, stop - start
            continue
        for start in range(0, n, left_chunk):
            stop = min(n, start + left_chunk)
            span = stop - start
            rows = _np.repeat(_np.arange(start, stop), build_n)
            positions = _np.tile(_np.arange(build_n), span)
            out = [col[rows] for col in cols]
            out.extend(col[positions] for col in build_cols)
            yield variables + build_vars, out, span * build_n


def _emit(blocks, origins: Optional[List[IdBinding]]) -> Iterator[IdBinding]:
    """Stream blocks out as :class:`IdBinding` rows (plain-int values).

    With ``origins``, each row extends the incoming solution its
    :data:`ORIGIN` column names.  The two never disagree: the block binds
    only the BGP variables that solution bound to IDs (same values) and
    ones it left unbound, so the extension is a plain union and every
    variable the BGP never uses (or holds as UNDEF) passes through.
    """
    for variables, cols, n in blocks:
        columns = [col.tolist() for col in cols]
        if origins is not None:
            slot = variables.index(ORIGIN)
            sources = columns.pop(slot)
            names = variables[:slot] + variables[slot + 1 :]
            values = zip(*columns) if columns else repeat((), n)
            for index, row in zip(sources, values):
                data = dict(origins[index].items())
                data.update(zip(names, row))
                yield IdBinding(data)
        elif not variables:
            for _ in range(n):
                yield IdBinding.EMPTY
        else:
            for row in zip(*columns):
                yield IdBinding(dict(zip(variables, row)))


# --------------------------------------------------------------------- #
# Plan execution
# --------------------------------------------------------------------- #
def _probe_pays(step: PlanStep, previous: PlanStep, consts) -> bool:
    """Whether a ``nested`` step probes a built table instead of looking
    up every left row.

    The pattern's standalone build must stay affordable next to the left
    stream's estimate.  A constant-free ``?s ?p ?o`` joined on ``?p``
    always looks up: its scan lists a predicate's matches by subject, the
    per-row lookup (the POS index) by object.
    """
    if len(step.join_variables) != 1:
        return False
    if step.build_estimate > NESTED_BUILD_FACTOR * previous.estimate + NESTED_BUILD_MIN:
        return False
    pattern = step.pattern
    return not (
        consts == [None, None, None]
        and len(set(_pattern_variables(pattern))) == 3
        and pattern.predicate == step.join_variables[0]
    )


def _join(store, blocks, step: PlanStep, consts, probe: bool) -> Iterator[Tuple]:
    """Join every block with ``step``'s pattern.

    Per block, on the pattern variables the block already binds: none —
    cross with the pattern's table; one — probe the table for a ``hash``
    step (or a ``nested`` one when ``probe``), else look each row up; two
    or more — look each row up.  ``merge`` semi-joins the pattern's
    sorted run.  Each left row's matches come in the per-row operators'
    order: a lookup makes the same index call, and a table keeps its scan
    order within one key.  The table is built on the first block that
    needs it.
    """
    if step.operator == MERGE:
        yield from _merge_blocks(blocks, _pattern_run(store, consts), step.merge_variable)
        return
    variables = tuple(dict.fromkeys(_pattern_variables(step.pattern)))
    table = None
    probes: dict = {}
    for block in blocks:
        shared = [v for v in variables if v in block[0]]
        if len(shared) > 1 or (shared and not (probe or step.operator == HASH)):
            yield from _lookup_blocks(store, block, step.pattern, consts)
            continue
        if table is None:
            # The pattern's whole match set, in index order.
            n, cols = _pattern_columns(store, consts)
            table = _fold_repeats(_pattern_variables(step.pattern), cols, n)
            if not table[2]:
                return
        if not shared:
            yield from _cross_blocks((block,), table)
            continue
        variable = shared[0]
        if variable not in probes:
            probes[variable] = _sorted_build(table, variable)
        yield from _probe_blocks((block,), probes[variable], variable)


def _blocks(evaluator, steps, seeds) -> Iterator[Tuple]:
    """The block stream of ``steps`` over the ``seeds`` blocks."""
    store = evaluator.store
    blocks = seeds
    previous = None
    for step in steps:
        consts = evaluator._resolve_constants(step.pattern)
        if consts is None:
            return  # a constant the dictionary never saw: provably empty
        probe = step.operator == NESTED and _probe_pays(step, previous, consts)
        blocks = _join(store, blocks, step, consts, probe)
        previous = step
    yield from blocks


def execute(
    evaluator, plan: BGPPlan, solutions: Iterable[IdBinding]
) -> Iterator[IdBinding]:
    """Run ``plan`` over the incoming ``solutions``, one row at a time.

    The per-row callers' view of the block stream: the top-level group
    (one empty solution), VALUES-fed groups the columnar finish does not
    take, and every re-entry with bindings (OPTIONAL, UNION, subgroups,
    per-row FILTER EXISTS, seeded ship anchors).  The solutions enter as
    :func:`_seed_blocks`; the :data:`ORIGIN` column rides along only when
    some solution binds a variable the BGP never uses, and each emitted
    row then extends its origin solution (:func:`_emit`).
    """
    solutions = list(solutions)
    names = set().union(*solutions)
    if names:
        variables = {v for step in plan.steps for v in _pattern_variables(step.pattern)}
        carry = not names <= variables
        bound = tuple(v for v in dict.fromkeys(chain.from_iterable(solutions)) if v in variables)
        seeds = _seed_blocks(solutions, bound, carry)
    else:
        # Solutions that bind nothing are one block of empty rows.
        carry, seeds = False, iter([((), [], len(solutions))] if solutions else [])
    yield from _emit(_blocks(evaluator, plan.steps, seeds), solutions if carry else None)


def plan_blocks(evaluator, plan: ColumnarPlan) -> Iterator[Tuple]:
    """The plan's lazy block stream, for callers that finish the query in
    ID columns (:func:`finish`).

    The seed is one empty row, or the VALUES node's rows as one block
    (:func:`_seed_block`).  The FILTER masks then drop rows from every
    block, so the finish counts only the rows that survive.
    """
    if plan.values is None:
        seeds = [((), [], 1)]
    else:
        seed = _seed_block(evaluator.store.dictionary, plan.values)
        seeds = [seed] if seed[2] else []
    blocks = _blocks(evaluator, plan.bgp.steps, iter(seeds))
    if plan.masks:
        masks = [
            _compare_mask(evaluator, spec)
            if isinstance(spec, CompareMask)
            else _exists_mask(evaluator, spec)
            for spec in plan.masks
        ]
        blocks = _mask_blocks(blocks, masks)
    return blocks


# --------------------------------------------------------------------- #
# Columnar finish: projection, DISTINCT and OFFSET/LIMIT over blocks
# --------------------------------------------------------------------- #
def finish(
    blocks, variables, distinct: bool, offset: int, limit: Optional[int]
) -> Tuple[List[Variable], List[List[int]], int]:
    """Project, deduplicate and page a block stream without per-row Python.

    Returns ``(bound, columns, size)``: the projected ``variables`` the
    blocks bind (projection order, duplicates dropped), one list of IDs
    per bound variable holding the surviving page, and the page's row
    count.  A projected variable the plan never binds is left out of
    ``bound``, so it stays unbound in every row.

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
    page: List[List[int]] = []
    size = 0
    if limit == 0:
        return bound, page, size
    slots: Optional[List[int]] = None
    seen: set = set()
    counted = None  # the previous block's rows, not yet in ``seen``
    taken = 0
    for block_vars, cols, n in blocks:
        if slots is None:
            bound = [v for v in dict.fromkeys(variables) if v in block_vars]
            slots = [block_vars.index(v) for v in bound]
            page = [[] for _ in bound]
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
            for target, col in zip(page, cols):
                target.extend(col[start:end].tolist())
            size += end - start
        taken += n
        if stop is not None and taken >= stop:
            break
    return bound, page, size


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
