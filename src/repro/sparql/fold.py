"""Fold plans: worker-side partial aggregation for scattered COUNT queries.

A *fold plan* (:class:`FoldSpec`) describes how one shard can reduce its
solution stream for a COUNT-only aggregate query into a small partial
result that the parent merges exactly:

* ``COUNT(*)`` and ``COUNT(?v)`` fold to per-group integers — shards hold
  disjoint solutions (subject-range partitioning), so the parent simply
  sums the partials.
* ``COUNT(DISTINCT ?v)`` where ``?v`` is the partition variable (the
  shared subject / ship anchor) also folds to an integer: every subject ID
  lives on exactly one shard, so the per-shard distinct sets are disjoint
  and their sizes sum.
* ``COUNT(DISTINCT ?v)`` over any other variable ships the per-shard
  distinct ID *set* and the parent unions them (the hybrid merge) — still
  O(distinct values) transfer instead of O(solutions).

The fold must be observationally identical to running
:meth:`QueryEvaluator._evaluate_aggregate` over the concatenated shard
streams; :func:`build_fold_spec` therefore refuses (returns ``None``) any
projection shape whose parent-side semantics it cannot mirror exactly,
and the caller falls back to streaming rows and folding in the parent.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.sparql.ast import CountExpression, SelectQuery
from repro.sparql.bindings import IdBinding, Variable
from repro.sparql.functions import value_to_term
from repro.sparql.results import ResultSet

#: One merged/partial accumulator entry: ``{group-key: [counter-per-item]}``
#: where a counter is an ``int`` (summable) or a ``set`` (unionable).
Partial = Dict[Tuple, List]

#: How many solutions a worker folds between cancellation checks.
FOLD_CHECK_INTERVAL = 1024


class FoldItem:
    """One COUNT item of a fold plan.

    ``variable`` is ``None`` for ``COUNT(*)``.  ``local`` marks a DISTINCT
    item whose variable is the partition variable: its per-shard set can be
    collapsed to its size before leaving the worker.
    """

    __slots__ = ("variable", "distinct", "local")

    def __init__(self, variable: Optional[Variable], distinct: bool, local: bool):
        self.variable = variable
        self.distinct = distinct
        self.local = local

    def __getstate__(self):
        return (self.variable, self.distinct, self.local)

    def __setstate__(self, state):
        self.variable, self.distinct, self.local = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FoldItem({self.variable!r}, distinct={self.distinct}, local={self.local})"


class FoldSpec:
    """A complete fold plan: grouping variables plus one entry per COUNT item.

    Instances are pickled into worker eval tasks; they carry only
    :class:`Variable` references and flags, never store state.
    """

    __slots__ = ("group_by", "items")

    def __init__(self, group_by: Tuple[Variable, ...], items: Tuple[FoldItem, ...]):
        self.group_by = group_by
        self.items = items

    def __getstate__(self):
        return (self.group_by, self.items)

    def __setstate__(self, state):
        self.group_by, self.items = state

    def describe(self) -> str:
        parts = []
        for item in self.items:
            if item.variable is None:
                parts.append("count(*)")
            elif not item.distinct:
                parts.append(f"count(?{item.variable.name})")
            elif item.local:
                parts.append(f"count(distinct ?{item.variable.name})/sum")
            else:
                parts.append(f"count(distinct ?{item.variable.name})/union")
        grouped = ",".join(f"?{v.name}" for v in self.group_by) or "-"
        return f"fold[group={grouped} items={' '.join(parts)}]"


def build_fold_spec(
    query: SelectQuery, partition_variable: Variable
) -> Optional[FoldSpec]:
    """The fold plan for ``query``, or ``None`` when it cannot be pushed down.

    Only projections made of plain variables and ``COUNT`` expressions are
    supported — exactly the shapes :meth:`_evaluate_aggregate` folds — so a
    ``None`` return means "stream rows and fold in the parent", never a
    semantic change.  ``partition_variable`` is the variable whose values
    are disjoint across shards (the scatter subject or ship anchor), which
    decides whether a DISTINCT set may collapse to its size worker-side.
    """
    items: List[FoldItem] = []
    plain: List[Variable] = []
    for item in query.projection:
        expression = item.expression
        if isinstance(expression, CountExpression):
            items.append(
                FoldItem(
                    expression.variable,
                    bool(expression.distinct and not expression.counts_all),
                    bool(
                        expression.distinct
                        and expression.variable == partition_variable
                    ),
                )
            )
        elif expression is None and item.variable is not None:
            plain.append(item.output_variable)
        else:
            return None  # non-COUNT expression: parent-side fold only
    if not items:
        return None
    group_by = tuple(query.group_by) if query.group_by else tuple(plain)
    return FoldSpec(group_by, tuple(items))


def fold_local(
    solutions: Iterable[IdBinding],
    spec: FoldSpec,
    should_stop=None,
) -> Optional[Partial]:
    """Fold one shard's solution stream into an encoded partial.

    Mirrors the accumulate loop of ``_evaluate_aggregate``; DISTINCT sets
    for the partition variable leave as their size (disjointness makes the
    sizes summable).  ``should_stop`` is polled every
    :data:`FOLD_CHECK_INTERVAL` solutions so cancelled worker tasks abort
    promptly; a stop returns ``None``.
    """
    group_by = spec.group_by
    items = spec.items
    groups: Partial = {}
    pending = FOLD_CHECK_INTERVAL
    for solution in solutions:
        key = tuple(solution.get(v) for v in group_by)
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = groups[key] = [
                set() if item.distinct else 0 for item in items
            ]
        for index, item in enumerate(items):
            variable = item.variable
            if variable is None:
                accumulators[index] += 1
                continue
            value = solution.get(variable)
            if value is None:
                continue
            if item.distinct:
                accumulators[index].add(value)
            else:
                accumulators[index] += 1
        pending -= 1
        if pending <= 0:
            pending = FOLD_CHECK_INTERVAL
            if should_stop is not None and should_stop():
                return None
    if any(item.local for item in items):
        for accumulators in groups.values():
            for index, item in enumerate(items):
                if item.local:
                    accumulators[index] = len(accumulators[index])
    return groups


def merge_partial(spec: FoldSpec, merged: Partial, partial: Partial) -> None:
    """Merge one shard's partial into ``merged`` (ints sum, sets union)."""
    items = spec.items
    for key, accumulators in partial.items():
        target = merged.get(key)
        if target is None:
            merged[key] = [
                set(acc) if isinstance(acc, set) else acc for acc in accumulators
            ]
            continue
        for index, item in enumerate(items):
            if item.distinct and not item.local:
                target[index] |= accumulators[index]
            else:
                target[index] += accumulators[index]


def finalize(
    query: SelectQuery, spec: FoldSpec, merged: Partial, dictionary
) -> ResultSet:
    """Decode the merged partials into the query's result set.

    An ungrouped query over an empty input still yields its single zero
    row; the rows are those of :func:`group_rows`, exactly as
    ``_evaluate_aggregate`` builds them.
    """
    if not spec.group_by and not merged:
        merged[()] = [set() if item.distinct else 0 for item in spec.items]
    return group_rows(query, spec.group_by, merged, dictionary)


def group_rows(query: SelectQuery, group_by, groups: Partial, dictionary) -> ResultSet:
    """The result set of folded COUNT groups, one row per group.

    Grouping values decode from IDs, counters (ints, or sets counted by
    size) become integer literals, and OFFSET/LIMIT slice the rows.
    """
    variables = [item.output_variable for item in query.projection]
    decode = dictionary.decode
    rows: List[dict] = []
    for key, accumulators in groups.items():
        data = {}
        for variable, value in zip(group_by, key):
            if value is not None:
                data[variable] = decode(value) if type(value) is int else value
        counters = iter(accumulators)
        for item in query.projection:
            if isinstance(item.expression, CountExpression):
                counter = next(counters)
                count = len(counter) if isinstance(counter, set) else counter
                data[item.output_variable] = value_to_term(count)
        rows.append(data)

    if query.offset:
        rows = rows[query.offset :]
    if query.limit is not None:
        rows = rows[: query.limit]
    return ResultSet.from_rows(variables, rows)
