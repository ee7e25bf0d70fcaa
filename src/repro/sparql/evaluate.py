"""Query evaluation against a :class:`~repro.store.TripleStore`.

The evaluator walks the AST produced by the parser.  Basic graph patterns
are evaluated **in ID space**: variables bind to dictionary IDs (plain
ints) straight off the store's :meth:`~repro.store.TripleStore.match_ids`
index scans, so join equality checks compare integers rather than hashing
Term objects.  Evaluation is **streaming**: the whole BGP pipeline is a
chain of generators, so ASK stops at the first solution, LIMIT queries
without ORDER BY stop as soon as the page is full, and COUNT-only
aggregates fold solutions into counters without materialising a solution
list.  Terms are only materialised for FILTER expression evaluation and
for the rows actually returned.

Columnar finish
---------------
An unordered, non-aggregate SELECT whose projection is ``*`` or plain
variables skips per-row solutions entirely when the planner and the
block kernels are on, its WHERE group has a shape
:meth:`QueryEvaluator._columnar_plan` accepts and *every* plan step
vectorizes.  The accepted groups hold triple patterns plus at most one
VALUES node (no UNDEF, every variable used by a pattern) and FILTERs of
the forms ``?a = ?b``, ``?a != ?b`` and ``[NOT] EXISTS { one pattern }``
over variables the patterns bind — the shapes of every non-aggregate
query the aligner sends: paged samples, VALUES lookups and UBS
disagreement samples.  The VALUES rows seed the kernels, the FILTERs
become block masks, and :func:`repro.sparql.kernels.finish` projects,
deduplicates (DISTINCT) and pages (OFFSET/LIMIT) the ID columns; only the
surviving page is decoded, one dictionary call per column.  Anything else
— ORDER BY, aggregates, other FILTERs, OPTIONAL / UNION / subgroups,
expression projections, a plan step the kernels cannot run, or an
evaluator built with ``use_vectorized=False`` — takes the per-row chain:
kernel or scalar solutions are projected, deduplicated and sliced one row
at a time.  Both paths return the same rows in the same order; unordered
pages decide which samples the aligner sees, so that order is part of the
contract.  One method, :meth:`QueryEvaluator._page_ids`, owns both
paths; sharded pages reuse it per shard (see :mod:`repro.sparql.scatter`).

Plan → operator pipeline
------------------------
Each basic graph pattern goes through :func:`repro.sparql.plan.plan_bgp`:
a greedy planner estimates per-pattern cardinalities from the store's
index bookkeeping, orders patterns by estimated output size given the
variables already bound, and labels every step with a physical operator.
The evaluator then assembles the generator chain from those labels:

* ``scan`` / ``nested`` — per-solution index lookups
  (:meth:`_join_pattern`), the cheapest choice for selective patterns;
* ``merge`` — :meth:`_merge_join`, a sort-merge semi-join that walks the
  pattern's sorted third-level ID run in lockstep with the (sorted)
  solution stream;
* ``hash`` — :meth:`_hash_join`, which builds a hash table over the
  smaller estimated side once and probes it per streamed solution (also
  used to avoid rescanning disconnected patterns per solution).

All operators stream left-to-right, so ASK / LIMIT short-circuiting is
preserved; the hash build side is the only materialised piece and the
planner only picks it when that side is the smaller one.  Plans are
cached per (group, bound-variables) and invalidated whenever the store's
``data_version`` mutation stamp changes (every ``add`` / ``remove`` /
``bulk_load`` bumps it, so plans cannot go stale after mutations that
leave the size unchanged); ``QueryEvaluator(store, use_planner=False)``
keeps the original constant-count ordering with nested joins as a
reference implementation (benchmarks and property tests cross-check the
two).
"""

from __future__ import annotations

import heapq
import threading
import weakref
from contextlib import closing
from itertools import islice
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.errors import SparqlError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.sparql.ast import (
    AskQuery,
    BinaryExpression,
    CountExpression,
    ExistsExpression,
    FilterNode,
    GroupGraphPattern,
    OptionalNode,
    Query,
    SelectQuery,
    TriplePatternNode,
    UnionNode,
    ValuesNode,
    VariableExpression,
)
from repro.sparql import kernels
from repro.sparql.bindings import Binding, IdBinding, Variable
from repro.sparql.fold import group_rows
from repro.sparql.functions import EvalError, ExpressionEvaluator, value_to_term
from repro.sparql.parser import parse_query
from repro.sparql.plan import (
    HASH,
    MERGE,
    PLAN_CACHE_LIMIT,
    BGPPlan,
    plan_bgp,
    plan_context,
    resolve_pattern_ids,
)
from repro.sparql.results import AskResult, ResultSet
from repro.store.triplestore import TripleStore

#: Sentinel for "constant term unknown to the store's dictionary": the
#: pattern can never match, which is distinct from ``None`` (wildcard).
_MISS = object()


class _Descending:
    """Wraps one ORDER BY sort-key component with inverted comparisons.

    Tuple comparison probes ``==`` to skip the equal prefix and ``<`` to
    decide; inverting both makes a DESC condition sort descending inside a
    single lexicographic key while staying stable (equal keys still compare
    equal), matching the per-condition ``reverse=True`` stable sorts of
    :meth:`QueryEvaluator._order_rows`.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other: "_Descending") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Descending) and other.value == self.value

    def __hash__(self) -> int:  # pragma: no cover - keys are never hashed
        return hash(self.value)


class QueryEvaluator:
    """Evaluates parsed queries against one triple store.

    Parameters
    ----------
    store:
        The dataset queried.
    use_planner:
        When ``True`` (default), basic graph patterns are ordered and
        joined by the cardinality-driven planner (:mod:`repro.sparql.plan`).
        ``False`` keeps the original constant-count ordering with nested
        index-lookup joins — a reference implementation used by property
        tests and benchmarks to cross-check the planned operators.
    use_vectorized:
        ``True`` (default) runs planned BGPs through the numpy block
        kernels (:mod:`repro.sparql.kernels`); ``False`` keeps the scalar
        per-row operators as the differential reference.
    """

    def __init__(
        self,
        store: TripleStore,
        use_planner: bool = True,
        use_vectorized: bool = True,
    ):
        self.store = store
        self._dict = store.dictionary
        # A bound method here would put the evaluator, and through it the
        # store, in a reference cycle that only the cyclic collector frees:
        # a dropped endpoint's store would outlive it by up to a full
        # collection.  The weak method keeps the callback from owning it.
        exists = weakref.WeakMethod(self._exists)
        self._expressions = ExpressionEvaluator(
            exists_callback=lambda group, binding: exists()(group, binding)
        )
        self._use_planner = use_planner
        self._use_vectorized = use_vectorized
        self._metrics = obs_metrics.registry()
        self._tracer = obs_trace.recorder()
        # Per-thread execution-mode note (single / fast-count / fold /
        # scatter / ship / global): first write per query wins, so the
        # top-level routing decision survives nested group evaluations.
        self._mode_local = threading.local()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def evaluate(self, query: Union[Query, str]) -> Union[ResultSet, AskResult]:
        """Evaluate a query (AST or SPARQL text) and return its result."""
        self._mode_local.mode = None
        if isinstance(query, str):
            query = parse_query(query)
        if isinstance(query, SelectQuery):
            return self._evaluate_select(query)
        if isinstance(query, AskQuery):
            return self._evaluate_ask(query)
        raise SparqlError(f"Unsupported query type: {type(query).__name__}")

    def _note_mode(self, mode: str) -> None:
        """Record this query's execution mode (first write per query wins)."""
        if getattr(self._mode_local, "mode", None) is None:
            self._mode_local.mode = mode

    def last_mode(self) -> str:
        """The execution mode of this thread's most recent query."""
        return getattr(self._mode_local, "mode", None) or "single"

    # ------------------------------------------------------------------ #
    # SELECT / ASK
    # ------------------------------------------------------------------ #
    def _evaluate_select(self, query: SelectQuery) -> ResultSet:
        if query.is_aggregate:
            fast = self._try_fast_count(query)
            if fast is not None:
                return fast
            return self._evaluate_aggregate(
                query, self._evaluate_group(query.where, IdBinding.EMPTY)
            )

        variables = self._output_variables(query)
        if not query.order_by:
            page = self._page_ids(query, query.offset, query.limit)
            return ResultSet(variables, self._decode_columns(variables, *page), page[2])

        # Ordering needs the full solution sequence; decode eagerly.
        decoded = (
            self._project(query, solution, variables).decode(self._dict)
            for solution in self._evaluate_group(query.where, IdBinding.EMPTY)
        )
        if query.limit is not None:
            # ORDER BY ... LIMIT k: a bounded heap selects the top
            # offset+k rows in one pass instead of materialising and
            # fully sorting every solution.
            return ResultSet.from_rows(variables, self._top_rows(decoded, query))
        rows = self._order_rows(list(decoded), query)
        if query.distinct:
            rows = self._distinct_list(rows)
        rows = self._slice(rows, query.offset, query.limit)
        return ResultSet.from_rows(variables, rows)

    @staticmethod
    def _output_variables(query: SelectQuery) -> List[Variable]:
        """The result variables of a non-aggregate SELECT, in output order."""
        if query.select_all:
            return query.where.variables()
        return [item.output_variable for item in query.projection]

    def _page_ids(
        self, query: SelectQuery, offset: int, limit: Optional[int]
    ) -> Tuple[List[Variable], List[list], int]:
        """The ``offset``/``limit`` page of an unordered SELECT, in ID space.

        Returns ``(bound, columns, size)``: one column per variable of
        ``bound``, each holding the page's ``size`` values in row order —
        dictionary IDs, Terms (expression projections, out-of-dictionary
        VALUES terms) or ``None`` (unbound).  A projected variable missing
        from ``bound`` is unbound in every row.  ``offset`` and ``limit``
        replace the query's own, so a shard can serve its slice of a
        global page (see
        :class:`~repro.sparql.scatter.ShardedQueryEvaluator`); the rows are
        the ones the per-row path yields, in the same order, whichever of
        the two paths answers:

        * the columnar finish, when :meth:`_columnar_plan` accepts the
          query and every plan step vectorizes — the kernel blocks,
          seeded by the VALUES rows and masked by the FILTERs, are
          projected, deduplicated and paged by :func:`kernels.finish`;
        * otherwise per row: :meth:`_evaluate_group` solutions are
          projected, deduplicated and sliced one at a time, and the rows
          are transposed into columns once at the end.
        """
        variables = self._output_variables(query)
        plan = self._columnar_plan(query)
        blocks = None if plan is None else kernels.plan_blocks(self, plan)
        if blocks is not None:
            return self._finish_columns(query, variables, plan, blocks, offset, limit)
        solutions = self._evaluate_group(query.where, IdBinding.EMPTY)
        if self._plain_projection(query):
            projected: Iterator[tuple] = (
                tuple(map(solution.get, variables)) for solution in solutions
            )
        else:
            projected = (
                tuple(map(self._project(query, solution, variables).get, variables))
                for solution in solutions
            )
        if query.distinct:
            projected = self._distinct_stream(projected)
        if offset or limit is not None:
            stop = None if limit is None else offset + limit
            projected = islice(projected, offset, stop)
        rows = list(projected)
        if not rows:
            return variables, [[] for _ in variables], 0
        return variables, [list(column) for column in zip(*rows)], len(rows)

    def _decode_columns(self, variables, bound, columns, size: int) -> List[list]:
        """The Term columns of a :meth:`_page_ids` page, aligned with
        ``variables`` (all ``None`` for a variable missing from ``bound``)."""
        decoded = dict(zip(bound, map(self._dict.decode_column, columns)))
        return [
            decoded[variable] if variable in decoded else [None] * size
            for variable in variables
        ]

    def _columnar_plan(self, query: SelectQuery) -> Optional[kernels.ColumnarPlan]:
        """The plan of a query the columnar finish may answer, else ``None``.

        Called for unordered, non-aggregate SELECTs, with the planner and
        kernels on and every projection item a plain variable (or
        ``SELECT *``).  The WHERE group qualifies when it holds triple
        patterns plus, optionally:

        * one VALUES node with no UNDEF whose variables all occur in some
          pattern (its rows seed the plan, as in :meth:`_evaluate_group`);
        * FILTERs ``?a = ?b`` / ``?a != ?b`` over variables the patterns
          bind;
        * FILTERs ``[NOT] EXISTS`` over one triple pattern whose variables
          the patterns bind.

        Anything else returns ``None`` and takes the per-row path.
        Whether every plan step vectorizes is decided by
        :func:`kernels.plan_blocks`.
        """
        if not (self._use_planner and self._use_vectorized):
            return None
        if not self._plain_projection(query):
            return None
        group = query.where
        patterns = [e for e in group.elements if isinstance(e, TriplePatternNode)]
        values = [e for e in group.elements if isinstance(e, ValuesNode)]
        filters = [e for e in group.elements if isinstance(e, FilterNode)]
        if not patterns or len(values) > 1:
            return None
        if len(patterns) + len(values) + len(filters) != len(group.elements):
            return None
        bgp_vars = {v for pattern in patterns for v in pattern.variables()}
        seed = values[0] if values else None
        if seed is not None and not (
            set(seed.variables) <= bgp_vars
            and len(set(seed.variables)) == len(seed.variables)
            and all(term is not None for row in seed.rows for term in row)
        ):
            return None
        masks = tuple(self._filter_mask(node, bgp_vars) for node in filters)
        if None in masks:
            return None
        bound = set(seed.variables) if seed is not None else set()
        plan = self._plan_for(group, patterns, bound, seed is None)
        return kernels.ColumnarPlan(plan, seed, masks)

    @staticmethod
    def _filter_mask(node: FilterNode, bgp_vars: set):
        """The block mask of a FILTER the columnar finish runs, else ``None``."""
        expression = node.expression
        if isinstance(expression, BinaryExpression):
            left, right = expression.left, expression.right
            if (
                expression.operator in ("=", "!=")
                and isinstance(left, VariableExpression)
                and isinstance(right, VariableExpression)
                and {left.variable, right.variable} <= bgp_vars
            ):
                return kernels.CompareMask(
                    left.variable, right.variable, expression.operator == "=", node
                )
            return None
        if isinstance(expression, ExistsExpression):
            elements = expression.group.elements
            if (
                len(elements) == 1
                and isinstance(elements[0], TriplePatternNode)
                and set(elements[0].variables()) <= bgp_vars
            ):
                return kernels.ExistsMask(elements[0], expression.negated)
        return None

    @staticmethod
    def _plain_projection(query: SelectQuery) -> bool:
        """Whether the projection is ``*`` or plain variables only."""
        return query.select_all or all(
            item.expression is None and item.alias is None and item.variable is not None
            for item in query.projection
        )

    def _finish_columns(
        self,
        query: SelectQuery,
        variables: List[Variable],
        plan: kernels.ColumnarPlan,
        blocks: Iterator[Tuple],
        offset: int,
        limit: Optional[int],
    ) -> Tuple[List[Variable], List[List[int]], int]:
        """Project, deduplicate and page the kernel blocks in ID columns
        (:func:`kernels.finish`)."""
        self._metrics.increment("kernel.vectorized")
        if self._tracer.active:
            span = self._tracer.stream_span("kernel", steps=len(plan.bgp.steps))
            if span is not None:
                # A block is (variables, columns, row count).
                blocks = obs_trace.count_rows(span, blocks, size=lambda block: block[2])
        # Closing the abandoned stream ends the kernel span before decoding.
        with closing(blocks):
            return kernels.finish(blocks, variables, query.distinct, offset, limit)

    def _evaluate_ask(self, query: AskQuery) -> AskResult:
        for _ in self._evaluate_group(query.where, IdBinding.EMPTY):
            return AskResult(True)
        return AskResult(False)

    def _try_fast_count(self, query: SelectQuery) -> Optional[ResultSet]:
        """Answer a single-pattern, non-grouped COUNT query from index counts.

        The typed client's ``count_facts`` / ``count_subjects`` shapes —
        ``SELECT (COUNT(*) AS ?c) WHERE { ?s <p> ?o }`` and the
        ``COUNT(DISTINCT ?v)`` variant — are issued constantly by the
        aligner.  Plain counts are O(1) index lookups; distinct counts
        never materialise solutions but may union per-key ID runs (see
        :meth:`TripleStore.count_distinct_ids`).  Returns ``None`` when
        the query does not fit the shape.
        """
        if query.group_by:
            return None
        elements = query.where.elements
        if len(elements) != 1 or not isinstance(elements[0], TriplePatternNode):
            return None
        if any(
            not isinstance(item.expression, CountExpression) for item in query.projection
        ):
            return None
        pattern = elements[0]

        position_of = {}
        resolved = []
        missing = False
        for position, term in zip(
            "spo", (pattern.subject, pattern.predicate, pattern.object)
        ):
            if isinstance(term, Variable):
                if term in position_of:
                    return None  # repeated variable joins within the pattern
                position_of[term] = position
                resolved.append(None)
            else:
                tid = self._dict.id_for(term)
                if tid is None:
                    missing = True  # constant absent from the store
                resolved.append(tid)
        s, p, o = resolved

        data = {}
        for item in query.projection:
            expression = item.expression
            if missing:
                count = 0
            elif expression.counts_all or (
                not expression.distinct and expression.variable in position_of
            ):
                count = self.store.count_ids(s, p, o)
            elif expression.distinct and expression.variable in position_of:
                count = self.store.count_distinct_ids(
                    position_of[expression.variable], s, p, o
                )
            else:
                count = 0  # COUNT over a variable the pattern never binds
            data[item.output_variable] = value_to_term(count)

        variables = [item.output_variable for item in query.projection]
        return ResultSet.from_rows(variables, self._slice([data], query.offset, query.limit))

    def _evaluate_aggregate(
        self, query: SelectQuery, solutions: Iterable[IdBinding]
    ) -> ResultSet:
        """Fold a COUNT-only aggregate query (optionally GROUP BY) in one pass."""
        non_aggregate = [
            item
            for item in query.projection
            if not isinstance(item.expression, CountExpression)
        ]
        count_items = [
            item
            for item in query.projection
            if isinstance(item.expression, CountExpression)
        ]
        group_by = list(query.group_by)
        if not group_by and non_aggregate:
            group_by = [item.output_variable for item in non_aggregate if item.variable]

        def fresh_accumulators() -> list:
            return [
                set() if item.expression.distinct and not item.expression.counts_all else 0
                for item in count_items
            ]

        def accumulate(accumulators: list, solution: IdBinding) -> None:
            for index, item in enumerate(count_items):
                expression = item.expression
                if expression.counts_all:
                    accumulators[index] += 1
                    continue
                value = solution.get(expression.variable)
                if value is None:
                    continue
                if expression.distinct:
                    accumulators[index].add(value)
                else:
                    accumulators[index] += 1

        groups: dict[Tuple, list] = {}
        if group_by:
            for solution in solutions:
                key = tuple(solution.get(v) for v in group_by)
                accumulators = groups.get(key)
                if accumulators is None:
                    accumulators = groups[key] = fresh_accumulators()
                accumulate(accumulators, solution)
        else:
            # A COUNT without GROUP BY always yields exactly one row, even
            # over an empty solution sequence (count = 0).
            accumulators = groups[()] = fresh_accumulators()
            for solution in solutions:
                accumulate(accumulators, solution)

        return group_rows(query, group_by, groups, self._dict)

    def _project(
        self, query: SelectQuery, solution: IdBinding, variables: List[Variable]
    ) -> IdBinding:
        """Project a solution onto the output variables, staying in ID space.

        Expression projections are evaluated over a decoded Term binding
        and their results stored as Terms (IdBinding values may be either).
        """
        if query.select_all:
            data = {}
            for variable in variables:
                value = solution.get(variable)
                if value is not None:
                    data[variable] = value
            return IdBinding(data)
        data = {}
        decoded: Optional[Binding] = None
        for item in query.projection:
            if item.expression is not None and not isinstance(item.expression, CountExpression):
                if decoded is None:
                    decoded = solution.decode(self._dict)
                try:
                    value = self._expressions.evaluate(item.expression, decoded)
                except EvalError:
                    continue
                data[item.output_variable] = value_to_term(value)
            elif item.variable is not None:
                value = solution.get(item.variable)
                if value is not None:
                    data[item.output_variable] = value
        return IdBinding(data)

    def _condition_keys(self, query: SelectQuery):
        """``row -> (key per ORDER BY condition)`` for sorting decoded rows."""

        def key_for(row: Binding) -> Tuple:
            keys: List = []
            for condition in query.order_by:
                try:
                    value = self._expressions.evaluate(condition.expression, row)
                except EvalError:
                    keys.append((0, ""))
                    continue
                from repro.rdf.terms import IRI, Literal

                if isinstance(value, Literal):
                    keys.append((1,) + value.sort_key())
                elif isinstance(value, IRI):
                    keys.append((2, 0.0, value.value))
                elif isinstance(value, bool):
                    keys.append((1, float(value), ""))
                elif isinstance(value, (int, float)):
                    keys.append((1, 0, float(value)))
                else:
                    keys.append((1, 0.0, str(value)))
            return tuple(keys)

        return key_for

    def _order_rows(self, rows: List[Binding], query: SelectQuery) -> List[Binding]:
        key_for = self._condition_keys(query)
        ordered = rows
        # Apply conditions right-to-left so earlier conditions dominate
        # (stable sort); descending handled per condition.
        for index in range(len(query.order_by) - 1, -1, -1):
            condition = query.order_by[index]

            def single_key(row: Binding, idx: int = index) -> Tuple:
                return key_for(row)[idx]

            ordered = sorted(ordered, key=single_key, reverse=condition.descending)
        return ordered

    def _top_rows(self, rows: Iterable[Binding], query: SelectQuery) -> List[Binding]:
        """The ``ORDER BY ... [OFFSET] LIMIT k`` page via a bounded heap.

        Equivalent to :meth:`_order_rows` + distinct + slice: the heap keeps
        only ``offset + limit`` rows alive, descending conditions compare
        through :class:`_Descending` (stable, like ``reverse=True`` sorts),
        and ``heapq.nsmallest`` preserves first-occurrence order between
        equal keys exactly as the stable full sort would.
        """
        if query.distinct:
            rows = self._distinct_stream(rows)
        keep = query.offset + query.limit
        if keep <= 0:
            return []
        key_for = self._condition_keys(query)
        descending = [condition.descending for condition in query.order_by]
        if any(descending):

            def sort_key(row: Binding) -> Tuple:
                return tuple(
                    _Descending(key) if desc else key
                    for key, desc in zip(key_for(row), descending)
                )

        else:
            sort_key = key_for
        top = heapq.nsmallest(keep, rows, key=sort_key)
        return top[query.offset :]

    @staticmethod
    def _distinct_list(rows: List[Binding]) -> List[Binding]:
        seen = set()
        unique: List[Binding] = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                unique.append(row)
        return unique

    @staticmethod
    def _distinct_stream(rows: Iterable[IdBinding]) -> Iterator[IdBinding]:
        seen = set()
        for row in rows:
            if row not in seen:
                seen.add(row)
                yield row

    @staticmethod
    def _slice(rows: list, offset: int, limit: Optional[int]) -> list:
        if offset:
            rows = rows[offset:]
        if limit is not None:
            rows = rows[:limit]
        return rows

    # ------------------------------------------------------------------ #
    # Graph pattern evaluation (streaming, ID space)
    # ------------------------------------------------------------------ #
    def _evaluate_group(
        self, group: GroupGraphPattern, initial: IdBinding
    ) -> Iterator[IdBinding]:
        """Evaluate one group: VALUES first, then the planned BGP, then the rest.

        FILTER / OPTIONAL / UNION / subgroups keep their relative position
        *after* all triple patterns of the group, matching SPARQL's
        bottom-up semantics for the subset we support.  This is the
        per-row path; the columnar finish of a top-level page builds the
        same plan (:meth:`_columnar_plan`) and must yield the same rows in
        the same order.
        """
        values_nodes = [e for e in group.elements if isinstance(e, ValuesNode)]
        patterns = [e for e in group.elements if isinstance(e, TriplePatternNode)]
        others = [
            e
            for e in group.elements
            if not isinstance(e, (TriplePatternNode, ValuesNode))
        ]

        solutions: Iterable[IdBinding] = (initial,)
        for node in values_nodes:
            solutions = self._apply_values(solutions, node)

        if patterns:
            if self._use_planner:
                bound = set(initial)
                bound |= self._values_bound(values_nodes)
                plan = self._plan_for(group, patterns, bound, not values_nodes)
                solutions = self._run_plan(
                    plan,
                    solutions,
                    root_call=not len(initial),
                    single_input=not values_nodes,
                )
            else:
                for pattern in self._order_by_constants(patterns):
                    solutions = self._join_pattern(solutions, pattern)

        for element in others:
            if isinstance(element, FilterNode):
                solutions = self._apply_filter(solutions, element)
            elif isinstance(element, OptionalNode):
                solutions = self._apply_optional(solutions, element)
            elif isinstance(element, UnionNode):
                solutions = self._apply_union(solutions, element)
            elif isinstance(element, GroupGraphPattern):
                solutions = self._apply_subgroup(solutions, element)
            else:  # pragma: no cover - parser prevents this
                raise SparqlError(f"Unsupported group element: {element!r}")
        return iter(solutions)

    def _run_plan(
        self,
        plan: BGPPlan,
        solutions: Iterable[IdBinding],
        root_call: bool,
        single_input: bool,
    ) -> Iterable[IdBinding]:
        """Chain one planned BGP's operators onto ``solutions``.

        Kernel engagement and stage spans are only recorded for root
        evaluations (empty input binding): OPTIONAL / EXISTS probes
        re-enter once per solution, where per-call accounting would swamp
        both the registry and the trace tree.
        """
        tracer = self._tracer
        trace_steps = root_call and tracer.active
        vectorized = None
        if self._use_vectorized and single_input and root_call:
            # Kernels compute complete solutions from the store alone, so
            # they only replace the single-empty-input case (the top-level
            # group); OPTIONAL / EXISTS inner groups carry bindings and
            # stay scalar.
            vectorized = kernels.execute(self, plan)
            if vectorized is not None:
                self._metrics.increment("kernel.vectorized")
            else:
                self._metrics.increment("kernel.fallback.unsupported-step")
        elif root_call:
            reason = "disabled" if not self._use_vectorized else "bound-input"
            self._metrics.increment("kernel.fallback." + reason)
        if vectorized is not None:
            if trace_steps:
                span = tracer.stream_span("kernel", steps=len(plan.steps))
                if span is not None:
                    return obs_trace.count_rows(span, vectorized)
            return vectorized
        for step in plan.steps:
            if step.operator == MERGE:
                solutions = self._merge_join(
                    solutions, step.pattern, step.merge_variable
                )
            elif step.operator == HASH:
                solutions = self._hash_join(
                    solutions, step.pattern, step.join_variables
                )
            else:  # scan / nested: per-solution index lookups
                solutions = self._join_pattern(solutions, step.pattern)
            if trace_steps:
                span = tracer.stream_span(
                    "step:" + step.operator,
                    pattern=step.describe(),
                )
                if span is not None:
                    solutions = obs_trace.count_rows(span, solutions)
        return solutions

    def _plan_for(
        self,
        group: GroupGraphPattern,
        patterns: List[TriplePatternNode],
        bound: set,
        single_input: bool,
    ) -> BGPPlan:
        """Plan (or fetch the cached plan for) one group's BGP.

        Planning state is shared per store (:func:`plan_context`), so even
        throwaway evaluators hit warm caches; the context is replaced when
        the store's mutation stamp changes so estimates track the data
        through any sequence of mutations.  The cache key
        includes the bound-variable set because EXISTS and OPTIONAL
        evaluate the same group under different bindings.
        """
        context = plan_context(self.store)
        key = (group, frozenset(bound), single_input)
        plan = context.plans.get(key)
        if plan is None:
            self._metrics.increment("plan.cache_miss")
            if len(context.plans) >= PLAN_CACHE_LIMIT:
                context.plans.clear()
            with self._tracer.span("plan", patterns=len(patterns)):
                plan = plan_bgp(
                    self.store, patterns, bound, single_input, context.estimator
                )
            for step in plan.steps:
                self._metrics.increment("plan.op." + step.operator)
            context.plans[key] = plan
        else:
            self._metrics.increment("plan.cache_hit")
        return plan

    def explain(self, query: Union[Query, str]) -> BGPPlan:
        """The plan for the query's top-level basic graph pattern.

        For tests and diagnostics: the same plan the evaluator would use,
        including the cache.
        """
        if isinstance(query, str):
            query = parse_query(query)
        group = query.where
        values_nodes = [e for e in group.elements if isinstance(e, ValuesNode)]
        patterns = [e for e in group.elements if isinstance(e, TriplePatternNode)]
        bound = self._values_bound(values_nodes)
        return self._plan_for(group, patterns, bound, not values_nodes)

    @staticmethod
    def _values_bound(values_nodes: List[ValuesNode]) -> set:
        """Variables that VALUES binds in *every* row.

        A variable with an UNDEF row is only bound in some solutions, so
        the planner must treat it as unbound: claiming it bound would let a
        hash join use it as a probe key and silently drop the solutions
        where it is missing (per-solution operators handle the mixed case
        correctly once the pattern owns the variable).
        """
        bound: set = set()
        for node in values_nodes:
            for position, variable in enumerate(node.variables):
                if all(row[position] is not None for row in node.rows):
                    bound.add(variable)
        return bound

    @staticmethod
    def _order_by_constants(patterns: List[TriplePatternNode]) -> List[TriplePatternNode]:
        """The pre-planner ordering: most constant positions first."""

        def constants(pattern: TriplePatternNode) -> int:
            return sum(
                0 if isinstance(t, Variable) else 1
                for t in (pattern.subject, pattern.predicate, pattern.object)
            )

        return sorted(patterns, key=constants, reverse=True)

    def _join_pattern(
        self, solutions: Iterable[IdBinding], pattern: TriplePatternNode
    ) -> Iterator[IdBinding]:
        for solution in solutions:
            yield from self._match_pattern(pattern, solution)

    def _match_pattern(
        self, pattern: TriplePatternNode, solution: IdBinding
    ) -> Iterator[IdBinding]:
        def resolve(term):
            if isinstance(term, Variable):
                value = solution.get(term)
                if value is None:
                    return None  # unbound -> wildcard
                if type(value) is int:
                    return value
                return _MISS  # bound to an out-of-dictionary term
            tid = self._dict.id_for(term)
            return tid if tid is not None else _MISS

        subject = resolve(pattern.subject)
        predicate = resolve(pattern.predicate)
        obj = resolve(pattern.object)
        if subject is _MISS or predicate is _MISS or obj is _MISS:
            return

        for sid, pid, oid in self.store.match_ids(subject, predicate, obj):
            extended: Optional[IdBinding] = solution
            for position, value in (
                (pattern.subject, sid),
                (pattern.predicate, pid),
                (pattern.object, oid),
            ):
                if isinstance(position, Variable):
                    extended = extended.extend(position, value)  # type: ignore[union-attr]
                    if extended is None:
                        break
            if extended is not None:
                yield extended

    def _merge_join(
        self,
        solutions: Iterable[IdBinding],
        pattern: TriplePatternNode,
        variable: Variable,
    ) -> Iterator[IdBinding]:
        """Sort-merge semi-join against a two-constant pattern's sorted run.

        Precondition (guaranteed by the planner): the solution stream is
        nondecreasing on ``variable``, and ``pattern`` has exactly two
        constant positions with ``variable`` in the third.  The pattern
        binds no new variables, so matching solutions pass through
        unchanged; both sides are walked once.
        """
        consts = self._resolve_constants(pattern)
        if consts is None:
            return
        run = iter(self.store.sorted_run_ids(*consts))
        current = next(run, None)
        if current is None:
            return
        for solution in solutions:
            value = solution.get(variable)
            if type(value) is not int:
                continue  # out-of-dictionary term can never match
            while current is not None and current < value:
                current = next(run, None)
            if current is None:
                break  # left keys only grow; nothing further can match
            if current == value:
                yield solution

    def _hash_join(
        self,
        solutions: Iterable[IdBinding],
        pattern: TriplePatternNode,
        join_variables: Tuple[Variable, ...],
    ) -> Iterator[IdBinding]:
        """Hash join: build on the pattern side once, probe per solution.

        The build side is the pattern's full match set keyed on the shared
        variables (the planner picks this operator only when that side is
        the smaller one, or when there are no shared variables and
        rescanning per solution would be worse).  Building happens lazily
        on the first streamed solution, so an empty left side costs
        nothing.
        """
        table: Optional[dict] = None
        for solution in solutions:
            if table is None:
                table = self._build_join_table(pattern, join_variables)
                if not table:
                    return
            if join_variables:
                key = []
                valid = True
                for variable in join_variables:
                    value = solution.get(variable)
                    if type(value) is not int:
                        valid = False  # out-of-dictionary term: no match
                        break
                    key.append(value)
                if not valid:
                    continue
                bucket = table.get(tuple(key))
            else:
                bucket = table.get(())
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

    def _resolve_constants(
        self, pattern: TriplePatternNode
    ) -> Optional[List[Optional[int]]]:
        """IDs of the pattern's constant positions (``None`` per variable).

        Returns ``None`` when a constant is unknown to the dictionary — the
        pattern provably matches nothing.
        """
        return resolve_pattern_ids(self._dict, pattern)

    def _build_join_table(
        self, pattern: TriplePatternNode, join_variables: Tuple[Variable, ...]
    ) -> dict:
        """Scan ``pattern`` once into ``join-key -> [variable assignments]``."""
        consts = self._resolve_constants(pattern)
        if consts is None:
            return {}
        positions = (pattern.subject, pattern.predicate, pattern.object)
        table: dict = {}
        for ids in self.store.match_ids(*consts):
            assignment: dict = {}
            consistent = True
            for term, value in zip(positions, ids):
                if isinstance(term, Variable):
                    previous = assignment.get(term)
                    if previous is None:
                        assignment[term] = value
                    elif previous != value:
                        consistent = False  # repeated variable, unequal values
                        break
            if not consistent:
                continue
            key = tuple(assignment[v] for v in join_variables)
            bucket = table.get(key)
            if bucket is None:
                bucket = table[key] = []
            bucket.append(tuple(assignment.items()))
        return table

    def _apply_filter(
        self, solutions: Iterable[IdBinding], node: FilterNode
    ) -> Iterator[IdBinding]:
        for solution in solutions:
            if self._expressions.evaluate_boolean(
                node.expression, solution.decode(self._dict)
            ):
                yield solution

    def _apply_optional(
        self, solutions: Iterable[IdBinding], node: OptionalNode
    ) -> Iterator[IdBinding]:
        for solution in solutions:
            matched = False
            for extended in self._evaluate_group(node.group, solution):
                matched = True
                yield extended
            if not matched:
                yield solution

    def _apply_union(
        self, solutions: Iterable[IdBinding], node: UnionNode
    ) -> Iterator[IdBinding]:
        for solution in solutions:
            for branch in node.branches:
                yield from self._evaluate_group(branch, solution)

    def _apply_values(
        self, solutions: Iterable[IdBinding], node: ValuesNode
    ) -> Iterator[IdBinding]:
        id_for = self._dict.id_for
        for solution in solutions:
            for row in node.rows:
                extended: Optional[IdBinding] = solution
                for variable, term in zip(node.variables, row):
                    if term is None:
                        continue
                    tid = id_for(term)
                    extended = extended.extend(  # type: ignore[union-attr]
                        variable, tid if tid is not None else term
                    )
                    if extended is None:
                        break
                if extended is not None:
                    yield extended

    def _apply_subgroup(
        self, solutions: Iterable[IdBinding], group: GroupGraphPattern
    ) -> Iterator[IdBinding]:
        for solution in solutions:
            yield from self._evaluate_group(group, solution)

    def _exists(self, group: object, binding: Binding) -> bool:
        assert isinstance(group, GroupGraphPattern)
        encoded = IdBinding.encode(binding, self._dict)
        for _ in self._evaluate_group(group, encoded):
            return True
        return False


def evaluate_query(store: TripleStore, query: Union[Query, str]) -> Union[ResultSet, AskResult]:
    """Convenience wrapper: evaluate ``query`` against ``store``."""
    return QueryEvaluator(store).evaluate(query)
