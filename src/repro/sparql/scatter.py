"""Scatter/gather query evaluation over a sharded triple store.

:class:`ShardedQueryEvaluator` extends :class:`QueryEvaluator` with two
execution strategies and picks per group, by *structure alone* (so the
choice can cost time, never answers):

**Scatter** — for *co-partitioned* groups: every triple pattern,
recursively through OPTIONAL / UNION / nested groups / FILTER EXISTS,
has the same variable in subject position (the star shape of the
aligner's batched ``VALUES ?s {...} ?s ?p ?o`` probes).  Any solution
then binds that variable to one subject ID, and subject-range
partitioning puts *all* triples of that subject in one shard — so the
whole planned merge/hash/nested pipeline runs per shard against that
shard's local evaluator and the per-shard streams are chained lazily.
ASK and LIMIT short-circuit across shards: trailing shards are never
evaluated once the consumer stops.  The :class:`ShardRouter` prunes
shards first — by the owning shard when the subject is bound (initial
binding or all-constant VALUES rows) and by per-shard pattern counts
(a shard where any required pattern matches zero triples contributes
nothing).

**Join shipping** — a pure-BGP group that is *not* co-partitioned (the
classic s–o chain) can still run sharded when some subject-position
variable anchors part of it: the anchored patterns scatter as usual and
the remaining patterns' full match sets are broadcast to every routed
shard as columnar ID tables, probed there with a hash join (see
:mod:`repro.sparql.distjoin`).  Shipping engages only when the broadcast
side stays under ``REPRO_RESULT_WINDOW``'s sibling knob
``REPRO_BROADCAST_LIMIT``; otherwise the group falls back.  Each shard
either *seeds* its anchor with the first table's join keys (index
lookups per key, when it has fewer keys than its cheapest anchor pattern
has rows) or *scans* it in full.  Routing follows the keys too:
when the partition variable is a join variable of the first table, only
the shards owning its key values are dispatched (**key-owner
routing**), and an empty broadcast table dispatches no shard at all.
The broadcast tables are built from the parent store, so shipping
stands aside while the store is mid-handover (process workers may still
serve the previous snapshot) and the group runs on the global path.

**Global gather** — everything else runs the inherited evaluator against
the :class:`ShardedTripleStore` itself, whose ID-level API merges the
shards: subject-bound lookups route, counts sum, and two-constant
sorted runs concatenate into globally sorted runs the existing
merge-join operators stream directly.  This path is correct for
arbitrary queries (cross-subject chains, FILTER NOT EXISTS, ...).

On top of the per-group strategy, a SELECT tries its pushdowns in this
order before any rows stream:

1. **fast-count** — a single-pattern COUNT answers from index counts;
2. **fold** — COUNT-only aggregates over a scattered or shipped group
   push the fold down to the shards: each shard reduces its stream to a
   small partial (see :mod:`repro.sparql.fold`) and the parent merges
   O(shards) partials instead of streaming O(solutions) rows;
3. **page** — an unordered, non-DISTINCT ``LIMIT``/``OFFSET`` page whose
   WHERE group is one co-partitioned triple pattern with no repeated
   variable, projected as ``*`` or plain variables.  Its solutions are
   exactly the pattern's matching triples, so each shard's ``count_ids``
   is its *exact* row count: shards wholly inside the offset are
   skipped, and each shard overlapping the page answers only its
   shard-local ``(offset, limit)`` slice, in ID columns where the kernels
   run.  The slices concatenate in shard order, which is the streamed
   page's order.  The counts are the parent store's, so the step stands
   aside while the store is mid-handover (process workers may still
   serve the previous snapshot);
4. **streaming** — everything else streams per-shard solutions; plain
   projections over process-backed scatters push the projection down,
   so workers ship only the projected columns (deduplicated
   shard-locally under DISTINCT).

:meth:`ShardedQueryEvaluator.explain` returns a :class:`ShardedBGPPlan`
wrapping the ordinary :class:`BGPPlan` with the chosen mode, per planned
pattern the shards probed vs pruned (or its broadcast marker), and — when
a group degrades to the global path or an aggregate cannot fold — the
human-readable ``fallback_reason``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.errors import StoreError
from repro.obs import trace as obs_trace
from repro.shard.router import PatternRoute, ShardRouter
from repro.shard.sharded_store import ShardedTripleStore
from repro.sparql.ast import (
    BinaryExpression,
    ExistsExpression,
    Expression,
    FilterNode,
    FunctionCall,
    GroupGraphPattern,
    InExpression,
    OptionalNode,
    Query,
    SelectQuery,
    TriplePatternNode,
    UnaryExpression,
    UnionNode,
    ValuesNode,
)
from repro.sparql.bindings import IdBinding, Variable
from repro.sparql.distjoin import (
    ShipPlan,
    anchor_seeds,
    build_ship_plan,
    execute_ship_plan,
)
from repro.sparql.evaluate import QueryEvaluator
from repro.sparql.fold import FoldSpec, build_fold_spec, finalize, fold_local, merge_partial
from repro.sparql.kernels import ColumnarPlan
from repro.sparql.parser import parse_query
from repro.sparql.plan import BGPPlan, PLAN_CACHE_LIMIT
from repro.sparql.results import ResultSet

#: Cache sentinel: the group was analysed and is not co-partitioned.
_NOT_CO_PARTITIONED = object()


def co_partition_subject(group: GroupGraphPattern) -> Optional[Variable]:
    """The single subject variable shared by every pattern of ``group``.

    Returns ``None`` unless the group can be scattered: it must contain
    at least one top-level triple pattern (so every emitted solution is
    pinned to a shard) and every pattern — recursively through OPTIONAL,
    UNION, nested groups and EXISTS filters — must have the same
    :class:`Variable` in subject position.
    """
    if not any(isinstance(e, TriplePatternNode) for e in group.elements):
        return None
    subject, ok = _group_subject(group, None)
    return subject if ok else None


def _group_subject(
    group: GroupGraphPattern, subject: Optional[Variable]
) -> Tuple[Optional[Variable], bool]:
    for element in group.elements:
        if isinstance(element, TriplePatternNode):
            s = element.subject
            if not isinstance(s, Variable):
                return None, False
            if subject is None:
                subject = s
            elif s != subject:
                return None, False
        elif isinstance(element, ValuesNode):
            continue
        elif isinstance(element, FilterNode):
            subject, ok = _expression_subject(element.expression, subject)
            if not ok:
                return None, False
        elif isinstance(element, OptionalNode):
            subject, ok = _group_subject(element.group, subject)
            if not ok:
                return None, False
        elif isinstance(element, UnionNode):
            for branch in element.branches:
                subject, ok = _group_subject(branch, subject)
                if not ok:
                    return None, False
        elif isinstance(element, GroupGraphPattern):
            subject, ok = _group_subject(element, subject)
            if not ok:
                return None, False
        else:  # pragma: no cover - parser prevents this
            return None, False
    return subject, True


def _expression_subject(
    expression: Expression, subject: Optional[Variable]
) -> Tuple[Optional[Variable], bool]:
    """Check EXISTS groups nested inside a filter expression."""
    if isinstance(expression, ExistsExpression):
        return _group_subject(expression.group, subject)
    if isinstance(expression, UnaryExpression):
        return _expression_subject(expression.operand, subject)
    if isinstance(expression, BinaryExpression):
        subject, ok = _expression_subject(expression.left, subject)
        if not ok:
            return None, False
        return _expression_subject(expression.right, subject)
    if isinstance(expression, FunctionCall):
        for argument in expression.arguments:
            subject, ok = _expression_subject(argument, subject)
            if not ok:
                return None, False
        return subject, True
    if isinstance(expression, InExpression):
        subject, ok = _expression_subject(expression.operand, subject)
        if not ok:
            return None, False
        for choice in expression.choices:
            subject, ok = _expression_subject(choice, subject)
            if not ok:
                return None, False
        return subject, True
    return subject, True


def _exists_groups(expression: Expression) -> Iterator[GroupGraphPattern]:
    """Every EXISTS group nested inside a filter expression."""
    if isinstance(expression, ExistsExpression):
        yield expression.group
    elif isinstance(expression, UnaryExpression):
        yield from _exists_groups(expression.operand)
    elif isinstance(expression, BinaryExpression):
        yield from _exists_groups(expression.left)
        yield from _exists_groups(expression.right)
    elif isinstance(expression, FunctionCall):
        for argument in expression.arguments:
            yield from _exists_groups(argument)
    elif isinstance(expression, InExpression):
        yield from _exists_groups(expression.operand)
        for choice in expression.choices:
            yield from _exists_groups(choice)


def _collect_subjects(
    group: GroupGraphPattern, variables: List[Variable], constants: List[bool]
) -> None:
    for element in group.elements:
        if isinstance(element, TriplePatternNode):
            if isinstance(element.subject, Variable):
                variables.append(element.subject)
            else:
                constants[0] = True
        elif isinstance(element, OptionalNode):
            _collect_subjects(element.group, variables, constants)
        elif isinstance(element, UnionNode):
            for branch in element.branches:
                _collect_subjects(branch, variables, constants)
        elif isinstance(element, GroupGraphPattern):
            _collect_subjects(element, variables, constants)
        elif isinstance(element, FilterNode):
            for nested in _exists_groups(element.expression):
                _collect_subjects(nested, variables, constants)


def co_partition_reason(group: GroupGraphPattern) -> str:
    """Why :func:`co_partition_subject` rejected ``group`` (for explain).

    Best-effort diagnostics, never used for execution decisions: the
    returned string names the first structural obstacle found.
    """
    if not any(isinstance(e, TriplePatternNode) for e in group.elements):
        return "not co-partitioned: no top-level triple pattern"
    variables: List[Variable] = []
    constants = [False]
    _collect_subjects(group, variables, constants)
    if constants[0]:
        return "not co-partitioned: a pattern has a constant subject"
    names = sorted({f"?{v.name}" for v in variables})
    if len(names) > 1:
        return (
            "not co-partitioned: patterns bind different subject variables "
            f"({', '.join(names)})"
        )
    return "not co-partitioned"


@dataclass(frozen=True)
class ShardedBGPPlan:
    """A :class:`BGPPlan` plus shard routing for one basic graph pattern.

    Attributes
    ----------
    plan:
        The underlying single-store plan (operator order unchanged — the
        same plan runs per shard on the scatter path, or once against the
        merged view on the global path).
    mode:
        ``"scatter"`` (co-partitioned, pipeline runs per shard),
        ``"ship"`` (anchored patterns scatter, the rest broadcast as hash
        tables) or ``"global"`` (merged-view evaluation).
    subject_variable:
        The common subject variable when scattering, the ship plan's
        partition variable when shipping, else ``None``.
    shards:
        The shards that must run the group (probed by every pattern).
    routing:
        Per plan step, the shards probed vs pruned for that pattern;
        broadcast patterns of a ship plan are marked ``shipped``.
    fallback_reason:
        Why the group degraded — to the global path (mode ``"global"``),
        or, for aggregate queries whose group *is* distributable, why the
        fold could not be pushed to the workers.  ``None`` when nothing
        degraded.
    anchors:
        For a ship plan, one ``(shard, keys)`` pair per dispatched shard:
        ``keys`` is the number of broadcast keys seeding that shard's
        anchor, or ``None`` when the anchor is scanned in full.
    """

    plan: BGPPlan
    mode: str
    shard_count: int
    subject_variable: Optional[Variable]
    shards: Tuple[int, ...]
    routing: Tuple[PatternRoute, ...]
    fallback_reason: Optional[str] = None
    anchors: Tuple[Tuple[int, Optional[int]], ...] = ()

    @property
    def steps(self):
        """The underlying plan steps, in execution order."""
        return self.plan.steps

    def operators(self) -> List[str]:
        """The operator labels in execution order."""
        return self.plan.operators()

    def patterns(self) -> List[TriplePatternNode]:
        """The triple patterns in execution order."""
        return self.plan.patterns()

    def describe(self) -> str:
        """Multi-line rendering: header plus one line per planned pattern."""
        subject = (
            f" on ?{self.subject_variable.name}"
            if self.subject_variable is not None
            else ""
        )
        shards = ",".join(map(str, self.shards)) or "-"
        lines = [
            f"{self.mode}{subject} over {self.shard_count} shards"
            f" (evaluating: [{shards}])"
        ]
        for step, route in zip(self.plan.steps, self.routing):
            lines.append(f"{step.describe()}  {route.describe()}")
        if self.anchors:
            lines.append(
                "anchor: "
                + ", ".join(
                    f"shard {index} scanned"
                    if keys is None
                    else f"shard {index} seeded ({keys} keys)"
                    for index, keys in self.anchors
                )
            )
        if self.fallback_reason:
            lines.append(f"fallback: {self.fallback_reason}")
        return "\n".join(lines)


class ShardedQueryEvaluator(QueryEvaluator):
    """Evaluates queries against a :class:`ShardedTripleStore`.

    Inherits the full planned-operator machinery from
    :class:`QueryEvaluator` (running it against the merged shard view)
    and adds the per-shard scatter path for co-partitioned groups.

    Parameters
    ----------
    store:
        The sharded dataset.  Every shard-local, worker and merged-view
        evaluation plans its groups and runs them on the block kernels
        (:mod:`repro.sparql.kernels`); per-shard columns concatenate on
        the global path.
    backend:
        ``"thread"`` (default) evaluates scattered groups in-process
        against per-shard local evaluators, lazily chained — waves get
        their concurrency from the scheduler's thread pool.
        ``"process"`` ships each scattered group to the shard's worker
        process through ``executor`` and streams the serialized binding
        batches back, lifting the per-shard pipelines out of this
        interpreter's GIL; the global fallback path (non-co-partitioned
        groups) still runs in-process against the merged view.
    executor:
        A :class:`~repro.shard.workers.ProcessShardExecutor` serving a
        snapshot of ``store`` (see
        :meth:`~repro.shard.sharded_store.ShardedTripleStore.serve`).
        Required — and only meaningful — when ``backend="process"``.
    """

    def __init__(
        self,
        store: ShardedTripleStore,
        backend: str = "thread",
        executor=None,
    ):
        if not isinstance(store, ShardedTripleStore):
            raise TypeError(
                "ShardedQueryEvaluator requires a ShardedTripleStore; "
                "use QueryEvaluator for plain stores"
            )
        if backend not in ("thread", "process"):
            raise ValueError(f"backend must be 'thread' or 'process', got {backend!r}")
        if backend == "process":
            if executor is None:
                raise ValueError(
                    "backend='process' requires a ProcessShardExecutor "
                    "(see ShardedTripleStore.serve)"
                )
            if executor.num_shards != store.num_shards:
                raise ValueError(
                    f"executor serves {executor.num_shards} shards but the "
                    f"store has {store.num_shards}"
                )
            # The workers serve the snapshot on disk, so the store must
            # (a) be the store that snapshot was taken of — its tracked
            # snapshot directory is the executor's — and (b) still be at
            # the snapshotted mutation stamp.  Anything else would
            # silently answer from two diverging datasets.
            if (
                store._snapshot_dir is None
                or store._snapshot_dir.resolve() != executor.directory.resolve()
            ):
                raise ValueError(
                    "executor serves a snapshot the store was never "
                    "saved to / opened from; create it via store.serve()"
                )
            if store.data_version != store._snapshot_version:
                raise StoreError(
                    "ShardedTripleStore was mutated after its snapshot "
                    "was written; call serve() again to refresh it"
                )
        super().__init__(store)
        self.backend = backend
        self._executor = executor
        self._router = ShardRouter(store)
        self._locals = tuple(QueryEvaluator(shard) for shard in store.shards)
        self._scatter_cache: Dict[GroupGraphPattern, object] = {}
        self._ship_cache: Dict[GroupGraphPattern, Tuple] = {}
        # Endpoints share one evaluator across wave threads, so the
        # armed-pushdown handoff from _evaluate_select to _evaluate_group
        # must be per thread — a shared slot could hand one query's
        # projection to a concurrent query reusing the same WHERE object.
        self._push_local = threading.local()

    # ------------------------------------------------------------------ #
    # SELECT pushdowns (fold / projection)
    # ------------------------------------------------------------------ #
    def _evaluate_select(self, query: SelectQuery) -> ResultSet:
        if query.is_aggregate:
            fast = self._try_fast_count(query)
            if fast is not None:
                self._note_mode("fast-count")
                self._metrics.increment("scatter.mode.fast-count")
                return fast
            folded = self._fold_pushdown(query)
            if folded is not None:
                self._note_mode("fold")
                self._metrics.increment("scatter.mode.fold")
                return folded
            return super()._evaluate_select(query)
        paged = self._page_pushdown(query)
        if paged is not None:
            return paged
        if not self._stash_projection(query):
            return super()._evaluate_select(query)
        try:
            return super()._evaluate_select(query)
        finally:
            self._push_local.spec = None

    def _columnar_plan(self, query: SelectQuery) -> Optional[ColumnarPlan]:
        """Never finish in columns: groups must go through
        :meth:`_evaluate_group`, which owns scatter / ship / global routing
        and the projection pushdown."""
        return None

    def _fold_pushdown(self, query: SelectQuery) -> Optional[ResultSet]:
        """Aggregate the query with worker-side partial folds, or ``None``.

        Engages when the WHERE group is distributable (scatter or ship)
        and every projection item is a plain variable or COUNT — the
        shapes :func:`repro.sparql.fold.build_fold_spec` mirrors exactly.
        Transfer is one partial per routed shard.
        """
        self._require_fresh_snapshot()
        group = query.where
        ship: Optional[ShipPlan] = None
        subject = self._scatter_subject(group)
        if subject is None:
            ship, _ = self._ship_plan(group)
            if ship is None:
                return None
            partition = ship.partition_variable
        else:
            partition = subject
        spec = build_fold_spec(query, partition)
        if spec is None:
            return None
        if spec.group_by and (query.limit is not None or query.offset):
            # Which grouped rows survive OFFSET/LIMIT depends on the row
            # order the fold merge does not reproduce; stream instead.
            return None
        if ship is None:
            shards = self._route(group, subject, IdBinding.EMPTY)
            work = group
        else:
            shards = self._route_ship(ship, IdBinding.EMPTY)
            work = ship
        merged: Dict = {}
        if shards:
            with self._tracer.span(
                "fold", shards=len(shards), backend=self.backend
            ):
                if self.backend == "process":
                    merged = self._executor.run_fold(shards, work, spec)
                else:
                    for index in shards:
                        local = self._locals[index]
                        if ship is None:
                            solutions = local._evaluate_group(
                                group, IdBinding.EMPTY
                            )
                        else:
                            solutions = execute_ship_plan(
                                local, ship, IdBinding.EMPTY
                            )
                        partial = fold_local(solutions, spec)
                        merge_partial(spec, merged, partial)
        return finalize(query, spec, merged, self._dict)

    def _page_pushdown(self, query: SelectQuery) -> Optional[ResultSet]:
        """Answer a LIMIT/OFFSET page from the shards that hold it, or ``None``.

        Engages for unordered, non-DISTINCT pages whose WHERE group is one
        co-partitioned triple pattern without a repeated variable and whose
        projection is ``*`` or plain variables.  Such a pattern's solutions
        are exactly its matching triples, so each routed shard's
        ``count_ids`` is its exact row count: shards wholly inside the
        offset are skipped, each shard overlapping the page answers its
        own shard-local ``(offset, limit)`` slice (:meth:`_page_ids`, in
        ID columns where the kernels run), and the slices concatenate in
        shard order — the rows, in the order, of the streamed page.
        """
        if query.distinct or query.order_by or query.limit is None:
            return None
        elements = query.where.elements
        if len(elements) != 1 or not isinstance(elements[0], TriplePatternNode):
            return None
        pattern = elements[0]
        names = pattern.variables()
        if len(set(names)) != len(names):
            return None
        if not self._plain_projection(query):
            return None
        subject = self._scatter_subject(query.where)
        if subject is None:
            return None
        self._require_fresh_snapshot()
        if getattr(self.store, "_refresh_serving", 0):
            # Mid-handover the parent store may already be mutated while
            # the outgoing workers still serve the old snapshot, so the
            # parent's counts are not the workers' counts.
            return None
        # No routed shard when a constant is missing from the dictionary.
        shards = self._route(query.where, subject, IdBinding.EMPTY)
        consts = self._resolve_constants(pattern)
        pages: List[Tuple[int, int, int]] = []
        skip, wanted = query.offset, query.limit
        for index in shards:
            if not wanted:
                break
            count = self._locals[index].store.count_ids(*consts)
            if skip >= count:
                skip -= count
                continue
            take = min(wanted, count - skip)
            pages.append((index, skip, take))
            skip, wanted = 0, wanted - take
        self._note_mode("scatter")
        self._metrics.increment("scatter.mode.scatter")
        span = None
        if pages and self._tracer.active:
            span = self._tracer.stream_span(
                "scatter", shards=len(pages), backend=self.backend, paged=True
            )
        try:
            if self.backend == "process" and pages:
                parts = self._executor.run_page(pages, query, trace_parent=span)
            else:  # thread backend, or nothing to fetch
                parts = [
                    self._locals[index]._page_ids(query, offset, limit)
                    for index, offset, limit in pages
                ]
        except BaseException as error:
            if span is not None:
                span.finish(status="error", error=error)
            raise
        variables = self._output_variables(query)
        columns: List[list] = [[] for _ in variables]
        size = 0
        for bound, ids, count in parts:
            decoded = self._decode_columns(variables, bound, ids, count)
            for column, part in zip(columns, decoded):
                column.extend(part)
            size += count
        if span is not None:
            span.annotate(rows=size)
            span.finish()
        return ResultSet(variables, columns, size)

    def _stash_projection(self, query: SelectQuery) -> bool:
        """Arm worker-side projection pushdown for this query's top group.

        Only the process backend benefits (threads share the heap), and
        only plain-variable projections are restrictable: workers then
        ship just the projected columns and, under DISTINCT, pre-dedup
        shard-locally (sound — the parent's projection is the identity on
        restricted rows, and its own DISTINCT still runs globally).
        """
        if self.backend != "process" or query.select_all:
            return False
        names = []
        for item in query.projection:
            if item.expression is not None or item.variable is None:
                return False
            names.append(item.variable.name)
        self._push_local.spec = (query.where, tuple(names), bool(query.distinct))
        return True

    def _consume_push(self, group: GroupGraphPattern, initial: IdBinding) -> Dict:
        """The armed projection-pushdown kwargs for this exact dispatch.

        Applies once, to the top-level evaluation of the stashed query's
        WHERE group with an empty initial binding — re-entrant calls
        (OPTIONAL probes, EXISTS groups) must ship full rows.
        """
        spec = getattr(self._push_local, "spec", None)
        if spec is not None and spec[0] is group and not initial:
            self._push_local.spec = None
            return {"project": spec[1], "distinct": spec[2]}
        return {}

    # ------------------------------------------------------------------ #
    # Scatter dispatch
    # ------------------------------------------------------------------ #
    def _require_fresh_snapshot(self) -> None:
        if (
            self.backend == "process"
            and self.store.data_version != self.store._snapshot_version
            # During a generation handover the endpoint layer deliberately
            # keeps the outgoing executor answering while the store is
            # already mutated: its workers serve a consistent (old)
            # snapshot from their own mmaps, which is exactly the
            # zero-downtime contract.  The freshness pin re-arms the
            # moment the handover completes.
            and not getattr(self.store, "_refresh_serving", 0)
        ):
            # Checked before any routing or fallback: a mutated store
            # must never answer — not even with an empty routing result
            # or through the in-process global path — while the workers
            # still serve the pre-mutation snapshot.
            raise StoreError(
                "ShardedTripleStore was mutated after its process "
                "executor booted; call serve() again to refresh the "
                "workers' snapshot"
            )

    def _evaluate_group(
        self, group: GroupGraphPattern, initial: IdBinding
    ) -> Iterator[IdBinding]:
        self._require_fresh_snapshot()
        # Mode counters and scatter spans only fire for root evaluations
        # (empty initial binding) — OPTIONAL / EXISTS probes re-enter here
        # once per solution.
        root_call = not len(initial)
        subject = self._scatter_subject(group)
        if subject is None:
            shipped = self._try_ship(group, initial)
            if shipped is not None:
                return shipped
            if root_call:
                self._note_mode("global")
                self._metrics.increment("scatter.mode.global")
            return super()._evaluate_group(group, initial)
        shards = self._route(group, subject, initial)
        if root_call:
            self._note_mode("scatter")
            self._metrics.increment("scatter.mode.scatter")
        if not shards:
            return iter(())
        span = None
        if root_call and self._tracer.active:
            span = self._tracer.stream_span(
                "scatter", shards=len(shards), backend=self.backend
            )
        if self.backend == "process":
            stream = self._executor.run_group(
                shards, group, initial, trace_parent=span,
                **self._consume_push(group, initial)
            )
        elif len(shards) == 1:
            stream = self._locals[shards[0]]._evaluate_group(group, initial)
        else:
            stream = self._gather(group, initial, shards)
        if span is not None:
            stream = obs_trace.count_rows(span, stream)
        return stream

    def _gather(
        self,
        group: GroupGraphPattern,
        initial: IdBinding,
        shards: Tuple[int, ...],
    ) -> Iterator[IdBinding]:
        """Chain per-shard streams lazily: a satisfied ASK/LIMIT consumer
        stops before the trailing shards are ever planned or scanned."""
        for index in shards:
            yield from self._locals[index]._evaluate_group(group, initial)

    # ------------------------------------------------------------------ #
    # Join shipping
    # ------------------------------------------------------------------ #
    def _try_ship(
        self, group: GroupGraphPattern, initial: IdBinding
    ) -> Optional[Iterator[IdBinding]]:
        """Run ``group`` as a broadcast hash join, or ``None`` to fall back."""
        plan, _ = self._ship_plan(group)
        if plan is None:
            return None
        root_call = not len(initial)
        if root_call:
            self._note_mode("ship")
            self._metrics.increment("scatter.mode.ship")
        shards = self._route_ship(plan, initial)
        if not shards:
            return iter(())
        span = None
        if root_call and self._tracer.active:
            span = self._tracer.stream_span(
                "scatter",
                shards=len(shards),
                backend=self.backend,
                shipped=True,
                broadcast_rows=plan.broadcast_rows,
            )
        if self.backend == "process":
            stream = self._executor.run_group(
                shards, plan, initial, trace_parent=span,
                **self._consume_push(group, initial)
            )
        elif len(shards) == 1:
            stream = execute_ship_plan(self._locals[shards[0]], plan, initial)
        else:
            stream = self._ship_gather(plan, initial, shards)
        if span is not None:
            stream = obs_trace.count_rows(span, stream)
        return stream

    def _ship_gather(
        self, plan: ShipPlan, initial: IdBinding, shards: Tuple[int, ...]
    ) -> Iterator[IdBinding]:
        for index in shards:
            yield from execute_ship_plan(self._locals[index], plan, initial)

    def _ship_plan(self, group: GroupGraphPattern) -> Tuple[Optional[ShipPlan], str]:
        """Build (or reuse) the ship plan for ``group``.

        Cached per group *and* store version — the broadcast tables are
        materialised data, so a mutation invalidates them even though the
        AST key is unchanged.  No plan while the store is mid-handover:
        the tables would come from the mutated parent store while process
        workers still evaluate the anchor on the previous snapshot.
        """
        if getattr(self.store, "_refresh_serving", 0):
            return None, "store mid-handover (workers may serve the previous snapshot)"
        version = self.store.data_version
        cached = self._ship_cache.get(group)
        if cached is not None and cached[0] == version:
            return cached[1], cached[2]
        if len(self._ship_cache) >= PLAN_CACHE_LIMIT:
            self._ship_cache.clear()
        with self._tracer.span("ship:broadcast-build"):
            plan, reason = build_ship_plan(self.store, self._dict, group)
        if plan is not None:
            self._metrics.increment("ship.plans_built")
            self._metrics.increment("ship.broadcast_rows", plan.broadcast_rows)
            self._metrics.increment("ship.broadcast_bytes", plan.broadcast_bytes)
        self._ship_cache[group] = (version, plan, reason)
        return plan, reason

    def _route_ship(
        self, plan: ShipPlan, initial: IdBinding
    ) -> Tuple[int, ...]:
        """The shards that must run a ship plan's anchor (may be empty)."""
        candidates = self._ship_candidates(plan, initial)
        if candidates is not None and not candidates:
            return ()
        id_patterns = []
        for pattern in plan.anchor.elements:
            consts = self._resolve_constants(pattern)
            if consts is None:  # a constant unknown to the dictionary
                return ()
            id_patterns.append(tuple(consts))
        shards, _ = self._router.route_group(id_patterns, candidates)
        return shards

    def _ship_candidates(
        self, plan: ShipPlan, initial: IdBinding
    ) -> Optional[List[int]]:
        """Shards a ship plan's anchor can contribute on, or ``None`` for all.

        An empty broadcast table empties the join; otherwise the owners
        of the seed keys (when they pin the partition variable) and the
        owner of an initially bound partition variable restrict.
        """
        if any(not table.rows for table in plan.tables):
            return []
        owners = plan.key_owners(self.store.shard_index_for_subject)
        bound = initial.get(plan.partition_variable)
        if bound is None:
            return None if owners is None else list(owners)
        if type(bound) is not int:
            return []  # out-of-dictionary term: no pattern can match
        home = self.store.shard_index_for_subject(bound)
        return [home] if owners is None or home in owners else []

    def _scatter_subject(self, group: GroupGraphPattern) -> Optional[Variable]:
        cached = self._scatter_cache.get(group)
        if cached is None:
            if len(self._scatter_cache) >= PLAN_CACHE_LIMIT:
                self._scatter_cache.clear()
            subject = co_partition_subject(group)
            self._scatter_cache[group] = (
                subject if subject is not None else _NOT_CO_PARTITIONED
            )
            return subject
        return None if cached is _NOT_CO_PARTITIONED else cached  # type: ignore[return-value]

    def _route(
        self,
        group: GroupGraphPattern,
        subject: Variable,
        initial: IdBinding,
    ) -> Tuple[int, ...]:
        """The shards that must evaluate ``group`` (may be empty)."""
        shards, _ = self._route_with_details(group, subject, initial)
        return shards

    def _route_with_details(
        self,
        group: GroupGraphPattern,
        subject: Variable,
        initial: IdBinding,
    ) -> Tuple[Tuple[int, ...], Tuple[PatternRoute, ...]]:
        candidates = self._candidate_shards(group, subject, initial)
        if candidates is not None and not candidates:
            return (), ()
        patterns = [e for e in group.elements if isinstance(e, TriplePatternNode)]
        id_patterns = []
        for pattern in patterns:
            consts = self._resolve_constants(pattern)
            if consts is None:  # a constant unknown to the dictionary
                return (), ()
            id_patterns.append(tuple(consts))
        return self._router.route_group(id_patterns, candidates)

    def _candidate_shards(
        self,
        group: GroupGraphPattern,
        subject: Variable,
        initial: IdBinding,
    ) -> Optional[List[int]]:
        """Shards the subject variable can land in, or ``None`` for all.

        An initial binding pins one shard; VALUES nodes binding the
        subject in *every* row restrict to the rows' owning shards (rows
        whose term is unknown to the dictionary can never join a
        pattern, so they restrict too).
        """
        bound = initial.get(subject)
        if bound is not None:
            if type(bound) is not int:
                return []  # out-of-dictionary term: no pattern can match
            return [self.store.shard_index_for_subject(bound)]
        candidates: Optional[set] = None
        id_for = self._dict.id_for
        for node in group.elements:
            if not isinstance(node, ValuesNode) or subject not in node.variables:
                continue
            position = node.variables.index(subject)
            if any(row[position] is None for row in node.rows):
                continue  # an UNDEF row leaves the subject open: all shards
            owners = set()
            for row in node.rows:
                tid = id_for(row[position])
                if tid is not None:
                    owners.add(self.store.shard_index_for_subject(tid))
            candidates = owners if candidates is None else candidates & owners
        return sorted(candidates) if candidates is not None else None

    # ------------------------------------------------------------------ #
    # Explain
    # ------------------------------------------------------------------ #
    def explain(self, query: Union[Query, str]) -> ShardedBGPPlan:
        """The sharded plan for the query's top-level basic graph pattern.

        Extends :meth:`QueryEvaluator.explain`: the underlying
        :class:`BGPPlan` is wrapped with the execution mode and, per
        planned pattern, the shards probed vs pruned by the router.
        """
        if isinstance(query, str):
            query = parse_query(query)
        base = super().explain(query)
        group = query.where
        subject = self._scatter_subject(group)
        ship: Optional[ShipPlan] = None
        fallback_reason: Optional[str] = None
        if subject is not None:
            candidates = self._candidate_shards(group, subject, IdBinding.EMPTY)
            mode = "scatter"
        else:
            candidates = None
            ship, ship_reason = self._ship_plan(group)
            if ship is not None:
                mode = "ship"
                subject = ship.partition_variable
                candidates = self._ship_candidates(ship, IdBinding.EMPTY)
            else:
                mode = "global"
                fallback_reason = (
                    f"{co_partition_reason(group)}; "
                    f"join shipping rejected: {ship_reason}"
                )
        if (
            mode != "global"
            and isinstance(query, SelectQuery)
            and query.is_aggregate
            and self._try_fast_count(query) is None
        ):
            spec = build_fold_spec(query, subject)
            if spec is None:
                fallback_reason = (
                    "aggregate projection cannot fold worker-side "
                    "(non-COUNT expression); rows stream to the parent"
                )
            elif spec.group_by and (query.limit is not None or query.offset):
                fallback_reason = (
                    "grouped aggregate with LIMIT/OFFSET folds in the "
                    "parent (merge order is not deterministic)"
                )
        shipped = ship.shipped if ship is not None else ()
        routing: List[PatternRoute] = []
        surviving = (
            set(candidates) if candidates is not None else set(self._router.all_shards())
        )
        for step in base.steps:
            consts = self._resolve_constants(step.pattern)
            if step.pattern in shipped:
                # Broadcast to every routed worker: shard routing does
                # not apply and the pattern never constrains `surviving`.
                routing.append(
                    PatternRoute(
                        pattern=tuple(consts) if consts else (None, None, None),
                        probed=(),
                        pruned=(),
                        shipped=True,
                    )
                )
                continue
            if consts is None:
                route = PatternRoute(
                    pattern=(None, None, None),
                    probed=(),
                    pruned=self._router.all_shards(),
                )
            else:
                route = self._router.route_pattern(tuple(consts), candidates)
            routing.append(route)
            surviving &= set(route.probed)
        shards = tuple(sorted(surviving))
        anchors: List[Tuple[int, Optional[int]]] = []
        if ship is not None:
            for index in shards:
                seeds = anchor_seeds(self._locals[index].store, ship, IdBinding.EMPTY)
                anchors.append((index, None if seeds is None else len(seeds)))
        return ShardedBGPPlan(
            plan=base,
            mode=mode,
            shard_count=self.store.num_shards,
            subject_variable=subject,
            shards=shards,
            routing=tuple(routing),
            fallback_reason=fallback_reason,
            anchors=tuple(anchors),
        )


def evaluate_sharded(
    store: ShardedTripleStore, query: Union[Query, str]
):
    """Convenience wrapper: evaluate ``query`` with scatter/gather."""
    return ShardedQueryEvaluator(store).evaluate(query)
