"""The SPARQL endpoint facade.

A :class:`SparqlEndpoint` is the only handle the alignment layer gets on a
remote dataset.  It accepts SPARQL text (or pre-parsed queries), enforces
its :class:`~repro.endpoint.policy.AccessPolicy`, records accounting in a
:class:`~repro.endpoint.log.QueryLog`, and returns result sets.  The
underlying store is deliberately not reachable through the public API so
that "no full dump access" is enforced by construction.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, namedtuple
from typing import Callable, Optional, Union

from repro.errors import EndpointError, QueryBudgetExceeded, ResultTruncated
from repro.obs import config as obs_config
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.trace import QueryProfile
from repro.sparql.ast import (
    AskQuery,
    GroupGraphPattern,
    OptionalNode,
    Query,
    SelectQuery,
    TriplePatternNode,
    UnionNode,
    ValuesNode,
)
from repro.sparql.bindings import Variable
from repro.sparql.evaluate import QueryEvaluator
from repro.sparql.parser import parse_query
from repro.sparql.results import AskResult, ResultSet
from repro.store.triplestore import TripleStore
from repro.endpoint.log import QueryLog, QueryRecord
from repro.endpoint.policy import AccessPolicy


#: Shape-compatible with :func:`functools.lru_cache`'s ``cache_info()``.
CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


class ParseCache:
    """A thread-safe LRU cache of parsed SPARQL queries, shareable by
    reference.

    The typed :class:`~repro.endpoint.client.EndpointClient` calls
    re-issue the same query shapes thousands of times per alignment run;
    the AST is a tree of frozen dataclasses, so sharing one parse across
    evaluations — and across *endpoints* — is safe.  Endpoints default to
    one process-wide instance; the HTTP service tier passes its base
    endpoint's cache into every lazily-created per-client endpoint so a
    hot query parses once per server, not once per client.
    """

    def __init__(self, maxsize: int = 4096):
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, Query]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def parse(self, query_text: str) -> Query:
        """The parsed form of ``query_text`` (cached, LRU-evicted)."""
        with self._lock:
            parsed = self._entries.get(query_text)
            if parsed is not None:
                self._entries.move_to_end(query_text)
                self._hits += 1
                return parsed
            self._misses += 1
        # Parse outside the lock: a slow parse must not serialise every
        # other client's cache hits.  Racing parses of the same text are
        # idempotent; last writer wins.
        parsed = parse_query(query_text)
        with self._lock:
            self._entries[query_text] = parsed
            self._entries.move_to_end(query_text)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return parsed

    def peek(self, query_text: str) -> Optional[Query]:
        """The cached parse of ``query_text``, or ``None`` — without
        counting a hit or a miss or touching the LRU order (for callers
        classifying a query that has already run)."""
        with self._lock:
            return self._entries.get(query_text)

    def cache_info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                self._hits, self._misses, self.maxsize, len(self._entries)
            )

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0


#: The process-wide default cache (every endpoint without an explicit
#: ``parse_cache`` shares it).
_shared_parse_cache = ParseCache(maxsize=4096)


def parse_cache_info() -> CacheInfo:
    """Hit/miss statistics of the shared parsed-query cache."""
    return _shared_parse_cache.cache_info()


def clear_parse_cache() -> None:
    """Drop all cached parsed queries (mainly for tests and benchmarks)."""
    _shared_parse_cache.cache_clear()


def query_form(query: Query) -> str:
    """The access-log form of a parsed query: ``"ASK"``, ``"COUNT"`` (an
    aggregate SELECT) or ``"SELECT"``."""
    if not isinstance(query, SelectQuery):
        return "ASK"
    return "COUNT" if query.is_aggregate else "SELECT"


class SparqlEndpoint:
    """A query-only SPARQL access point over a triple store.

    Parameters
    ----------
    store:
        The dataset served by this endpoint.
    name:
        Endpoint name used in logs and error messages.
    policy:
        Access limits; defaults to :meth:`AccessPolicy.unlimited`.
    evaluator_factory:
        Callable building the query evaluator from the store; defaults to
        :class:`QueryEvaluator`.  The endpoint-simulation layer passes the
        scatter/gather evaluator here for sharded stores.
    parse_cache:
        The :class:`ParseCache` this endpoint parses through; defaults to
        the process-wide shared instance.  Pass an existing endpoint's
        :attr:`parse_cache` to share parsed queries across endpoints
        explicitly (the HTTP tier does, for its per-client endpoints).

    Budget accounting is thread-safe: concurrent query waves reserve a
    slot under a lock before evaluating, so a quota of *n* admits exactly
    *n* queries no matter how many threads race for them.
    """

    def __init__(
        self,
        store: TripleStore,
        name: str = "endpoint",
        policy: AccessPolicy | None = None,
        evaluator_factory: Optional[Callable[[TripleStore], QueryEvaluator]] = None,
        parse_cache: Optional[ParseCache] = None,
    ):
        self._store = store
        self.name = name
        self.policy = policy or AccessPolicy.unlimited()
        self.log = QueryLog()
        self.parse_cache = parse_cache if parse_cache is not None else _shared_parse_cache
        self._evaluator = (evaluator_factory or QueryEvaluator)(store)
        self._queries_issued = 0
        self._budget_lock = threading.Lock()

    def __repr__(self) -> str:
        return f"SparqlEndpoint(name={self.name!r}, queries={self.log.query_count})"

    # ------------------------------------------------------------------ #
    @property
    def queries_remaining(self) -> Union[int, None]:
        """How many queries the policy still allows (``None`` = unlimited)."""
        if self.policy.max_queries is None:
            return None
        return max(0, self.policy.max_queries - self._queries_issued)

    def query(self, query: Union[str, Query]) -> Union[ResultSet, AskResult]:
        """Execute a SPARQL query subject to the access policy.

        Raises
        ------
        QueryBudgetExceeded
            When the policy's query quota is exhausted.
        EndpointError
            When the query is a forbidden full scan under the policy.
        ResultTruncated
            When truncation occurs and the policy is configured to fail.
        """
        started = time.perf_counter()
        tracer = obs_trace.recorder()
        # Auto-trace every query to the REPRO_TRACE JSON-lines file when
        # configured — unless a caller (profile()) already opened a root.
        root = None
        if not tracer.active and obs_config.trace_path():
            root = tracer.begin("query", endpoint=self.name)
        try:
            # Reserve a budget slot atomically (check + increment under
            # the lock), so N racing threads can never admit more than
            # the quota.  The slot is refunded if the query fails before
            # producing a result — rejected full scans and evaluation
            # errors never consumed budget on the sequential path either.
            with self._budget_lock:
                if (
                    self.policy.max_queries is not None
                    and self._queries_issued >= self.policy.max_queries
                ):
                    raise QueryBudgetExceeded(
                        f"Endpoint {self.name!r}: query budget of {self.policy.max_queries} exhausted"
                    )
                self._queries_issued += 1

            try:
                query_text = (
                    query if isinstance(query, str) else f"<parsed:{type(query).__name__}>"
                )
                with tracer.span("parse"):
                    parsed = (
                        self.parse_cache.parse(query)
                        if isinstance(query, str)
                        else query
                    )

                if not self.policy.allow_full_scan and self._is_full_scan(parsed):
                    raise EndpointError(
                        f"Endpoint {self.name!r}: dump-style full scans are not allowed by policy"
                    )

                # The result set materialises inside this span, so every
                # downstream stage span (kernel / scatter / worker:exec)
                # nests and finishes under it.
                with tracer.span("evaluate"):
                    result = self._evaluate(parsed)
            except BaseException:
                with self._budget_lock:
                    self._queries_issued -= 1
                raise

            truncated = False
            row_count = 0
            form = query_form(parsed)
            if isinstance(result, ResultSet):
                row_count = len(result)
                cap = self.policy.max_result_rows
                if cap is not None and row_count > cap:
                    if self.policy.fail_on_truncation:
                        # The query *did* run and its budget slot stays
                        # consumed, so the log must agree with the quota:
                        # record the truncated query (at the capped row
                        # count, like the silent-truncation path) before
                        # failing, keeping queries_issued == query_count.
                        self._record(
                            query_text, form, cap, True, started
                        )
                        raise ResultTruncated(
                            f"Endpoint {self.name!r}: result of {row_count} rows exceeds cap {cap}"
                        )
                    result.truncate(cap)
                    truncated = True
                    row_count = cap
        except BaseException as error:
            obs_metrics.registry().increment("endpoint.errors")
            if root is not None:
                tracer.end(root, status="error", error=error)
            raise

        mode = self._record(query_text, form, row_count, truncated, started)
        open_root = tracer.current()
        if open_root is not None:
            open_root.annotate(
                form=form, rows=row_count, mode=mode, query=query_text[:200]
            )
        if root is not None:
            tracer.end(root)
        return result

    def _evaluate(self, parsed: Query) -> Union[ResultSet, AskResult]:
        """Evaluate one admitted, policy-checked query.

        The single dispatch point subclasses override to swap evaluators
        safely — :class:`~repro.endpoint.simulation.SimulatedSparqlEndpoint`
        routes through its current worker generation here, so budget
        accounting, policy checks and logging above it never notice a
        live snapshot refresh.
        """
        return self._evaluator.evaluate(parsed)

    def _record(
        self,
        query_text: str,
        form: str,
        row_count: int,
        truncated: bool,
        started: float,
        mode: Optional[str] = None,
    ) -> str:
        """Append one executed query to the log and count it; returns mode.

        Shared by the success path, the ``fail_on_truncation`` failure path
        (where the budget slot stays consumed, so the log must record the
        query too — a truncation failure therefore bumps both
        ``endpoint.queries`` and ``endpoint.errors``) and cache-served
        queries (:meth:`charge_cached`).
        """
        if mode is None:
            mode = self.last_query_mode()
        obs_metrics.registry().increment("endpoint.queries")
        self.log.record(
            QueryRecord(
                query=query_text,
                form=form,
                row_count=row_count,
                truncated=truncated,
                virtual_seconds=self.policy.estimated_cost(row_count),
                duration_seconds=time.perf_counter() - started,
                mode=mode,
            )
        )
        return mode

    def charge_cached(
        self,
        query_text: str,
        form: str,
        row_count: int,
        truncated: bool = False,
    ) -> None:
        """Charge one budget slot for a query answered from a result cache.

        The HTTP service tier serves repeated queries from its
        ``data_version``-keyed page cache without re-evaluating them, but a
        cache hit is still a request the client made: it must consume quota
        and appear in the access log exactly like an evaluated query, or
        ``queries_remaining`` and ``log.query_count`` diverge.  Records the
        query with ``mode="cached"`` (and zero measured duration).

        Raises
        ------
        QueryBudgetExceeded
            When the policy's query quota is exhausted (nothing is logged:
            rejected requests never consumed budget on the evaluated path
            either).
        """
        with self._budget_lock:
            if (
                self.policy.max_queries is not None
                and self._queries_issued >= self.policy.max_queries
            ):
                raise QueryBudgetExceeded(
                    f"Endpoint {self.name!r}: query budget of {self.policy.max_queries} exhausted"
                )
            self._queries_issued += 1
        self._record(
            query_text, form, row_count, truncated, time.perf_counter(),
            mode="cached",
        )

    def last_query_mode(self) -> str:
        """The execution mode the evaluator noted for its latest query.

        ``single`` for evaluators without mode tracking (plain
        :class:`QueryEvaluator` on an unsharded store reports it too).
        """
        last_mode = getattr(self._evaluator, "last_mode", None)
        if callable(last_mode):
            return last_mode()
        return "single"

    def profile(self, query: Union[str, Query]) -> QueryProfile:
        """Run a query under tracing and return its span tree.

        Endpoint-family failures (budget, policy, truncation, worker
        crash) are captured in the returned
        :class:`~repro.obs.trace.QueryProfile` — the trace then shows
        where the failure happened — while unrelated errors propagate.
        """
        tracer = obs_trace.recorder()
        span = tracer.begin("query", endpoint=self.name, profiled=True)
        result = None
        captured: Optional[EndpointError] = None
        try:
            result = self.query(query)
        except EndpointError as error:
            captured = error
            tracer.end(span, status="error", error=error)
        except BaseException as error:
            tracer.end(span, status="error", error=error)
            raise
        else:
            tracer.end(span)
        return QueryProfile(result, captured, span)

    def export_access_log(self, path) -> int:
        """Write the query log to ``path`` as JSON lines; returns count."""
        return self.log.to_jsonl(path)

    def select(self, query: Union[str, Query]) -> ResultSet:
        """Like :meth:`query` but asserts a SELECT result."""
        result = self.query(query)
        if not isinstance(result, ResultSet):
            raise EndpointError("Expected a SELECT query")
        return result

    def ask(self, query: Union[str, Query]) -> bool:
        """Like :meth:`query` but asserts an ASK result and returns a bool."""
        result = self.query(query)
        if not isinstance(result, AskResult):
            raise EndpointError("Expected an ASK query")
        return bool(result)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _is_full_scan(query: Query) -> bool:
        """Whether every triple pattern in the query is fully unbound."""

        def group_has_constant(group: GroupGraphPattern) -> bool:
            for element in group.elements:
                if isinstance(element, TriplePatternNode):
                    if any(
                        not isinstance(term, Variable)
                        for term in (element.subject, element.predicate, element.object)
                    ):
                        return True
                elif isinstance(element, ValuesNode):
                    # Inline data binds variables to constants, so the joined
                    # patterns are selective even if syntactically unbound.
                    if any(term is not None for row in element.rows for term in row):
                        return True
                elif isinstance(element, OptionalNode):
                    if group_has_constant(element.group):
                        return True
                elif isinstance(element, UnionNode):
                    if any(group_has_constant(branch) for branch in element.branches):
                        return True
                elif isinstance(element, GroupGraphPattern):
                    if group_has_constant(element):
                        return True
            return False

        where = query.where if isinstance(query, (SelectQuery, AskQuery)) else None
        if where is None:  # pragma: no cover - defensive
            return False
        has_patterns = bool(where.variables())
        return has_patterns and not group_has_constant(where)

    # ------------------------------------------------------------------ #
    # Controlled introspection (not dump access)
    # ------------------------------------------------------------------ #
    def dataset_size(self) -> int:
        """Number of triples served — public endpoints expose this as metadata."""
        return len(self._store)

    @property
    def data_version(self) -> int:
        """Mutation stamp of the served store.

        Metadata like :meth:`dataset_size`: result caches key their
        entries on it so a mutation invalidates every cached page without
        the cache ever touching the store itself.
        """
        return self._store.data_version

    @property
    def shard_count(self) -> int:
        """Partitions of the served store (1 for unsharded stores).

        Metadata, like :meth:`dataset_size` — the store itself stays
        unreachable.  The wave scheduler sizes its default concurrency
        from this.
        """
        return getattr(self._store, "num_shards", 1)

    def reset_accounting(self) -> None:
        """Clear the query log (does not restore an exhausted quota)."""
        self.log.reset()
