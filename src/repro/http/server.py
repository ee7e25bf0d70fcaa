"""The asyncio HTTP SPARQL server.

:class:`SparqlHttpServer` puts a real network edge in front of the
endpoint layer: it speaks the SPARQL 1.1 protocol on ``/sparql`` (GET
``?query=`` plus POST as either ``application/x-www-form-urlencoded`` or
``application/sparql-query``), negotiates JSON vs TSV results, and
exposes ``/health`` and ``/metrics``.  Everything below the socket is
the existing stack, reused end to end:

* **Admission** is the endpoint layer's :class:`~repro.endpoint.policy.AccessPolicy`.
  Each client (the ``X-Client`` header, falling back to the peer
  address) gets its own :class:`~repro.endpoint.endpoint.SparqlEndpoint`
  sharing the base endpoint's evaluator, so budgets, row caps and
  full-scan rejection apply per client and surface as HTTP status codes:
  exhausted quota → 429, forbidden query → 403, parse error → 400.
* **Backpressure** is a bounded in-flight semaphore sized from the
  worker pool (process-backed endpoints) or shard count; requests beyond
  the bounded wait queue are refused with 503 + ``Retry-After`` instead
  of piling onto the evaluator.
* **Caching** is a ``data_version``-keyed LRU of serialised result
  pages.  A cache hit skips evaluation but still charges the client's
  budget and lands in the access log
  (:meth:`~repro.endpoint.endpoint.SparqlEndpoint.charge_cached`), so
  accounting cannot diverge from what clients observed.
* **Access logs** are the per-client :class:`~repro.endpoint.log.QueryLog`
  records (exported with :meth:`export_access_log`), and queries
  auto-trace to ``REPRO_TRACE`` exactly like in-process callers.
* **Shutdown** drains: :meth:`stop` refuses new work, waits for every
  in-flight request to answer, closes idle keep-alive connections, and
  only then closes an owned process-backed endpoint (worker pool
  included).

The server is asyncio-native (``await server.start()`` /
``await server.stop()``); :func:`serve_http` wraps it in a background
thread with its own event loop for blocking callers — tests, benchmarks
and the quickstart example drive it that way.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from repro.endpoint.endpoint import SparqlEndpoint, query_form
from repro.endpoint.policy import AccessPolicy
from repro.endpoint.simulation import SimulatedSparqlEndpoint
from repro.errors import (
    EndpointError,
    ParseError,
    QueryBudgetExceeded,
    ResultTruncated,
    SparqlError,
    WorkerCrashError,
)
from repro.http.protocol import (
    HttpProtocolError,
    HttpRequest,
    read_request,
    render_response,
)
from repro.obs import metrics as obs_metrics
from repro.sparql.parser import parse_query
from repro.sparql.results import AskResult, ResultSet
from repro.sparql.serialize import (
    SPARQL_JSON_MIME,
    SPARQL_TSV_MIME,
    to_sparql_json,
    to_sparql_tsv,
)

#: Media types (and wildcards) the negotiator maps to each format.
_JSON_ACCEPTS = (SPARQL_JSON_MIME, "application/json", "application/*", "*/*")
_TSV_ACCEPTS = (SPARQL_TSV_MIME, "text/*")


def _status_for(error: BaseException) -> int:
    """The HTTP status an endpoint-layer failure maps to."""
    if isinstance(error, QueryBudgetExceeded):
        return 429
    if isinstance(error, (ParseError, SparqlError)):
        return 400
    if isinstance(error, WorkerCrashError):
        return 500
    if isinstance(error, EndpointError):
        # Policy rejections: forbidden full scans, hard truncation.
        return 403
    return 500


def _negotiate(accept: str) -> Optional[str]:
    """``json`` / ``tsv`` for an Accept header, ``None`` when unservable.

    Media ranges are weighted per RFC 9110: the servable range with the
    highest ``q`` wins, ties break in client order, and ``q=0`` marks a
    range explicitly unacceptable (``Accept: */*;q=0`` is a 406, and
    ``application/json;q=0, text/tab-separated-values`` serves TSV).  A
    malformed q-value falls back to 1.0; an absent or empty header means
    JSON.
    """
    if not accept.strip():
        return "json"
    best: Optional[Tuple[float, str]] = None
    for part in accept.split(","):
        pieces = part.split(";")
        media = pieces[0].strip().lower()
        if media in _JSON_ACCEPTS:
            fmt = "json"
        elif media in _TSV_ACCEPTS:
            fmt = "tsv"
        else:
            continue
        quality = 1.0
        for parameter in pieces[1:]:
            name, _, value = parameter.partition("=")
            if name.strip().lower() == "q":
                try:
                    quality = float(value.strip())
                except ValueError:
                    quality = 1.0
                break
        if quality <= 0:
            continue
        if best is None or quality > best[0]:
            best = (quality, fmt)
    return best[1] if best is not None else None


class _DelegatingEvaluator:
    """Routes a per-client endpoint's evaluation through the base endpoint.

    Per-client endpoints own *admission* (budget, query log) but never
    execution.  Delegating through the base endpoint's ``_evaluate``
    hook — instead of capturing its evaluator object at client creation
    — keeps every client on the current worker generation across live
    :meth:`SparqlHttpServer.refresh` swaps.
    """

    def __init__(self, base: SparqlEndpoint):
        self._base = base

    def evaluate(self, parsed):
        return self._base._evaluate(parsed)

    def last_mode(self) -> str:
        return self._base.last_query_mode()


class _PageCache:
    """An LRU of serialised result pages keyed by data version.

    Entries carry the accounting facts (form, row count, truncation) the
    server must re-charge on a hit, and the whole cache is keyed on the
    store's ``data_version`` plus the admitting policy — a mutation or a
    different row cap can never serve a stale page.
    """

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()

    def get(self, key: tuple) -> Optional[tuple]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: tuple, entry: tuple) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class SparqlHttpServer:
    """An asyncio HTTP server speaking the SPARQL 1.1 protocol.

    Parameters
    ----------
    endpoint:
        The served :class:`SparqlEndpoint` (any kind — a process-backed
        :class:`~repro.endpoint.simulation.SimulatedSparqlEndpoint`
        included).  The server closes it on :meth:`stop` only when
        ``own_endpoint=True`` (implied when the server built it from
        ``store``).
    store:
        Alternative to ``endpoint``: the server builds a
        :class:`SimulatedSparqlEndpoint` over it (``backend`` /
        ``snapshot_dir`` / ``start_method`` forwarded, so
        ``backend="process"`` serves a sharded store through worker
        processes) and owns its lifecycle.
    policy:
        The base endpoint's policy when built from ``store``.
    client_policy:
        When set, each distinct client (``X-Client`` header, else peer
        address) is admitted through its own endpoint with this policy —
        per-client budgets/quotas over one shared evaluator.  Without
        it, all clients share the base endpoint's policy and log.
    max_in_flight:
        Queries evaluating concurrently; defaults to twice the worker
        pool (process backends) or shard count, minimum 4.
    max_queue:
        Requests allowed to wait for an in-flight slot before the server
        answers 503; defaults to ``4 * max_in_flight``.
    page_cache_size:
        Entries in the serialised-result LRU (0 disables caching).
    metrics:
        Registry for ``http.*`` telemetry and the ``/metrics`` dump;
        defaults to the process-wide registry, which also carries the
        endpoint and engine counters.
    """

    def __init__(
        self,
        endpoint: Optional[SparqlEndpoint] = None,
        *,
        store=None,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "http",
        policy: Optional[AccessPolicy] = None,
        client_policy: Optional[AccessPolicy] = None,
        backend: Optional[str] = None,
        snapshot_dir=None,
        start_method: Optional[str] = None,
        max_in_flight: Optional[int] = None,
        max_queue: Optional[int] = None,
        page_cache_size: int = 256,
        metrics: Optional[obs_metrics.MetricsRegistry] = None,
        own_endpoint: Optional[bool] = None,
    ):
        if (endpoint is None) == (store is None):
            raise EndpointError("pass exactly one of endpoint= or store=")
        if endpoint is None:
            endpoint = SimulatedSparqlEndpoint(
                store,
                name=name,
                policy=policy,
                backend=backend,
                snapshot_dir=snapshot_dir,
                start_method=start_method,
            )
            own_endpoint = True if own_endpoint is None else own_endpoint
        elif policy is not None or backend is not None:
            raise EndpointError(
                "policy=/backend= configure a server-built endpoint; "
                "pass them with store=, not endpoint="
            )
        self._endpoint = endpoint
        self._own_endpoint = bool(own_endpoint)
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self.name = name
        self.metrics = metrics if metrics is not None else obs_metrics.registry()
        if max_in_flight is None:
            executor = getattr(endpoint, "executor", None)
            width = (
                executor.num_workers if executor is not None
                else endpoint.shard_count
            )
            max_in_flight = max(4, 2 * width)
        if max_in_flight < 1:
            raise EndpointError("max_in_flight must be >= 1")
        self.max_in_flight = max_in_flight
        self.max_queue = 4 * max_in_flight if max_queue is None else max_queue
        self._client_policy = client_policy
        self._client_endpoints: Dict[str, SparqlEndpoint] = {}
        self._clients_lock = threading.Lock()
        self._cache = _PageCache(page_cache_size) if page_cache_size else None

        self._server: Optional[asyncio.base_events.Server] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._waiting = 0
        self._active_requests = 0
        self._drained: Optional[asyncio.Event] = None
        self._closing = False
        self._connections: set = set()
        self._conn_tasks: set = set()
        self._started_monotonic: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def endpoint(self) -> SparqlEndpoint:
        """The base endpoint behind the socket."""
        return self._endpoint

    @property
    def url(self) -> str:
        """The server's base URL (available after :meth:`start`)."""
        if self.port is None:
            raise EndpointError("server not started")
        return f"http://{self.host}:{self.port}"

    async def start(self) -> "SparqlHttpServer":
        """Bind the socket and start accepting connections."""
        if self._server is not None:
            raise EndpointError("server already started")
        self._semaphore = asyncio.Semaphore(self.max_in_flight)
        self._drained = asyncio.Event()
        self._drained.set()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()
        return self

    async def stop(self) -> None:
        """Graceful shutdown: drain in-flight queries, then release workers.

        New connections are refused immediately and requests arriving on
        open keep-alive connections answer 503; requests already past
        admission run to completion and their responses are written
        before the transport closes.  An owned endpoint (built from
        ``store=``) is closed last, so a process-backed worker pool never
        dies under an in-flight query.
        """
        if self._server is None:
            self._close_endpoint()
            return
        self._closing = True
        self._server.close()
        await self._server.wait_closed()
        # Wait for every admitted request to finish writing its response.
        await self._drained.wait()
        # Idle keep-alive connections are parked in read_request(); close
        # their transports so the handler tasks see EOF and exit.
        for writer in list(self._connections):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._server = None
        self._close_endpoint()

    def _close_endpoint(self) -> None:
        if self._own_endpoint:
            close = getattr(self._endpoint, "close", None)
            if close is not None:
                close()

    async def __aenter__(self) -> "SparqlHttpServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def refresh(self, mutate=None, rebalance: bool = False, **kwargs) -> dict:
        """Refresh the served dataset live, with zero dropped requests.

        Delegates to
        :meth:`~repro.endpoint.simulation.SimulatedSparqlEndpoint.refresh`
        on the served endpoint: requests in flight finish on the old
        generation, requests arriving during the brief mutation window
        queue (they never 5xx), and the ``data_version``-keyed page
        cache invalidates implicitly because every cache key carries the
        version the page was rendered at.  Per-client endpoints follow
        the swap automatically — they delegate execution to the base
        endpoint instead of pinning an evaluator.

        Thread-safe: callable from any thread while the server is
        serving (the asyncio side evaluates on executor threads, which
        the refresh quiesce coordinates with).
        """
        refresh = getattr(self._endpoint, "refresh", None)
        if refresh is None:
            raise EndpointError(
                "the served endpoint does not support refresh(); serve a "
                "SimulatedSparqlEndpoint (or build the server from store=)"
            )
        return refresh(mutate=mutate, rebalance=rebalance, **kwargs)

    # ------------------------------------------------------------------ #
    # Per-client admission
    # ------------------------------------------------------------------ #
    def _client_endpoint(self, client_id: str) -> SparqlEndpoint:
        """The endpoint admitting ``client_id`` (the base one by default).

        With ``client_policy`` set, each client gets a lazily created
        :class:`SparqlEndpoint` that shares the base endpoint's execution
        path (one plan cache, one worker pool, one parse cache) but owns
        its policy budget and its query log.
        """
        if self._client_policy is None:
            return self._endpoint
        with self._clients_lock:
            endpoint = self._client_endpoints.get(client_id)
            if endpoint is None:
                # Delegating execution is deliberate: admission is per
                # client, evaluation capacity is one pool — and the
                # delegation follows generation swaps on refresh().  The
                # parse cache is the base endpoint's, so N clients warm
                # one cache instead of N.
                endpoint = SparqlEndpoint(
                    self._endpoint._store,
                    name=f"{self._endpoint.name}/{client_id}",
                    policy=self._client_policy,
                    evaluator_factory=lambda _store: _DelegatingEvaluator(
                        self._endpoint
                    ),
                    parse_cache=self._endpoint.parse_cache,
                )
                self._client_endpoints[client_id] = endpoint
            return endpoint

    def client_ids(self) -> List[str]:
        """Clients that have been admitted through their own endpoint."""
        with self._clients_lock:
            return sorted(self._client_endpoints)

    def access_log_records(self) -> List[Tuple[str, object]]:
        """``(client_id, QueryRecord)`` pairs across every admission log."""
        records = [("*", record) for record in self._endpoint.log]
        with self._clients_lock:
            clients = list(self._client_endpoints.items())
        for client_id, endpoint in clients:
            records.extend((client_id, record) for record in endpoint.log)
        return records

    def export_access_log(self, path) -> int:
        """Write every admission log to ``path`` as JSON lines.

        The per-client twin of
        :meth:`SparqlEndpoint.export_access_log`: each line additionally
        carries the client id the record was admitted under.
        """
        records = self.access_log_records()
        with open(path, "w", encoding="utf-8") as sink:
            for client_id, record in records:
                sink.write(
                    json.dumps(
                        {
                            "client": client_id,
                            "query": record.query,
                            "form": record.form,
                            "mode": record.mode,
                            "rows": record.row_count,
                            "truncated": record.truncated,
                            "virtual_seconds": round(record.virtual_seconds, 6),
                            "duration_ms": round(
                                record.duration_seconds * 1000, 3
                            ),
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
        return len(records)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        self._connections.add(writer)
        self._conn_tasks.add(asyncio.current_task())
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpProtocolError as error:
                    self.metrics.increment("http.protocol_errors")
                    writer.write(
                        self._error_response(
                            error.status, "HttpProtocolError", error.message,
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                ):
                    break
                if request is None:
                    break
                response = await self._respond(request)
                keep_alive = request.keep_alive and not self._closing
                try:
                    writer.write(response)
                    await writer.drain()
                except ConnectionError:
                    break
                if not keep_alive:
                    break
        finally:
            self._connections.discard(writer)
            self._conn_tasks.discard(asyncio.current_task())
            writer.close()

    async def _respond(self, request: HttpRequest) -> bytes:
        """Route one request and render its response bytes."""
        started = time.perf_counter()
        self.metrics.increment("http.requests")
        keep_alive = request.keep_alive and not self._closing
        try:
            if self._closing:
                response = self._error_response(
                    503, "ServiceUnavailable", "server is shutting down",
                    keep_alive=False,
                )
            elif request.path == "/sparql":
                response = await self._respond_sparql(request, keep_alive)
            elif request.path == "/health":
                response = self._respond_health(request, keep_alive)
            elif request.path == "/metrics":
                response = self._respond_metrics(request, keep_alive)
            else:
                response = self._error_response(
                    404, "NotFound", f"no such resource: {request.path}",
                    keep_alive=keep_alive,
                )
        except Exception as error:  # defensive: a handler bug is a 500
            self.metrics.increment("http.internal_errors")
            response = self._error_response(
                500, type(error).__name__, str(error), keep_alive=False
            )
        self.metrics.observe("http.latency", time.perf_counter() - started)
        status = response.split(b" ", 2)[1].decode("latin-1")
        self.metrics.increment(f"http.responses.{status}")
        return response

    # ------------------------------------------------------------------ #
    # /sparql
    # ------------------------------------------------------------------ #
    @staticmethod
    def _extract_query(request: HttpRequest) -> str:
        """The SPARQL text of a protocol request (raises HttpProtocolError)."""
        if request.method == "GET":
            query = request.params.get("query")
            if query is None:
                raise HttpProtocolError(
                    400, "missing 'query' parameter on GET /sparql"
                )
            return query
        if request.method == "POST":
            content_type = request.content_type
            if content_type == "application/x-www-form-urlencoded":
                form = parse_qs(
                    request.body.decode("utf-8", "replace"),
                    keep_blank_values=True,
                )
                values = form.get("query")
                if not values:
                    raise HttpProtocolError(
                        400, "missing 'query' form field on POST /sparql"
                    )
                return values[0]
            if content_type == "application/sparql-query":
                return request.body.decode("utf-8", "replace")
            raise HttpProtocolError(
                415,
                "POST /sparql accepts application/x-www-form-urlencoded "
                f"or application/sparql-query, not {content_type or '<none>'!r}",
            )
        raise HttpProtocolError(
            405, f"{request.method} not allowed on /sparql"
        )

    def _client_id(self, request: HttpRequest) -> str:
        return request.header("x-client") or "anonymous"

    async def _respond_sparql(
        self, request: HttpRequest, keep_alive: bool
    ) -> bytes:
        try:
            query_text = self._extract_query(request)
        except HttpProtocolError as error:
            extra = (
                [("Allow", "GET, POST")] if error.status == 405 else None
            )
            return self._error_response(
                error.status, "ProtocolError", error.message,
                keep_alive=keep_alive, extra_headers=extra,
            )
        fmt = _negotiate(request.header("accept"))
        if fmt is None:
            return self._error_response(
                406,
                "NotAcceptable",
                f"cannot serve {request.header('accept')!r}; offer "
                f"{SPARQL_JSON_MIME} or {SPARQL_TSV_MIME}",
                keep_alive=keep_alive,
            )
        endpoint = self._client_endpoint(self._client_id(request))

        cache_key = None
        if self._cache is not None:
            cache_key = (
                query_text,
                fmt,
                self._endpoint.data_version,
                endpoint.policy,
            )
            entry = self._cache.get(cache_key)
            if entry is not None:
                body, content_type, form, row_count, truncated = entry
                try:
                    # A cache hit is still an admitted request: it must
                    # consume the client's quota and hit the access log.
                    endpoint.charge_cached(
                        query_text, form, row_count, truncated
                    )
                except QueryBudgetExceeded as error:
                    return self._endpoint_error(error, keep_alive)
                self.metrics.increment("http.cache.hits")
                return render_response(
                    200, body, content_type=content_type, keep_alive=keep_alive
                )
            self.metrics.increment("http.cache.misses")

        admitted = await self._admit()
        if not admitted:
            self.metrics.increment("http.rejected.overload")
            return self._error_response(
                503,
                "Overloaded",
                f"{self.max_in_flight} queries in flight and "
                f"{self.max_queue} queued; retry later",
                keep_alive=keep_alive,
                extra_headers=[("Retry-After", "1")],
            )
        try:
            loop = asyncio.get_running_loop()
            try:
                result = await loop.run_in_executor(
                    None, endpoint.query, query_text
                )
            except (EndpointError, ParseError, SparqlError) as error:
                return self._endpoint_error(error, keep_alive)
        finally:
            self._release()

        if isinstance(result, AskResult) or fmt == "json":
            body = to_sparql_json(result).encode("utf-8")
            content_type = SPARQL_JSON_MIME
        else:
            body = to_sparql_tsv(result).encode("utf-8")
            content_type = SPARQL_TSV_MIME
        if cache_key is not None:
            # The endpoint just parsed the text through this cache; a
            # concurrent eviction falls back to a fresh parse.
            parsed = endpoint.parse_cache.peek(query_text) or parse_query(query_text)
            form = query_form(parsed)
            if isinstance(result, ResultSet):
                row_count = len(result)
                truncated = bool(result.truncated)
            else:
                row_count, truncated = 0, False
            self._cache.put(
                cache_key, (body, content_type, form, row_count, truncated)
            )
        return render_response(
            200, body, content_type=content_type, keep_alive=keep_alive
        )

    # ------------------------------------------------------------------ #
    # Backpressure
    # ------------------------------------------------------------------ #
    async def _admit(self) -> bool:
        """Take an in-flight slot, waiting in the bounded queue.

        Returns ``False`` (caller answers 503) when ``max_queue``
        requests are already waiting — the socket edge's equivalent of
        the worker protocol's credit window: memory stays bounded and
        excess load is refused where it is cheapest.
        """
        assert self._semaphore is not None
        if self._semaphore.locked() and self._waiting >= self.max_queue:
            return False
        self._waiting += 1
        try:
            await self._semaphore.acquire()
        finally:
            self._waiting -= 1
        self._active_requests += 1
        self._drained.clear()
        self.metrics.set_gauge("http.in_flight", self._active_requests)
        return True

    def _release(self) -> None:
        self._semaphore.release()
        self._active_requests -= 1
        self.metrics.set_gauge("http.in_flight", self._active_requests)
        if self._active_requests == 0:
            self._drained.set()

    # ------------------------------------------------------------------ #
    # /health and /metrics
    # ------------------------------------------------------------------ #
    def _respond_health(self, request: HttpRequest, keep_alive: bool) -> bytes:
        if request.method != "GET":
            return self._error_response(
                405, "ProtocolError", f"{request.method} not allowed on /health",
                keep_alive=keep_alive, extra_headers=[("Allow", "GET")],
            )
        payload = {
            "status": "ok",
            "endpoint": self._endpoint.name,
            "dataset_size": self._endpoint.dataset_size(),
            "shards": self._endpoint.shard_count,
            "data_version": self._endpoint.data_version,
            "generation": getattr(self._endpoint, "generation", 0),
            "in_flight": self._active_requests,
            "max_in_flight": self.max_in_flight,
            "clients": len(self._client_endpoints),
            "uptime_seconds": round(
                time.monotonic() - self._started_monotonic, 3
            ),
        }
        return render_response(
            200,
            json.dumps(payload, sort_keys=True).encode("utf-8"),
            keep_alive=keep_alive,
        )

    def _respond_metrics(self, request: HttpRequest, keep_alive: bool) -> bytes:
        if request.method != "GET":
            return self._error_response(
                405, "ProtocolError", f"{request.method} not allowed on /metrics",
                keep_alive=keep_alive, extra_headers=[("Allow", "GET")],
            )
        snapshot = self.metrics.snapshot()
        executor = getattr(self._endpoint, "executor", None)
        if executor is not None:
            snapshot["worker_protocol"] = executor.protocol_stats()
        return render_response(
            200,
            json.dumps(snapshot, sort_keys=True).encode("utf-8"),
            keep_alive=keep_alive,
        )

    # ------------------------------------------------------------------ #
    # Error rendering
    # ------------------------------------------------------------------ #
    def _endpoint_error(self, error: BaseException, keep_alive: bool) -> bytes:
        status = _status_for(error)
        extra = [("Retry-After", "1")] if status == 429 else None
        return self._error_response(
            status, type(error).__name__, str(error),
            keep_alive=keep_alive, extra_headers=extra,
        )

    @staticmethod
    def _error_response(
        status: int,
        error: str,
        message: str,
        keep_alive: bool = True,
        extra_headers: Optional[List[Tuple[str, str]]] = None,
    ) -> bytes:
        body = json.dumps(
            {"error": error, "message": message}, sort_keys=True
        ).encode("utf-8")
        return render_response(
            status,
            body,
            extra_headers=extra_headers,
            keep_alive=keep_alive,
        )


class ThreadedHttpServer:
    """A :class:`SparqlHttpServer` running on a background event loop.

    The bridge for blocking callers: construction starts the loop
    thread, awaits :meth:`SparqlHttpServer.start` and returns once the
    socket is bound (construction errors re-raise here).  :meth:`stop`
    performs the graceful drain on the loop thread and joins it.  Use as
    a context manager.
    """

    def __init__(self, server: SparqlHttpServer):
        self.server = server
        self._started = threading.Event()
        self._stop_requested: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name=f"sparql-http-{server.name}",
            daemon=True,
        )
        self._thread.start()
        self._started.wait()
        if self._error is not None:
            self._thread.join()
            raise self._error

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as error:
            self._error = error
            self._started.set()
            return
        self._started.set()
        await self._stop_requested.wait()
        await self.server.stop()

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return self.server.url

    def refresh(self, mutate=None, rebalance: bool = False, **kwargs) -> dict:
        """Blocking façade for :meth:`SparqlHttpServer.refresh`."""
        return self.server.refresh(mutate=mutate, rebalance=rebalance, **kwargs)

    def stop(self) -> None:
        """Gracefully stop the server and join the loop thread (idempotent)."""
        if self._thread.is_alive() and self._loop is not None:
            self._loop.call_soon_threadsafe(self._stop_requested.set)
        self._thread.join()

    def __enter__(self) -> "ThreadedHttpServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_http(
    endpoint: Optional[SparqlEndpoint] = None, **kwargs
) -> ThreadedHttpServer:
    """Start a :class:`SparqlHttpServer` on a background thread.

    Accepts the same arguments as :class:`SparqlHttpServer`; returns a
    running :class:`ThreadedHttpServer` whose ``url`` is ready to curl.
    """
    return ThreadedHttpServer(SparqlHttpServer(endpoint, **kwargs))
