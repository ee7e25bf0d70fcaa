"""The blocking HTTP client for the SPARQL service tier.

:class:`HttpSparqlClient` speaks the SPARQL 1.1 protocol over a plain
stdlib :class:`http.client.HTTPConnection` and mirrors the
:class:`~repro.endpoint.endpoint.SparqlEndpoint` query surface —
``query`` / ``select`` / ``ask`` plus a ``name`` — so the typed
:class:`~repro.endpoint.client.EndpointClient` runs unchanged against a
server across a real socket.  Server-side policy failures come back as
the same exception types in-process callers see: the server puts the
exception class name in its JSON error body and the client re-raises it
(429 → :class:`QueryBudgetExceeded`, 403 with ``ResultTruncated`` →
:class:`ResultTruncated`, 400 → :class:`ParseError` / ...).

One client instance owns one keep-alive connection and is **not**
thread-safe — concurrent callers each create their own, as the
benchmark harness does.

Each client keeps a client-side :class:`~repro.endpoint.log.QueryLog`
(``log``) of the queries it sent and got answers to, so code that reads
an endpoint's accounting — the aligner's ``query_statistics()`` — runs
unchanged over the socket.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import time
from typing import Dict, Optional, Tuple, Union
from urllib.parse import urlencode, urlsplit

from repro.endpoint.log import QueryLog, QueryRecord
from repro.errors import (
    EndpointError,
    ParseError,
    QueryBudgetExceeded,
    ResultTruncated,
    SparqlError,
    WorkerCrashError,
)
from repro.sparql.results import AskResult, ResultSet
from repro.sparql.serialize import (
    SPARQL_JSON_MIME,
    SPARQL_TSV_MIME,
    from_sparql_json,
)

#: Exception classes the server names in its error bodies, by name.
_ERROR_TYPES = {
    "QueryBudgetExceeded": QueryBudgetExceeded,
    "ResultTruncated": ResultTruncated,
    "WorkerCrashError": WorkerCrashError,
    "EndpointError": EndpointError,
    "ParseError": ParseError,
    "SparqlError": SparqlError,
}

#: A COUNT aggregate before the WHERE group's opening brace: the client
#: labels the query's form without parsing it.
_COUNT_HEAD = re.compile(r"\bCOUNT\s*\(", re.IGNORECASE)


def _query_form(query_text: str, result: Union[ResultSet, AskResult]) -> str:
    """``ASK`` / ``COUNT`` / ``SELECT``, the forms the endpoint log uses."""
    if isinstance(result, AskResult):
        return "ASK"
    head = query_text.split("{", 1)[0]
    return "COUNT" if _COUNT_HEAD.search(head) else "SELECT"


class HttpSparqlClient:
    """A SPARQL 1.1 protocol client over a persistent HTTP connection.

    Parameters
    ----------
    url:
        The server's base URL (``http://host:port``); the SPARQL
        resource lives at ``/sparql``.
    method:
        How ``query()`` ships queries: ``"post"`` (form-encoded, the
        default — query text never hits a URL) or ``"get"``.
    client_id:
        Sent as the ``X-Client`` header; the server admits each distinct
        client through its own policy budget when configured to.
    timeout:
        Socket timeout in seconds for connect and each response.
    """

    def __init__(
        self,
        url: str,
        *,
        method: str = "post",
        client_id: Optional[str] = None,
        timeout: float = 30.0,
    ):
        if method not in ("get", "post"):
            raise EndpointError(f"method must be 'get' or 'post', got {method!r}")
        split = urlsplit(url)
        if split.scheme != "http" or not split.hostname:
            raise EndpointError(f"expected an http://host:port URL, got {url!r}")
        self.host = split.hostname
        self.port = split.port or 80
        self.method = method
        self.client_id = client_id
        self.timeout = timeout
        self.log = QueryLog()
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------ #
    # Connection plumbing
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Endpoint-style name (lets EndpointClient label its queries)."""
        suffix = f"/{self.client_id}" if self.client_id else ""
        return f"http://{self.host}:{self.port}{suffix}"

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        """Close the underlying connection (reopened on next use)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "HttpSparqlClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request_raw(
        self,
        method: str,
        target: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One HTTP exchange: ``(status, lowercase headers, body)``.

        The conformance tests drive the server through this — it adds
        nothing beyond the ``X-Client`` identity header, so malformed
        and unusual requests reach the server as written.  Retries once
        on a stale keep-alive connection the server has since closed.
        """
        send_headers = dict(headers or {})
        if self.client_id and "X-Client" not in send_headers:
            send_headers["X-Client"] = self.client_id
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, target, body=body, headers=send_headers)
                response = conn.getresponse()
                payload = response.read()
            except (http.client.HTTPException, ConnectionError, socket.timeout, OSError):
                self.close()
                if attempt:
                    raise
                continue
            response_headers = {
                name.lower(): value for name, value in response.getheaders()
            }
            if response_headers.get("connection", "").lower() == "close":
                self.close()
            return response.status, response_headers, payload
        raise EndpointError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------ #
    # The SPARQL protocol
    # ------------------------------------------------------------------ #
    def query(
        self, query_text: str, *, accept: str = SPARQL_JSON_MIME
    ) -> Union[ResultSet, AskResult]:
        """Execute a query and parse the JSON response into result objects.

        Raises the same exception types the in-process endpoint raises;
        non-SPARQL responses (negotiation failures, overload) surface as
        :class:`EndpointError` with the server's message.  Answered
        queries are appended to :attr:`log` with their form, row count
        and round-trip wall time.
        """
        started = time.perf_counter()
        status, headers, body = self._send_query(query_text, accept=accept)
        if status != 200:
            raise self._error_from(status, headers, body)
        result = from_sparql_json(body)
        rows = len(result) if isinstance(result, ResultSet) else 0
        self.log.record(
            QueryRecord(
                query=query_text,
                form=_query_form(query_text, result),
                row_count=rows,
                truncated=False,
                virtual_seconds=0.0,
                duration_seconds=time.perf_counter() - started,
            )
        )
        return result

    def query_text(
        self, query_text: str, *, accept: str
    ) -> Tuple[str, str]:
        """Execute a query and return ``(content_type, body text)`` raw.

        For callers that want the wire bytes — the differential suite
        compares these against in-process serialisation, and TSV output
        is only reachable this way (the typed API always negotiates
        JSON).
        """
        status, headers, body = self._send_query(query_text, accept=accept)
        if status != 200:
            raise self._error_from(status, headers, body)
        return headers.get("content-type", ""), body.decode("utf-8")

    def select(self, query_text: str) -> ResultSet:
        """Like :meth:`query` but asserts a SELECT result."""
        result = self.query(query_text)
        if not isinstance(result, ResultSet):
            raise EndpointError("Expected a SELECT query")
        return result

    def ask(self, query_text: str) -> bool:
        """Like :meth:`query` but asserts an ASK result and returns a bool."""
        result = self.query(query_text)
        if not isinstance(result, AskResult):
            raise EndpointError("Expected an ASK query")
        return bool(result)

    def _send_query(
        self, query_text: str, *, accept: str
    ) -> Tuple[int, Dict[str, str], bytes]:
        headers = {"Accept": accept}
        if self.method == "get":
            target = "/sparql?" + urlencode({"query": query_text})
            return self.request_raw("GET", target, headers=headers)
        headers["Content-Type"] = "application/x-www-form-urlencoded"
        body = urlencode({"query": query_text}).encode("utf-8")
        return self.request_raw("POST", "/sparql", body=body, headers=headers)

    @staticmethod
    def _error_from(
        status: int, headers: Dict[str, str], body: bytes
    ) -> Exception:
        """Rebuild the server's exception from its JSON error body."""
        try:
            document = json.loads(body.decode("utf-8"))
            error_name = document.get("error", "")
            message = document.get("message", "")
        except (ValueError, UnicodeDecodeError):
            error_name, message = "", body.decode("utf-8", "replace")
        error_type = _ERROR_TYPES.get(error_name)
        if error_type is not None:
            return error_type(message)
        return EndpointError(
            f"HTTP {status}: {error_name or 'error'}: {message}"
        )

    # ------------------------------------------------------------------ #
    # Service endpoints
    # ------------------------------------------------------------------ #
    def health(self) -> Dict:
        """The server's ``/health`` document."""
        return self._get_json("/health")

    def metrics(self) -> Dict:
        """The server's ``/metrics`` snapshot."""
        return self._get_json("/metrics")

    def _get_json(self, target: str) -> Dict:
        status, headers, body = self.request_raw("GET", target)
        if status != 200:
            raise self._error_from(status, headers, body)
        return json.loads(body.decode("utf-8"))
