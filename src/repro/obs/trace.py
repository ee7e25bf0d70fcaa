"""Per-query span trees: record where a query's wall time went.

A trace is a tree of :class:`Span` nodes rooted at one ``query`` span.
The engine layers open child spans for the stages a query passes
through — ``parse``, ``plan``, ``kernel``, ``scatter``, ``fold``,
``ship:broadcast-build``, ``parent:merge/decode`` — and worker
processes measure their own ``worker:exec`` spans, which the
executor re-parents into the caller's tree from the payload piggybacked
on terminal protocol messages, so one tree shows the parent-vs-worker
time split and the task's queue wait.

Recording is strictly opt-in per query: the :class:`TraceRecorder` keeps
a thread-local span stack, and every instrumentation site first checks
:attr:`TraceRecorder.active`.  With no open root span that check is one
thread-local attribute read, which is what keeps tracing-off overhead
under the benchmark gate.  A root is opened either by
``SparqlEndpoint.profile`` or automatically by ``SparqlEndpoint.query``
when the ``REPRO_TRACE`` environment variable names a file — completed
root spans are then appended to that file as JSON lines.

Durations are *inclusive* wall time.  Stage spans wrap lazily-consumed
generators (:func:`count_rows`), so a span closes when its stream is
exhausted and its duration includes time spent in downstream consumers
pulling rows through it — a pipeline's spans therefore overlap rather
than sum, which is the honest picture for streaming execution.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

__all__ = [
    "Span",
    "NULL_SPAN",
    "TraceRecorder",
    "QueryProfile",
    "recorder",
    "count_rows",
]


def _error_text(error: object) -> Optional[str]:
    if error is None:
        return None
    if isinstance(error, BaseException):
        return f"{type(error).__name__}: {error}"
    return str(error)


class Span:
    """One timed node of a trace tree."""

    __slots__ = ("name", "attributes", "children", "status", "error",
                 "start", "duration", "process")

    def __init__(
        self,
        name: str,
        attributes: Optional[Dict[str, Any]] = None,
        process: Optional[str] = None,
    ):
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes) if attributes else {}
        self.children: List["Span"] = []
        self.status = "ok"
        self.error: Optional[str] = None
        self.start = time.perf_counter()
        self.duration: Optional[float] = None
        #: ``None`` for parent-process spans; workers stamp ``"worker"``
        #: so re-parented spans stay distinguishable in one tree.
        self.process = process

    def annotate(self, **attributes: Any) -> None:
        """Attach (or overwrite) attributes on the span."""
        self.attributes.update(attributes)

    def child(self, name: str, **attributes: Any) -> "Span":
        """Create and attach a child span (started now)."""
        span = Span(name, attributes)
        self.children.append(span)
        return span

    def finish(self, status: str = "ok", error: object = None) -> None:
        """Close the span (idempotent — only the first call applies)."""
        if self.duration is not None:
            return
        self.duration = time.perf_counter() - self.start
        self.status = status
        self.error = _error_text(error)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def iter_spans(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and all descendants."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, name: str) -> Optional["Span"]:
        """The first descendant (or self) with ``name``, depth-first."""
        for span in self.iter_spans():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> List["Span"]:
        """Every descendant (or self) with ``name``, depth-first order."""
        return [span for span in self.iter_spans() if span.name == name]

    # ------------------------------------------------------------------ #
    # Serialisation (JSON-lines sink and the worker protocol payload)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "duration_ms": (
                round(self.duration * 1000, 3) if self.duration is not None else None
            ),
            "status": self.status,
        }
        if self.error:
            data["error"] = self.error
        if self.process:
            data["process"] = self.process
        if self.attributes:
            data["attributes"] = dict(self.attributes)
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output.

        Used to re-parent worker-measured spans into the caller's trace:
        the duration is taken from the payload verbatim (the clocks of
        two processes never mix into one measurement).
        """
        span = cls(
            payload["name"],
            payload.get("attributes"),
            process=payload.get("process"),
        )
        duration_ms = payload.get("duration_ms")
        span.duration = None if duration_ms is None else duration_ms / 1000.0
        span.status = payload.get("status", "ok")
        span.error = payload.get("error")
        span.children = [
            cls.from_payload(child) for child in payload.get("children", ())
        ]
        return span

    def describe(self, indent: int = 0) -> str:
        """A human-readable tree rendering (examples and debugging)."""
        duration = (
            f"{self.duration * 1000:8.3f}ms" if self.duration is not None else "   (open)"
        )
        marker = "" if self.status == "ok" else f"  !! {self.status}: {self.error}"
        process = f" [{self.process}]" if self.process else ""
        attributes = ""
        if self.attributes:
            inner = ", ".join(f"{k}={v}" for k, v in sorted(self.attributes.items()))
            attributes = f"  {{{inner}}}"
        lines = [f"{'  ' * indent}{duration}  {self.name}{process}{attributes}{marker}"]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)


class _NullSpan:
    """Absorbs annotations when no trace is being recorded."""

    __slots__ = ()

    def annotate(self, **attributes: Any) -> None:
        pass

    def child(self, name: str, **attributes: Any) -> "_NullSpan":
        return self

    def finish(self, status: str = "ok", error: object = None) -> None:
        pass


NULL_SPAN = _NullSpan()


class _ActiveSpanContext:
    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: "TraceRecorder", span: Span):
        self._recorder = recorder
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._recorder.end(
            self._span,
            status="error" if exc_type is not None else "ok",
            error=exc,
        )
        return False


class _InactiveSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_INACTIVE = _InactiveSpanContext()

#: Serialises JSON-line appends across threads sharing one trace file.
_EMIT_LOCK = threading.Lock()


def _emit(root: Span) -> None:
    """Append a completed root span to the ``REPRO_TRACE`` file, if set."""
    from repro.obs import config

    path = config.trace_path()
    if not path:
        return
    line = json.dumps(root.to_dict(), sort_keys=True, default=str)
    with _EMIT_LOCK:
        with open(path, "a", encoding="utf-8") as sink:
            sink.write(line + "\n")


class TraceRecorder:
    """Thread-local span stacks plus the JSON-lines sink.

    One recorder is shared process-wide (:func:`recorder`); each thread
    records its own query's tree.  ``begin``/``end`` manage explicit
    roots (the endpoint's query span), :meth:`span` is the context
    manager for synchronous stages, and :meth:`stream_span` creates an
    *unstacked* child for lazily-consumed stages — the caller finishes
    it when the stream is exhausted (see :func:`count_rows`).
    """

    def __init__(self):
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def active(self) -> bool:
        """Whether this thread currently records a trace."""
        return bool(getattr(self._local, "stack", None))

    def current(self) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    # ------------------------------------------------------------------ #
    def begin(self, name: str, **attributes: Any) -> Span:
        """Open a span and push it on this thread's stack."""
        span = Span(name, attributes)
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        return span

    def end(self, span: Span, status: str = "ok", error: object = None) -> None:
        """Close ``span`` (and anything left open above it); emit roots.

        When the stack empties, the completed tree is appended to the
        ``REPRO_TRACE`` JSON-lines file if that variable is set.
        """
        span.finish(status=status, error=error)
        stack = self._stack()
        while stack:
            top = stack.pop()
            top.finish()  # defensively close abandoned inner spans
            if top is span:
                break
        if not stack:
            _emit(span)

    def span(self, name: str, **attributes: Any):
        """Context manager for a synchronous stage; no-op when inactive."""
        if not self.active:
            return _INACTIVE
        return _ActiveSpanContext(self, self.begin(name, **attributes))

    def stream_span(
        self, name: str, parent: Optional[Span] = None, **attributes: Any
    ) -> Optional[Span]:
        """An unstacked child span for a lazily-consumed stage.

        Attached under ``parent`` (or the current span) immediately, but
        never pushed on the stack — the stage finishes it itself once its
        stream is exhausted, long after control has left this frame.
        Returns ``None`` when no trace is active and no parent is given.
        """
        if parent is None:
            parent = self.current()
            if parent is None:
                return None
        span = Span(name, attributes)
        parent.children.append(span)
        return span

    def attach(self, span: Span) -> bool:
        """Re-parent a pre-built span under the current span, if any."""
        parent = self.current()
        if parent is None:
            return False
        parent.children.append(span)
        return True


def count_rows(
    span: Span, solutions: Iterable, size: Optional[Callable[[Any], int]] = None
) -> Iterator:
    """Wrap a solution stream, closing ``span`` with its row count.

    The span's duration runs from stream creation to exhaustion —
    inclusive wall time, downstream pull time included.  Early generator
    closes (a satisfied ASK or LIMIT consumer) finish the span cleanly
    with ``closed_early``; errors mark it ``error`` and propagate.
    ``size`` counts the rows of one item for streams of row blocks.
    """
    rows = 0
    try:
        for solution in solutions:
            rows += 1 if size is None else size(solution)
            yield solution
    except GeneratorExit:
        span.annotate(rows=rows, closed_early=True)
        span.finish()
        raise
    except BaseException as error:
        span.annotate(rows=rows)
        span.finish(status="error", error=error)
        raise
    span.annotate(rows=rows)
    span.finish()


class QueryProfile:
    """The outcome of ``SparqlEndpoint.profile``: result or error + trace.

    ``result`` is ``None`` when the query failed with an endpoint-family
    error (budget, policy, truncation, worker crash), in which case
    ``error`` holds the exception; ``trace`` is always the completed root
    :class:`Span`.
    """

    __slots__ = ("result", "error", "trace")

    def __init__(self, result, error, trace: Span):
        self.result = result
        self.error = error
        self.trace = trace

    def describe(self) -> str:
        """The trace rendered as an indented tree."""
        return self.trace.describe()


#: The process-wide recorder every engine layer shares.
_RECORDER = TraceRecorder()


def recorder() -> TraceRecorder:
    """The process-wide :class:`TraceRecorder`."""
    return _RECORDER
