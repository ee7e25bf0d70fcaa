"""Zero-dependency observability: metrics registry, tracing, env config.

- :mod:`repro.obs.metrics` — thread-safe counters, gauges and latency
  histograms with p50/p95/p99 snapshots; always-on and cheap.
- :mod:`repro.obs.trace` — opt-in per-query span trees spanning parent
  and worker processes, serialised to JSON-lines via ``REPRO_TRACE``.
- :mod:`repro.obs.config` — the single validated reader for every
  ``REPRO_*`` environment variable.
"""

from repro.obs.config import (
    broadcast_limit,
    result_window,
    trace_path,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)
from repro.obs.trace import (
    NULL_SPAN,
    QueryProfile,
    Span,
    TraceRecorder,
    count_rows,
    recorder,
)

__all__ = [
    "broadcast_limit",
    "result_window",
    "trace_path",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "NULL_SPAN",
    "QueryProfile",
    "Span",
    "TraceRecorder",
    "count_rows",
    "recorder",
]
