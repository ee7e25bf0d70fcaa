"""Outside-in span tracing: time the calls into each layer's public functions.

:class:`SpanTracer` replaces chosen public functions with timing
wrappers for the length of a traced pass and puts the originals back
afterwards; nothing under ``src/`` changes.  Every call becomes a span
on a per-thread stack, so a layer's *self* time is its span's duration
minus the spans nested inside it on the same thread.  Calls made from
forked worker processes (which inherit the wrappers) run unwrapped.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class LayerStats:
    """Aggregates for one layer over a traced pass."""

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    durations: List[float] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    series: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def sample(self, key: str, value: float) -> None:
        self.series.setdefault(key, []).append(value)


#: ``observe(stats, args, result, seconds)`` records extra per-call facts.
Observer = Callable[[LayerStats, tuple, object, float], None]


class SpanTracer:
    """Wraps public functions with span timers; see the module docstring."""

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[tuple] = []
        self.layers: Dict[str, LayerStats] = {}

    def layer(self, name: str) -> LayerStats:
        with self._lock:
            return self.layers.setdefault(name, LayerStats())

    def wrap(
        self, owner, attribute: str, layer: str, observe: Optional[Observer] = None
    ) -> None:
        """Time every call of ``owner.attribute`` as a span of ``layer``.

        Only the outermost of nested spans of one layer counts as a
        call (``EndpointClient.sample_subjects`` calls ``subjects``);
        self time is summed over all of them.
        """
        original = owner.__dict__[attribute]
        is_static = isinstance(original, staticmethod)
        function = original.__func__ if is_static else original
        stats = self.layer(layer)
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return function(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            outermost = not any(frame[1] == layer for frame in stack)
            frame = [0.0, layer]
            stack.append(frame)
            started = time.perf_counter()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                seconds = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += seconds
                with tracer._lock:
                    stats.self_time += seconds - frame[0]
                    if outermost:
                        stats.calls += 1
                        stats.total += seconds
                        stats.durations.append(seconds)
                        if observe is not None:
                            observe(stats, args, result, seconds)

        replacement = staticmethod(wrapper) if is_static else wrapper
        setattr(owner, attribute, replacement)
        self._patched.append((owner, attribute, original))

    def restore(self) -> None:
        """Put every wrapped function back (reverse order)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "SpanTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()
