"""Helpers shared by the workloads: percentiles, memory, run outcome."""

from __future__ import annotations

import math
import os
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile; ``inf`` entries sort last.

    A failed or refused request is recorded as ``inf``, so it counts as
    missing any latency limit instead of vanishing from the sample.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def windowed_percentile(samples: Sequence[float], q: float) -> float:
    """Median of the ``q``-th percentiles of consecutive windows of ``samples``.

    ``samples`` are in time order.  Each window is just large enough to
    leave ten samples beyond its percentile (1000 for p99), so a short
    slow spell on the host moves one window's figure and not the median;
    with too few samples for two windows this is the plain percentile.
    """
    size = math.ceil(10 / (1 - q / 100.0))
    windows = max(1, len(samples) // size)
    bounds = [len(samples) * window // windows for window in range(windows + 1)]
    return median([
        percentile(samples[start:end], q) for start, end in zip(bounds, bounds[1:])
    ])


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def mean_ms(total_seconds: float, count: int) -> float:
    return ratio(total_seconds * 1000.0, count)


def _pss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def memory_mb(pids: Iterable[Optional[int]] = ()) -> float:
    """Memory held by this process plus ``pids``: summed PSS, in MiB.

    The proportional set size splits each page among the processes
    sharing it, so forked workers do not count their parent's pages
    again and the sum is what the processes occupy together.
    """
    total = _pss_kib(os.getpid())
    for pid in pids:
        if pid:
            total += _pss_kib(pid)
    return total / 1024.0


def process_alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie awaiting its parent does not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


@dataclass
class Outcome:
    """What one workload pass measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def sample_memory(self, pids: Iterable[Optional[int]] = ()) -> None:
        """Fold one :func:`memory_mb` reading into ``peak_rss_mb``."""
        self.metrics["peak_rss_mb"] = max(self.metrics.get("peak_rss_mb", 0.0), memory_mb(pids))

    def problem(self, text: str) -> None:
        """Record an output mismatch (the run is then not correct)."""
        if len(self.problems) < 20:
            self.problems.append(text)
        elif len(self.problems) == 20:
            self.problems.append("... further mismatches omitted")
