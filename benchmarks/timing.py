"""Wall-clock timing shared by the ``record_*.py`` scripts."""

from __future__ import annotations

import time
from typing import Callable


def best_of(fn: Callable[[], object], repeats: int, inner: int = 1) -> float:
    """Best wall time of ``fn`` over ``repeats`` runs, in milliseconds.

    Each run calls ``fn`` ``inner`` times and counts the mean, so calls
    too short for one clock reading still time honestly.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best * 1000.0
