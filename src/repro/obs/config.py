"""One validated home for every ``REPRO_*`` environment knob.

Before this module the engine parsed its environment ad hoc —
``workers.py`` silently fell back to the default window on a malformed
``REPRO_RESULT_WINDOW``, ``distjoin.py`` did the same for
``REPRO_BROADCAST_LIMIT``, and the world cache read an unparsable
``REPRO_WORLD_CACHE_LIMIT`` as "no cap".  Silent fallbacks turn typos
into mystery performance regressions, so here a malformed value raises
:class:`~repro.errors.ConfigError` naming the variable and the offending
text.

Values are read from the environment on every call (no import-time
caching) so tests can monkeypatch ``os.environ`` freely, and worker
processes — which inherit or re-exec the environment depending on the
start method — always see their own process's settings.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from repro.errors import ConfigError

__all__ = [
    "DEFAULT_RESULT_WINDOW",
    "DEFAULT_BROADCAST_LIMIT",
    "env_int",
    "env_path",
    "result_window",
    "broadcast_limit",
    "trace_path",
    "world_cache_root",
    "world_cache_limit",
]

#: Default credit window: unacked result batches allowed per in-flight
#: task before a worker blocks (see ``shard/workers.py``).
DEFAULT_RESULT_WINDOW = 8

#: Default cap on rows broadcast to every shard for a shipped join
#: (see ``sparql/distjoin.py``).
DEFAULT_BROADCAST_LIMIT = 65536

#: Values of ``REPRO_WORLD_CACHE`` that switch the world cache off.
_WORLD_CACHE_OFF = frozenset({"", "0", "off", "none", "disabled"})


def env_int(name: str, default: int, minimum: Optional[int] = None) -> int:
    """An integer environment variable; unset or blank means ``default``."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw.strip())
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def env_path(name: str) -> Optional[str]:
    """A path-valued environment variable; unset or blank means ``None``."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    return raw.strip()


def result_window() -> int:
    """``REPRO_RESULT_WINDOW``: unacked batches per task (>= 1)."""
    return env_int("REPRO_RESULT_WINDOW", DEFAULT_RESULT_WINDOW, minimum=1)


def broadcast_limit() -> int:
    """``REPRO_BROADCAST_LIMIT``: max rows broadcast per shipped join."""
    return env_int("REPRO_BROADCAST_LIMIT", DEFAULT_BROADCAST_LIMIT, minimum=0)


def trace_path() -> Optional[str]:
    """``REPRO_TRACE``: file to append completed traces to as JSON lines."""
    return env_path("REPRO_TRACE")


def world_cache_root() -> Optional[Path]:
    """``REPRO_WORLD_CACHE``: the scale-world cache root directory.

    Unset means ``~/.cache/repro-worlds``; ``0`` / ``off`` / ``none`` /
    ``disabled`` (any case) or the empty string turn caching off
    (``None``); anything else is the root path.
    """
    raw = os.environ.get("REPRO_WORLD_CACHE")
    if raw is None:
        return Path.home() / ".cache" / "repro-worlds"
    if raw.strip().lower() in _WORLD_CACHE_OFF:
        return None
    return Path(raw)


def world_cache_limit() -> Optional[int]:
    """``REPRO_WORLD_CACHE_LIMIT``: soft world-cache size cap in bytes.

    Unset, blank or ``0`` means no cap (``None``).
    """
    return env_int("REPRO_WORLD_CACHE_LIMIT", 0, minimum=0) or None
