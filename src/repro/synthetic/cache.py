"""On-disk cache of generated scale worlds, keyed by spec hash.

Generating a 10M-triple world takes tens of seconds; benchmark and test
runs want to pay that once.  :func:`load_or_generate` keeps one snapshot
per distinct :class:`~repro.synthetic.stream.ScaleWorldSpec` under a
cache root, each entry a directory::

    <root>/<spec name>-<hash12>/
        manifest.json   spec hash + spec fields + build stats
        world.snap      single-store snapshot (dictionary included)

The entry name embeds the first 12 hex digits of a SHA-256 over the
canonical spec JSON *plus* the snapshot format version and the cache
format version — bumping either library format silently invalidates old
entries (they stop being addressed and age out via eviction).  A cached
entry is only trusted after its manifest hash matches and the snapshot
reopens with checksum verification; stale or corrupt entries are
regenerated in place.

Environment knobs:

* ``REPRO_WORLD_CACHE`` — relocate the cache root, or disable caching
  entirely with ``0`` / ``off`` / ``none`` / ``disabled`` / the empty
  string.
* ``REPRO_WORLD_CACHE_LIMIT`` — soft size cap in bytes (``0`` or unset:
  no cap); after each write, oldest entries (by mtime) are evicted until
  the cache fits.

Both are parsed by :mod:`repro.obs.config`, so a malformed cap raises
:class:`~repro.errors.ConfigError` instead of silently meaning "no cap".
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.errors import SnapshotCorruptError
from repro.obs import config as _config
from repro.store import persist
from repro.store.triplestore import TripleStore
from repro.synthetic.stream import ScaleWorld, ScaleWorldSpec, generate_scale_world

#: Bumped when the cache layout (manifest fields, entry structure) changes.
CACHE_FORMAT = 1

_MANIFEST = "manifest.json"
_SNAPSHOT = "world.snap"


def cache_root() -> Optional[Path]:
    """The cache root directory, or ``None`` when caching is disabled."""
    return _config.world_cache_root()


def cache_limit_bytes() -> Optional[int]:
    """The soft cache size cap from ``REPRO_WORLD_CACHE_LIMIT``, if set."""
    return _config.world_cache_limit()


def spec_cache_key(spec: ScaleWorldSpec) -> str:
    """SHA-256 hex digest identifying ``spec`` under the current formats."""
    payload = {
        "cache_format": CACHE_FORMAT,
        "snapshot_version": persist.VERSION,
        "spec": spec.canonical_dict(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def entry_path(spec: ScaleWorldSpec, root: Path) -> Path:
    """The cache entry directory for ``spec`` under ``root``."""
    return root / f"{spec.name}-{spec_cache_key(spec)[:12]}"


@dataclass
class CachedWorld:
    """A world plus its cache provenance."""

    world: ScaleWorld
    cache_hit: bool
    path: Optional[Path]

    @property
    def store(self):
        return self.world.store

    @property
    def dictionary(self):
        return self.world.dictionary

    @property
    def spec(self) -> ScaleWorldSpec:
        return self.world.spec


# --------------------------------------------------------------------- #
# Load / store
# --------------------------------------------------------------------- #
def _try_open(spec: ScaleWorldSpec, entry: Path, mmap: bool) -> Optional[ScaleWorld]:
    """Open a cache entry, returning ``None`` when it is stale or corrupt."""
    manifest_path = entry / _MANIFEST
    snapshot_path = entry / _SNAPSHOT
    try:
        manifest = json.loads(manifest_path.read_text("utf-8"))
    except (OSError, ValueError):
        return None
    if manifest.get("spec_hash") != spec_cache_key(spec):
        return None
    try:
        store = TripleStore.open(snapshot_path, mmap=mmap, verify=True)
    except (SnapshotCorruptError, OSError, ValueError):
        return None
    if manifest.get("triples") != len(store):
        return None
    return ScaleWorld(
        spec=spec,
        store=store,
        dictionary=store.dictionary,
        build_seconds=float(manifest.get("build_seconds", 0.0)),
    )


def _write_entry(spec: ScaleWorldSpec, world: ScaleWorld, entry: Path) -> None:
    """Write ``world`` into ``entry`` atomically (stage then rename)."""
    staging = entry.with_name(entry.name + f".tmp-{os.getpid()}")
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir(parents=True)
    try:
        world.store.save(staging / _SNAPSHOT)
        manifest = {
            "cache_format": CACHE_FORMAT,
            "snapshot_version": persist.VERSION,
            "spec_hash": spec_cache_key(spec),
            "spec": spec.canonical_dict(),
            "triples": world.triples,
            "terms": len(world.dictionary),
            "build_seconds": round(world.build_seconds, 6),
            "created": time.time(),
        }
        (staging / _MANIFEST).write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n", "utf-8"
        )
        if entry.exists():
            shutil.rmtree(entry)
        os.replace(staging, entry)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise


def load_or_generate(
    spec: ScaleWorldSpec,
    *,
    mmap: bool = True,
    refresh: bool = False,
    root: Optional[Path] = None,
) -> CachedWorld:
    """Return ``spec``'s world from the cache, generating (and caching) on miss.

    A hit reopens the snapshot (mmap by default, with checksum
    verification) without regenerating anything.  Stale entries (hash
    mismatch after a spec or format change), corrupt snapshots and
    manifest damage all count as misses and are regenerated in place.
    ``refresh=True`` forces regeneration.  With caching disabled
    (``REPRO_WORLD_CACHE=off``) the world is generated directly.
    """
    cache_dir = root if root is not None else cache_root()
    if cache_dir is None:
        return CachedWorld(world=generate_scale_world(spec), cache_hit=False, path=None)
    entry = entry_path(spec, Path(cache_dir))
    if not refresh:
        cached = _try_open(spec, entry, mmap)
        if cached is not None:
            return CachedWorld(world=cached, cache_hit=True, path=entry)
    world = generate_scale_world(spec)
    _write_entry(spec, world, entry)
    evict(Path(cache_dir), keep=entry)
    # Reopen from the snapshot so hit and miss hand back the same kind of
    # store (frozen, snapshot-backed) — a miss differs only in build time.
    reopened = _try_open(spec, entry, mmap)
    if reopened is not None:
        reopened.build_seconds = world.build_seconds
        world = reopened
    return CachedWorld(world=world, cache_hit=False, path=entry)


# --------------------------------------------------------------------- #
# Eviction
# --------------------------------------------------------------------- #
def _entry_size(entry: Path) -> int:
    return sum(child.stat().st_size for child in entry.rglob("*") if child.is_file())


def evict(
    root: Path,
    *,
    limit_bytes: Optional[int] = None,
    keep: Optional[Path] = None,
) -> int:
    """Drop oldest entries until the cache fits ``limit_bytes``.

    The limit defaults to ``REPRO_WORLD_CACHE_LIMIT``; with neither set
    this is a no-op.  ``keep`` protects one entry (typically the one
    just written).  Returns the number of entries removed.  Leftover
    staging directories from interrupted writes are always removed.
    """
    if not root.is_dir():
        return 0
    removed = 0
    entries = []
    for child in sorted(root.iterdir()):
        if not child.is_dir():
            continue
        if ".tmp-" in child.name:
            shutil.rmtree(child, ignore_errors=True)
            removed += 1
            continue
        entries.append(child)
    limit = limit_bytes if limit_bytes is not None else cache_limit_bytes()
    if limit is None:
        return removed
    sized = [(entry.stat().st_mtime, _entry_size(entry), entry) for entry in entries]
    total = sum(size for _, size, _ in sized)
    for _, size, entry in sorted(sized):
        if total <= limit:
            break
        if keep is not None and entry == keep:
            continue
        shutil.rmtree(entry, ignore_errors=True)
        total -= size
        removed += 1
    return removed
