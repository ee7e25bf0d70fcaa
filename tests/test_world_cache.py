"""Tests for the spec-hash world cache."""

import json

import pytest

from repro.errors import ConfigError
from repro.synthetic.cache import (
    CACHE_FORMAT,
    cache_limit_bytes,
    cache_root,
    entry_path,
    evict,
    load_or_generate,
    spec_cache_key,
)
from repro.synthetic.stream import scale_world_spec

SPEC = scale_world_spec(2500)


class TestCacheKey:
    def test_stable_for_equal_specs(self):
        assert spec_cache_key(SPEC) == spec_cache_key(scale_world_spec(2500))

    def test_changes_with_spec_fields(self):
        assert spec_cache_key(SPEC) != spec_cache_key(scale_world_spec(2501))
        assert spec_cache_key(SPEC) != spec_cache_key(scale_world_spec(2500, seed=9))

    def test_entry_name_embeds_hash(self, tmp_path):
        entry = entry_path(SPEC, tmp_path)
        assert entry.name == f"{SPEC.name}-{spec_cache_key(SPEC)[:12]}"


class TestLoadOrGenerate:
    def test_miss_then_hit(self, tmp_path):
        first = load_or_generate(SPEC, root=tmp_path)
        assert not first.cache_hit
        assert first.path is not None and first.path.is_dir()
        second = load_or_generate(SPEC, root=tmp_path)
        assert second.cache_hit
        assert set(second.store) == set(first.store)
        manifest = json.loads((second.path / "manifest.json").read_text())
        assert manifest["spec_hash"] == spec_cache_key(SPEC)
        assert manifest["cache_format"] == CACHE_FORMAT
        assert manifest["triples"] == len(second.store)

    def test_refresh_forces_regeneration(self, tmp_path):
        load_or_generate(SPEC, root=tmp_path)
        refreshed = load_or_generate(SPEC, root=tmp_path, refresh=True)
        assert not refreshed.cache_hit
        assert load_or_generate(SPEC, root=tmp_path).cache_hit

    def test_corrupt_snapshot_regenerated(self, tmp_path):
        cached = load_or_generate(SPEC, root=tmp_path)
        snapshot = cached.path / "world.snap"
        payload = bytearray(snapshot.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        snapshot.write_bytes(bytes(payload))
        repaired = load_or_generate(SPEC, root=tmp_path)
        assert not repaired.cache_hit
        assert load_or_generate(SPEC, root=tmp_path).cache_hit

    def test_stale_manifest_regenerated(self, tmp_path):
        cached = load_or_generate(SPEC, root=tmp_path)
        manifest_path = cached.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["spec_hash"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        repaired = load_or_generate(SPEC, root=tmp_path)
        assert not repaired.cache_hit
        assert load_or_generate(SPEC, root=tmp_path).cache_hit

    def test_missing_manifest_regenerated(self, tmp_path):
        cached = load_or_generate(SPEC, root=tmp_path)
        (cached.path / "manifest.json").unlink()
        assert not load_or_generate(SPEC, root=tmp_path).cache_hit

    def test_hit_store_matches_fresh_generation(self, tmp_path):
        from repro.synthetic.stream import generate_scale_world

        load_or_generate(SPEC, root=tmp_path)
        hit = load_or_generate(SPEC, root=tmp_path)
        fresh = generate_scale_world(SPEC)
        assert set(hit.store) == set(fresh.store)


class TestEnvironmentKnobs:
    def test_disabled_values(self, monkeypatch):
        for value in ("", "0", "off", "NONE", "Disabled"):
            monkeypatch.setenv("REPRO_WORLD_CACHE", value)
            assert cache_root() is None

    def test_disabled_skips_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORLD_CACHE", "off")
        cached = load_or_generate(SPEC)
        assert not cached.cache_hit and cached.path is None

    def test_relocation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORLD_CACHE", str(tmp_path / "relocated"))
        assert cache_root() == tmp_path / "relocated"
        cached = load_or_generate(SPEC)
        assert cached.path is not None
        assert cached.path.parent == tmp_path / "relocated"
        assert load_or_generate(SPEC).cache_hit

    def test_default_root_under_home(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORLD_CACHE", raising=False)
        root = cache_root()
        assert root is not None and root.name == "repro-worlds"

    def test_limit_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORLD_CACHE_LIMIT", "12345")
        assert cache_limit_bytes() == 12345
        for no_cap in ("0", " "):
            monkeypatch.setenv("REPRO_WORLD_CACHE_LIMIT", no_cap)
            assert cache_limit_bytes() is None
        for malformed in ("junk", "-1"):
            monkeypatch.setenv("REPRO_WORLD_CACHE_LIMIT", malformed)
            with pytest.raises(ConfigError, match="REPRO_WORLD_CACHE_LIMIT"):
                cache_limit_bytes()


class TestEviction:
    def test_oldest_entries_dropped_first(self, tmp_path):
        import os
        import time

        old = load_or_generate(scale_world_spec(2500), root=tmp_path)
        new = load_or_generate(scale_world_spec(2600), root=tmp_path)
        past = time.time() - 3600
        os.utime(old.path, (past, past))
        removed = evict(tmp_path, limit_bytes=sum(
            child.stat().st_size for child in new.path.rglob("*") if child.is_file()
        ))
        assert removed == 1
        assert not old.path.exists()
        assert new.path.exists()

    def test_keep_protects_entry(self, tmp_path):
        kept = load_or_generate(SPEC, root=tmp_path)
        removed = evict(tmp_path, limit_bytes=1, keep=kept.path)
        assert removed == 0
        assert kept.path.exists()

    def test_no_limit_is_noop(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_WORLD_CACHE_LIMIT", raising=False)
        cached = load_or_generate(SPEC, root=tmp_path)
        assert evict(tmp_path) == 0
        assert cached.path.exists()

    def test_staging_leftovers_swept(self, tmp_path):
        load_or_generate(SPEC, root=tmp_path)
        leftover = tmp_path / "junk.tmp-99999"
        leftover.mkdir()
        assert evict(tmp_path) == 1
        assert not leftover.exists()
