"""Disk layer: roundtrips, corruption fallback, resolution, counters."""

from __future__ import annotations

import json

from repro.cache import (
    CACHE_DIR_ENV,
    configure_cache,
    get_cache,
    resolve_cache_dir,
)
from repro.cache.disk import SCHEMA_VERSION

KEY = "ab" + "0" * 62


class TestRoundtrip:
    def test_store_then_load(self, cache):
        payload = {"answer": 42, "values": [1.5, None, "x"]}
        assert cache.store("profile", KEY, payload)
        assert cache.load("profile", KEY) == payload

    def test_missing_entry_is_a_miss(self, cache):
        assert cache.load("profile", KEY) is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_sharded_layout(self, cache):
        cache.store("golden", KEY, {})
        path = cache.path_for("golden", KEY)
        assert path == cache.root / "golden" / "ab" / f"{KEY}.json"
        assert path.is_file()

    def test_no_temp_files_left_behind(self, cache):
        for i in range(5):
            cache.store("model", f"{i:064x}", {"i": i})
        leftovers = [p for p in cache.root.rglob("*.tmp")]
        assert leftovers == []


class TestCorruptionFallback:
    def _poison(self, cache, data: bytes) -> None:
        path = cache.path_for("profile", KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)

    def test_garbage_is_dropped_and_missed(self, cache):
        self._poison(cache, b"not json at all{{{")
        assert cache.load("profile", KEY) is None
        assert cache.stats.evictions == 1
        assert not cache.path_for("profile", KEY).exists()

    def test_truncated_file_is_dropped(self, cache):
        cache.store("profile", KEY, {"big": list(range(100))})
        path = cache.path_for("profile", KEY)
        path.write_bytes(path.read_bytes()[:20])
        assert cache.load("profile", KEY) is None
        assert not path.exists()

    def test_schema_mismatch_is_a_miss(self, cache):
        self._poison(cache, json.dumps({
            "schema": SCHEMA_VERSION + 1, "kind": "profile",
            "key": KEY, "payload": {},
        }).encode())
        assert cache.load("profile", KEY) is None

    def test_kind_and_key_must_match(self, cache):
        cache.store("profile", KEY, {"v": 1})
        path = cache.path_for("profile", KEY)
        moved = cache.path_for("golden", KEY)
        moved.parent.mkdir(parents=True, exist_ok=True)
        moved.write_bytes(path.read_bytes())
        assert cache.load("golden", KEY) is None  # kind mismatch

    def test_recompute_overwrites_after_eviction(self, cache):
        self._poison(cache, b"junk")
        assert cache.load("profile", KEY) is None
        assert cache.store("profile", KEY, {"v": 2})
        assert cache.load("profile", KEY) == {"v": 2}


class TestDisabledCache:
    def test_null_cache_never_touches_disk(self, tmp_path):
        cache = configure_cache(tmp_path / "c", enabled=False)
        try:
            assert not cache.enabled
            assert not cache.store("profile", KEY, {"v": 1})
            assert cache.load("profile", KEY) is None
            assert not (tmp_path / "c").exists()
        finally:
            configure_cache(None)

    def test_configure_cache_replaces_process_default(self, tmp_path):
        cache = configure_cache(tmp_path / "c")
        try:
            assert get_cache() is cache
            assert cache.root == tmp_path / "c"
        finally:
            configure_cache(None)


class TestResolution:
    def test_explicit_wins(self, tmp_path):
        assert resolve_cache_dir(tmp_path / "x") == tmp_path / "x"

    def test_env_var_is_second(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "from-env"))
        assert resolve_cache_dir() == tmp_path / "from-env"
        assert resolve_cache_dir(tmp_path / "x") == tmp_path / "x"

    def test_default_is_repro_cache(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert str(resolve_cache_dir()) == ".repro-cache"


class TestStats:
    def test_counters_and_summary(self, cache):
        cache.store("profile", KEY, {"v": 1})
        cache.load("profile", KEY)
        cache.load("profile", "cd" + "0" * 62)
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 1 and stats.writes == 1
        assert stats.bytes_read > 0 and stats.bytes_written > 0
        summary = stats.summary()
        assert "1 hit" in summary and "1 miss" in summary

    def test_unwritable_root_store_returns_false(self, cache, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise OSError("read-only filesystem")

        monkeypatch.setattr("repro.cache.disk.tempfile.mkstemp", refuse)
        assert not cache.store("profile", KEY, {"v": 1})
        assert cache.stats.writes == 0
