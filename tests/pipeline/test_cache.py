"""Tests for the content-addressed memo store."""

import hashlib
import json

from repro.pipeline import CACHE_FORMAT_VERSION, ParseMineCache


def key_digest(text: str) -> str:
    """A SHA-256 hex key, shaped like the memo's node digests."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestRoundTrip:
    def test_store_then_load(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        digest = key_digest("archive body")
        cache.store(digest, "sgdata", {"records": [1, 2, 3]})
        assert cache.load(digest, "sgdata") == {"records": [1, 2, 3]}

    def test_missing_entry_is_none(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        assert cache.load(key_digest("x"), "sgdata") is None

    def test_tags_keep_entries_apart(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        digest = key_digest("x")
        cache.store(digest, "sgdata", {"stage": "data"})
        cache.store(digest, "sgmeta", {"stage": "meta"})
        assert cache.load(digest, "sgdata") == {"stage": "data"}
        assert cache.load(digest, "sgmeta") == {"stage": "meta"}

    def test_constructing_cache_touches_nothing(self, tmp_path):
        ParseMineCache(tmp_path / "never-created")
        assert not (tmp_path / "never-created").exists()

    def test_store_leaves_no_temp_files(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        cache.store(key_digest("x"), "sgdata", {})
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []


class TestCorruptEntries:
    def test_truncated_json_is_a_miss(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        digest = key_digest("x")
        path = cache.store(digest, "sgdata", {"records": []})
        path.write_text(path.read_text()[:10], encoding="utf-8")
        assert cache.load(digest, "sgdata") is None

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        digest = key_digest("x")
        path = cache.store(digest, "sgdata", {"records": []})
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["cache_format"] = CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.load(digest, "sgdata") is None

    def test_non_dict_payload_is_a_miss(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        digest = key_digest("x")
        path = cache.store(digest, "sgdata", {})
        path.write_text("[1, 2, 3]", encoding="utf-8")
        assert cache.load(digest, "sgdata") is None


class TestCounters:
    def test_hits_and_misses_accumulate(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        digest = key_digest("x")
        cache.load(digest, "sgdata")
        cache.store(digest, "sgdata", {})
        cache.load(digest, "sgdata")
        assert cache.stats() == {"hits": 1, "misses": 1}


class TestInvalidation:
    def test_invalidate_one_digest(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        keep, drop = key_digest("keep"), key_digest("drop")
        cache.store(keep, "sgdata", {})
        cache.store(drop, "sgdata", {})
        cache.store(drop, "sgmeta", {})
        assert cache.invalidate(drop) == 2
        assert cache.entry_count() == 1
        assert cache.load(keep, "sgdata") is not None
        assert cache.load(drop, "sgdata") is None

    def test_invalidate_everything(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        for body in ("a", "b", "c"):
            cache.store(key_digest(body), "sgdata", {})
        assert cache.invalidate() == 3
        assert cache.entry_count() == 0

    def test_invalidate_empty_cache(self, tmp_path):
        assert ParseMineCache(tmp_path / "empty").invalidate() == 0

    def test_entry_paths_filters_by_digest(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        digest = key_digest("a")
        cache.store(digest, "sgdata", {})
        cache.store(key_digest("b"), "sgdata", {})
        assert len(cache.entry_paths(digest)) == 1
        assert len(cache.entry_paths()) == 2
