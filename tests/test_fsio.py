"""The shared temp-file-plus-rename JSON writer and its three callers."""

import json

import pytest

from repro import obs
from repro.bugdb.segments import SegmentedTextIndex
from repro.fsio import atomic_write_json
from repro.pipeline.cache import ParseMineCache


def _cache_write(root, bad):
    cache = ParseMineCache(root)
    return cache.store("ab" * 32, "sgdata", {"value": object() if bad else 1})


def _snapshot_write(root, bad):
    path = root / "live.json"
    obs.write_snapshot(path, {"version": 1, "value": object() if bad else 1})
    return path


def _manifest_write(root, bad):
    index = SegmentedTextIndex(root)
    if bad:
        index._next_id = object()  # unserializable mid-payload
    index._store_manifest()
    return root / "manifest.json"


#: Each caller's writer and the JSON layout its files have always had.
WRITERS = {
    "cache": (_cache_write, {"separators": (",", ":")}),
    "livestatus": (_snapshot_write, {"separators": (",", ":"), "sort_keys": True}),
    "segments": (_manifest_write, {"indent": 1}),
}


class TestAtomicWriteJson:
    def test_returns_the_path_and_creates_its_directory(self, tmp_path):
        path = atomic_write_json(tmp_path / "sub" / "x.json", {"a": 1})
        assert path == tmp_path / "sub" / "x.json"
        assert json.loads(path.read_text(encoding="utf-8")) == {"a": 1}

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_write_keeps_old_file_and_no_temp(self, tmp_path, writer):
        write, layout = WRITERS[writer]
        path = write(tmp_path, bad=False)
        before = path.read_bytes()
        assert before == json.dumps(json.loads(before), **layout).encode("utf-8")
        with pytest.raises(TypeError):
            write(tmp_path, bad=True)
        assert path.read_bytes() == before
        assert list(tmp_path.rglob("*.tmp")) == []
