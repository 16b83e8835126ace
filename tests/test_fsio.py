"""The shared durable-file helpers and their callers: the temp-file-plus-rename
JSON writer and the append-only JSONL log."""

import json

import pytest

from repro import obs
from repro.bugdb.segments import SegmentedTextIndex
from repro.fsio import atomic_write_json
from repro.harness.journal import JournalWriter, load_journal
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


def _journal_log(path):
    writer = JournalWriter(path, meta={"kind": "test"})
    keys = [f"unit-{index}" for index in range(3)]

    def append(index):
        writer.append(keys[index], {"index": index}, {"ok": True})

    return writer, append, lambda: sorted(load_journal(path).records), keys


def _trace_log(path):
    sink = obs.JsonlSink(path)
    records = [{"name": f"span-{index}", "start": float(index)} for index in range(3)]
    return sink, lambda index: sink.emit(records[index]), lambda: obs.read_trace(path), records


def _perfdb_log(path):
    db = obs.PerfDB(path)
    records = [
        obs.throughput_record(
            "stream", wall_seconds=1.0, bytes_count=index, records_count=index,
            sha="test",
        )
        for index in range(3)
    ]

    def read():
        return [record.run_id for record in obs.PerfDB(path).read()]

    # PerfDB opens and closes the file per append: nothing stays open.
    return None, lambda index: db.append(records[index]), read, [
        record.run_id for record in records
    ]


#: Each JSONL log: a factory returning (writer to close, append, read, expected).
LOGS = {"journal": _journal_log, "trace": _trace_log, "perfdb": _perfdb_log}


class TestJsonlLog:
    @pytest.mark.parametrize("log", sorted(LOGS))
    def test_each_record_is_readable_before_the_writer_closes(self, tmp_path, log):
        writer, append, read, expected = LOGS[log](tmp_path / "log.jsonl")
        for index in range(len(expected)):
            append(index)
            assert read() == expected[: index + 1]
        if writer is not None:
            writer.close()
