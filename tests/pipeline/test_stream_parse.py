"""Tests for the streaming byte-range parse and the file-fed pipeline."""

import pytest

from repro.bugdb.enums import Application
from repro.bugdb.segments import SegmentedTextIndex, segmented_equal_to_monolithic
from repro.harness.telemetry import Telemetry
from repro.mining.keywords import MYSQL_STUDY_KEYWORDS
from repro.mining.mysql import build_message_index
from repro.pipeline import format_for, mine_archive_file, parse_archive_streamed

SCALES = {
    Application.APACHE: 400,
    Application.GNOME: 300,
    Application.MYSQL: 2000,
}


@pytest.fixture(scope="module")
def archive_files(study, tmp_path_factory):
    """Rendered archive files per application (shared across tests)."""
    root = tmp_path_factory.mktemp("archives")
    paths = {}
    for application, scale in SCALES.items():
        fmt = format_for(application)
        text = fmt.render(study.corpus(application), scale)
        path = root / f"{application.value}.archive"
        path.write_text(text, encoding="utf-8")
        paths[application] = (path, text)
    return paths


class TestStreamedEquivalence:
    @pytest.mark.parametrize("application", list(Application))
    @pytest.mark.parametrize("workers", [1, 3])
    def test_records_match_serial_parse(
        self, archive_files, application, workers
    ):
        fmt = format_for(application)
        path, text = archive_files[application]
        serial = fmt.parse(text)
        streamed = parse_archive_streamed(
            fmt, path, max_shard_bytes=64 << 10, workers=workers,
            keep_records=True,
        )
        assert streamed.records == serial
        assert streamed.record_count == len(serial)
        assert streamed.bytes_total == path.stat().st_size
        assert streamed.shards > 1

    def test_records_dropped_by_default(self, archive_files):
        fmt = format_for(Application.MYSQL)
        path, text = archive_files[Application.MYSQL]
        streamed = parse_archive_streamed(fmt, path, max_shard_bytes=64 << 10)
        assert streamed.records is None
        assert streamed.record_count == len(fmt.parse(text))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_consumer_sees_ranges_in_archive_order(
        self, archive_files, workers
    ):
        fmt = format_for(Application.MYSQL)
        path, text = archive_files[Application.MYSQL]
        seen = []

        def consumer(position, records):
            seen.append((position, records))

        parse_archive_streamed(
            fmt, path, max_shard_bytes=64 << 10, workers=workers,
            consumer=consumer,
        )
        assert [position for position, _ in seen] == list(range(len(seen)))
        collected = [record for _, records in seen for record in records]
        assert collected == fmt.parse(text)

    def test_telemetry_counters(self, archive_files):
        fmt = format_for(Application.MYSQL)
        path, _ = archive_files[Application.MYSQL]
        telemetry = Telemetry()
        streamed = parse_archive_streamed(
            fmt, path, max_shard_bytes=64 << 10, telemetry=telemetry
        )
        assert telemetry.counter("stream.ranges") == streamed.shards
        assert telemetry.counter("stream.bytes") == streamed.bytes_total
        assert telemetry.counter("stream.records") == streamed.record_count
        assert telemetry.timer("stream.wall").count == 1
        assert streamed.mb_per_second > 0
        assert streamed.records_per_second > 0


class TestStreamedIndex:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_segmented_index_matches_monolithic(
        self, tmp_path, archive_files, workers
    ):
        fmt = format_for(Application.MYSQL)
        path, text = archive_files[Application.MYSQL]
        streamed = parse_archive_streamed(
            fmt, path, max_shard_bytes=64 << 10, workers=workers,
            index_dir=tmp_path / f"idx{workers}",
        )
        assert streamed.index is not None
        assert streamed.index.document_count == streamed.record_count
        monolithic = build_message_index(fmt.parse(text))
        assert segmented_equal_to_monolithic(
            streamed.index, monolithic, probes=MYSQL_STUDY_KEYWORDS
        )
        assert streamed.index.search_any(
            MYSQL_STUDY_KEYWORDS
        ) == monolithic.search_any(MYSQL_STUDY_KEYWORDS)

    def test_index_persists_for_reopen(self, tmp_path, archive_files):
        fmt = format_for(Application.MYSQL)
        path, text = archive_files[Application.MYSQL]
        streamed = parse_archive_streamed(
            fmt, path, max_shard_bytes=64 << 10, index_dir=tmp_path / "idx"
        )
        reopened = SegmentedTextIndex(tmp_path / "idx")
        assert reopened.document_count == streamed.record_count
        monolithic = build_message_index(fmt.parse(text))
        assert reopened.search_any(MYSQL_STUDY_KEYWORDS) == monolithic.search_any(
            MYSQL_STUDY_KEYWORDS
        )

    def test_rerun_extends_index_without_clobbering(self, tmp_path, archive_files):
        # Re-running against an existing index_dir must append new
        # segments (fresh WAL names), never overwrite committed ones.
        fmt = format_for(Application.MYSQL)
        path, text = archive_files[Application.MYSQL]
        first = parse_archive_streamed(
            fmt, path, max_shard_bytes=64 << 10, index_dir=tmp_path / "idx"
        )
        second = parse_archive_streamed(
            fmt, path, max_shard_bytes=64 << 10, index_dir=tmp_path / "idx"
        )
        names = [info.name for info in second.index.segments]
        assert len(names) == len(set(names))
        assert second.index.document_count == 2 * first.record_count
        # Both passes of the archive answer queries under their own bases.
        monolithic = build_message_index(fmt.parse(text))
        expected = monolithic.search_any(MYSQL_STUDY_KEYWORDS)
        shifted = {doc + first.record_count for doc in expected}
        assert second.index.search_any(MYSQL_STUDY_KEYWORDS) == expected | shifted

    def test_index_dir_without_index_text_raises(self, tmp_path, archive_files):
        fmt = format_for(Application.APACHE)
        if fmt.index_text is not None:
            pytest.skip("apache format gained index_text")
        path, _ = archive_files[Application.APACHE]
        with pytest.raises(ValueError, match="index_text"):
            parse_archive_streamed(fmt, path, index_dir=tmp_path / "idx")


def serial_mined(text):
    """The oracle: serial parse, then mining by linear scan."""
    fmt = format_for(Application.MYSQL)
    return fmt.mine(fmt.parse(text), None)


class TestMineArchiveFile:
    def test_matches_in_memory_pipeline(self, archive_files):
        path, text = archive_files[Application.MYSQL]
        streamed = mine_archive_file(Application.MYSQL, path)
        serial = serial_mined(text)
        assert streamed.result.items == serial.items
        assert streamed.result.trace.as_rows() == serial.trace.as_rows()

    def test_segment_index_feeds_the_miner(self, tmp_path, archive_files):
        path, text = archive_files[Application.MYSQL]
        streamed = mine_archive_file(
            Application.MYSQL, path, index_dir=tmp_path / "idx"
        )
        assert streamed.result.items == serial_mined(text).items
        assert (tmp_path / "idx" / "manifest.json").exists()

    def test_summary_mentions_streaming(self, archive_files):
        path, _ = archive_files[Application.MYSQL]
        run = mine_archive_file(Application.MYSQL, path)
        summary = "\n".join(run.summary_lines())
        assert "stream:" in summary
        assert "MB/s" in summary
        assert "records/s" in summary
