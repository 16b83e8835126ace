"""Shard-level cases of the streamed parse: worker counts, torn final
ranges, single-record archives, the range-built index, telemetry."""

import os

import pytest

from repro.bugdb import gnats
from repro.bugdb.enums import Application
from repro.harness.telemetry import Telemetry
from repro.mining.keywords import MYSQL_STUDY_KEYWORDS
from repro.mining.mysql import build_message_index
from repro.pipeline import format_for, mine_archive_file, parse_archive_streamed

#: A shard budget small enough to cut every test archive into many ranges.
SHARD_BYTES = 16 << 10


@pytest.fixture(scope="module")
def archives(study, tmp_path_factory):
    """Small rendered archive files per application (shared across tests)."""
    scales = {
        Application.APACHE: 300,
        Application.GNOME: None,
        Application.MYSQL: 1500,
    }
    root = tmp_path_factory.mktemp("shards")
    rendered = {}
    for application, scale in scales.items():
        fmt = format_for(application)
        path = root / f"{application.value}.archive"
        path.write_text(fmt.render(study.corpus(application), scale), encoding="utf-8")
        rendered[application] = path
    return rendered


def write_archive(path, records):
    path.write_text(gnats.render_archive(records), encoding="utf-8")
    return path


class TestEquivalence:
    @pytest.mark.parametrize("application", list(Application))
    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_matches_serial_for_any_worker_count(
        self, archives, application, workers
    ):
        fmt = format_for(application)
        path = archives[application]
        serial = fmt.parse(path.read_text(encoding="utf-8"))
        parsed = parse_archive_streamed(
            fmt, path, max_shard_bytes=SHARD_BYTES, workers=workers, keep_records=True
        )
        assert parsed.shards > 1
        assert parsed.records == serial

    def test_torn_final_shard(self, archives, tmp_path):
        """Ranges that do not divide evenly still merge in order."""
        fmt = format_for(Application.APACHE)
        serial = fmt.parse(archives[Application.APACHE].read_text(encoding="utf-8"))[:23]
        path = write_archive(tmp_path / "torn.gnats", serial)
        # A budget that leaves the final range smaller than the rest.
        budget = path.stat().st_size // 7
        parsed = parse_archive_streamed(
            fmt, path, max_shard_bytes=budget, workers=7, keep_records=True
        )
        sizes = [byte_range.size for byte_range in parsed.ranges]
        assert len(sizes) > 2 and sizes[-1] < max(sizes)
        assert parsed.records == serial

    def test_single_record_archive_takes_serial_path(self, archives, tmp_path):
        fmt = format_for(Application.APACHE)
        records = fmt.parse(archives[Application.APACHE].read_text(encoding="utf-8"))[:1]
        path = write_archive(tmp_path / "one.gnats", records)
        parsed = parse_archive_streamed(fmt, path, workers=4, keep_records=True)
        assert parsed.shards == 1
        assert parsed.worker_pids == (os.getpid(),)
        assert parsed.records == fmt.parse(path.read_text(encoding="utf-8"))


class TestPartialIndex:
    def test_merged_index_matches_serial_index(self, archives, tmp_path):
        fmt = format_for(Application.MYSQL)
        path = archives[Application.MYSQL]
        parsed = parse_archive_streamed(
            fmt, path, max_shard_bytes=SHARD_BYTES, workers=4, index_dir=tmp_path / "idx"
        )
        assert parsed.index is not None
        serial_index = build_message_index(fmt.parse(path.read_text(encoding="utf-8")))
        assert parsed.index.search_any(MYSQL_STUDY_KEYWORDS) == (
            serial_index.search_any(MYSQL_STUDY_KEYWORDS)
        )

    def test_formats_without_index_text_get_no_index(self, archives, tmp_path):
        mine_archive_file(
            Application.APACHE, archives[Application.APACHE], index_dir=tmp_path / "idx"
        )
        assert not (tmp_path / "idx").exists()


class TestTelemetryAndShape:
    def test_parallel_run_records_telemetry(self, archives):
        telemetry = Telemetry()
        fmt = format_for(Application.MYSQL)
        parsed = parse_archive_streamed(
            fmt, archives[Application.MYSQL], max_shard_bytes=SHARD_BYTES,
            workers=4, telemetry=telemetry,
        )
        assert telemetry.counter("stream.records") == parsed.record_count
        assert telemetry.timer("stream.wall").count == 1
        assert telemetry.timer("stream.range.wall").count == parsed.shards
        assert telemetry.timer("stream.range.queue").count == parsed.shards
        assert telemetry.counter("stream.ranges") == parsed.shards
        assert telemetry.gauge_value("stream.worker_processes") == len(parsed.worker_pids)

    def test_serial_run_reports_one_shard(self, archives):
        telemetry = Telemetry()
        fmt = format_for(Application.APACHE)
        parsed = parse_archive_streamed(
            fmt, archives[Application.APACHE], workers=1, telemetry=telemetry
        )
        assert parsed.shards == 1
        assert parsed.worker_pids == (os.getpid(),)
        assert telemetry.timer("stream.range.wall").count == 1
        assert telemetry.gauge_value("stream.worker_processes") == 1

    def test_wall_time_is_recorded(self, archives):
        fmt = format_for(Application.GNOME)
        parsed = parse_archive_streamed(
            fmt, archives[Application.GNOME], max_shard_bytes=SHARD_BYTES, workers=2
        )
        assert parsed.wall_seconds > 0
