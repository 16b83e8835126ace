"""Mine an archive file through the streamed parse: parse -> mine.

:func:`mine_archive_file` is the file-fed mining entry point behind
``repro mine run --archive``: it streams the archive through
:func:`~repro.pipeline.shardparse.parse_archive_streamed` (optionally
building an on-disk segmented index as a parse by-product) and mines the
records, recording both stages in a
:class:`~repro.obs.metrics.MetricsRegistry`.  It keeps no cache: the
study-graph memo is the repo's only one, and rendered archives mine
through the ``mined.<app>`` node.

Equivalence contract: for every application, any worker count, and any
shard budget, the returned :class:`~repro.mining.pipeline.MiningResult`
(items and narrowing trace) is identical to the serial oracle
``fmt.mine(fmt.parse(text), None)``.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro import obs
from repro.bugdb.enums import Application
from repro.obs.metrics import MetricsRegistry
from repro.mining.pipeline import MiningResult
from repro.pipeline.formats import format_for
from repro.pipeline.shardparse import parse_archive_streamed
from repro.pipeline.streamsplit import DEFAULT_MAX_SHARD_BYTES


@dataclasses.dataclass
class PipelineRun:
    """One execution of the archive pipeline.

    Attributes:
        application: the mined application.
        result: the mined study set plus narrowing trace (identical to
            the serial oracle, whatever ``workers`` or shard budget).
        telemetry: timers/counters/gauges recorded during the run.
    """

    application: Application
    result: MiningResult
    telemetry: MetricsRegistry

    def summary_lines(self) -> list[str]:
        """Human-readable pipeline footer for the CLI."""
        lines = []
        stream = self.telemetry.timer("stream.wall")
        if stream.count:
            mb = self.telemetry.counter("stream.bytes") / (1024 * 1024)
            records = self.telemetry.counter("stream.records")
            wall = stream.total
            rate = f", {mb / wall:.1f} MB/s, {records / wall:.0f} records/s" if wall > 0 else ""
            lines.append(
                f"stream: {wall * 1000:.1f} ms over "
                f"{self.telemetry.counter('stream.ranges'):.0f} byte-range(s), "
                f"{mb:.1f} MB, {records:.0f} record(s){rate}"
            )
        mine = self.telemetry.timer("mine.wall")
        if mine.count:
            lines.append(f"mine: {mine.total * 1000:.1f} ms")
        total = self.telemetry.timer("pipeline.wall")
        if total.count:
            lines.append(f"pipeline total: {total.total * 1000:.1f} ms")
        return lines


def mine_archive_file(
    application: Application,
    path: str | Path,
    *,
    max_shard_bytes: int = DEFAULT_MAX_SHARD_BYTES,
    workers: int = 1,
    telemetry: MetricsRegistry | None = None,
    index_dir: str | Path | None = None,
) -> PipelineRun:
    """Mine an archive **file** through the streaming byte-range path.

    The archive text is never loaded whole: shards are record-aligned
    byte-ranges of at most ``max_shard_bytes`` (each worker's memory is
    bounded by the shard budget), and with ``index_dir`` the parse
    appends write-ahead segments to an LSM-style
    :class:`~repro.bugdb.segments.SegmentedTextIndex` that the miner
    then queries for its keyword prefilter.  Mining itself still holds
    the parsed records; for parse+index-only workloads at extreme
    scale, call
    :func:`~repro.pipeline.shardparse.parse_archive_streamed` directly.
    Formats without ``index_text`` ignore ``index_dir``.
    """
    fmt = format_for(application)
    telemetry = telemetry if telemetry is not None else MetricsRegistry()
    use_index = index_dir is not None and fmt.index_text is not None

    with telemetry.timed("pipeline.wall"), obs.span(
        f"pipeline:{application.value}", workers=workers, streaming=True
    ):
        parsed = parse_archive_streamed(
            fmt,
            path,
            max_shard_bytes=max_shard_bytes,
            workers=workers,
            telemetry=telemetry,
            index_dir=index_dir if use_index else None,
            keep_records=True,
        )
        with telemetry.timed("mine.wall"), obs.span(
            f"mine:{application.value}", records=parsed.record_count
        ):
            result = fmt.mine(parsed.records, parsed.index)

    return PipelineRun(application=application, result=result, telemetry=telemetry)
