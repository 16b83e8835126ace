"""Streamed archive parsing: record-aligned byte-ranges on the worker pool.

The archive path's one parse fast path.  An archive **file** is cut into
record-aligned byte-ranges (:mod:`repro.pipeline.streamsplit`); each
range is read, split, and parsed on its own -- inline, or on the
fork-based :class:`~repro.harness.pool.WorkerPool` with results
reassembled in submission order -- so the record stream is
bit-identical to the serial oracle :meth:`~repro.pipeline.formats.
ArchiveFormat.parse` for any worker count and shard budget, and peak
memory tracks the shard budget rather than the archive.

When the format defines :attr:`~repro.pipeline.formats.ArchiveFormat.
index_text`, every range can also stage a write-ahead segment of an
LSM-style :class:`~repro.bugdb.segments.SegmentedTextIndex` as a parse
by-product, which the MySQL miner then queries for its keyword
prefilter.
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro import obs
from repro.bugdb.segments import SegmentedTextIndex, segment_from_index
from repro.bugdb.textindex import TextIndex
from repro.harness.pool import UnitExecution, WorkerPool
from repro.harness.shard import assemble_results
from repro.obs.metrics import MetricsRegistry
from repro.harness.workunit import WorkUnit
from repro.pipeline.formats import ArchiveFormat
from repro.pipeline.streamsplit import (
    DEFAULT_MAX_SHARD_BYTES,
    ByteRange,
    format_byte_ranges,
    read_range,
)

#: Work-unit kind for streaming byte-range shards.
KIND_STREAM_SHARD = "stream-shard"


@dataclasses.dataclass
class StreamedParse:
    """The outcome of streaming one archive file through the parser.

    Records are **not retained** unless asked for: the streaming path
    exists so that multi-GB archives parse and index with memory bounded
    by ``max_shard_bytes``, independent of corpus size.

    Attributes:
        record_count: records parsed across all byte-ranges.
        bytes_total: archive bytes consumed.
        ranges: shard byte-ranges the file was cut into.
        shards: number of ranges (== ``len(ranges)``).
        workers: worker processes requested.
        worker_pids: distinct process ids that executed ranges.
        wall_seconds: end-to-end wall time.
        index: the :class:`~repro.bugdb.segments.SegmentedTextIndex`
            the parse appended write-ahead segments to, when an
            ``index_dir`` was given; None otherwise.
        records: parsed records in archive order when
            ``keep_records=True`` (byte-identical to the serial
            reference path); None otherwise.
    """

    record_count: int
    bytes_total: int
    ranges: list[ByteRange]
    workers: int
    worker_pids: tuple[int, ...]
    wall_seconds: float
    index: SegmentedTextIndex | None
    records: list[Any] | None

    @property
    def shards(self) -> int:
        return len(self.ranges)

    @property
    def mb_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.bytes_total / (1024 * 1024) / self.wall_seconds

    @property
    def records_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.record_count / self.wall_seconds


def _parse_range(
    fmt: ArchiveFormat,
    path: Path,
    byte_range: ByteRange,
    index_root: Path | None,
    wal_name: str | None,
) -> tuple[list[Any], str | None]:
    """Parse one byte-range; with ``index_root``, stage its index segment.

    The segment indexes the range's records under local ids; ``wal_name``
    must come from :meth:`SegmentedTextIndex.reserve_segment_names` so a
    re-run against an existing index never clobbers previously committed
    segments.  Returns the records and the staged segment name (None
    when not indexing or the range holds no records).
    """
    records = [fmt.parse_record(chunk) for chunk in fmt.split(read_range(path, byte_range))]
    if index_root is None or not records:
        return records, None
    partial: TextIndex[int] = TextIndex()
    for local, record in enumerate(records):
        partial.add(local, fmt.index_text(record))
    segment_from_index(index_root, wal_name, partial)
    return records, wal_name


def _stream_shard_runner(
    unit: WorkUnit, context: Any
) -> tuple[int, str | None, list[Any] | None]:
    """Parse one byte-range (worker side).

    Workers read their own range straight from the file -- the archive
    text never crosses the fork or the result queue.  When indexing,
    the worker stages its write-ahead segment and sends back only its
    name; the parent later assigns doc bases by committing segments in
    range order.  Records travel back only when the caller wants them.
    """
    fmt, path, ranges, index_root, wal_names, keep_records = context
    position = unit.params_dict()["range"]
    records, segment = _parse_range(
        fmt, path, ranges[position], index_root, wal_names[position]
    )
    return len(records), segment, records if keep_records else None


def parse_archive_streamed(
    fmt: ArchiveFormat,
    path: str | os.PathLike,
    *,
    max_shard_bytes: int = DEFAULT_MAX_SHARD_BYTES,
    workers: int = 1,
    telemetry: MetricsRegistry | None = None,
    index_dir: str | os.PathLike | None = None,
    keep_records: bool = False,
    consumer: Callable[[int, list[Any]], None] | None = None,
) -> StreamedParse:
    """Parse an archive **file** in byte-range shards with bounded memory.

    Shards are record-aligned byte-ranges of at most ``max_shard_bytes``
    (see :mod:`repro.pipeline.streamsplit`); each is read, split, and
    parsed independently, so peak memory tracks the shard budget — not
    the archive.  With ``index_dir`` (requires the format to define
    ``index_text``), every shard stages a write-ahead index segment and
    the parent commits them in range order: the resulting
    :class:`SegmentedTextIndex` is query-identical to indexing the whole
    archive serially under global positional ids.

    ``consumer(range_index, records)`` receives each range's records in
    archive order.  On the serial path records stream straight to the
    consumer and are dropped; with ``workers > 1`` records return
    through the result queue first (use serial streaming when the
    archive is too large to rematerialize).  ``keep_records=True``
    additionally retains the full record list on the result.
    """
    telemetry = telemetry if telemetry is not None else MetricsRegistry()
    path = Path(path)
    if index_dir is not None and fmt.index_text is None:
        raise ValueError(
            f"format {fmt.application.value} defines no index_text; "
            "cannot build a segmented index"
        )
    index = SegmentedTextIndex(index_dir) if index_dir is not None else None
    index_root = index.root if index is not None else None

    with obs.span(
        f"stream:parse:{fmt.application.value}", workers=max(1, workers)
    ) as stream_span:
        started = time.monotonic()
        with telemetry.timed("stream.split"):
            ranges = format_byte_ranges(fmt, path, max_shard_bytes=max_shard_bytes)
        bytes_total = sum(byte_range.size for byte_range in ranges)
        telemetry.count("stream.ranges", len(ranges))
        telemetry.count("stream.bytes", bytes_total)
        stream_span.set(ranges=len(ranges), bytes=bytes_total)

        pool = WorkerPool(max(1, workers))
        kept: list[Any] | None = [] if keep_records else None
        # Reserve one staged-segment name per range up front: names come
        # from the index's persistent id counter, so a second run against
        # the same index_dir appends new segments instead of overwriting
        # the earlier run's wal-*.seg files.
        wal_names: list[str | None] = (
            index.reserve_segment_names(len(ranges))
            if index is not None
            else [None] * len(ranges)
        )

        def parse_inline() -> Iterator[tuple[int, str | None, list[Any]]]:
            # Lazy: each range reaches the consumer before the next is read.
            for position, byte_range in enumerate(ranges):
                with telemetry.timed("stream.range.wall"):
                    records, segment = _parse_range(
                        fmt, path, byte_range, index_root, wal_names[position]
                    )
                yield len(records), segment, records

        if not pool.parallel or len(ranges) < 2:
            outcomes: Iterable[tuple[int, str | None, list[Any] | None]] = parse_inline()
            pids: tuple[int, ...] = (os.getpid(),)
        else:
            units = [
                WorkUnit.build(
                    KIND_STREAM_SHARD,
                    f"{fmt.application.value}:range{position:06d}",
                    params={
                        "range": position,
                        "start": byte_range.start,
                        "end": byte_range.end,
                    },
                )
                for position, byte_range in enumerate(ranges)
            ]
            executions: dict[str, UnitExecution] = {}

            def on_unit(execution: UnitExecution) -> None:
                executions[execution.key] = execution
                telemetry.observe("stream.range.wall", execution.wall_seconds)
                telemetry.observe("stream.range.queue", execution.queue_seconds)

            pool.execute(
                units,
                _stream_shard_runner,
                (
                    fmt,
                    path,
                    ranges,
                    index_root,
                    wal_names,
                    keep_records or consumer is not None,
                ),
                on_unit=on_unit,
            )
            ordered = assemble_results(units, executions)
            outcomes = [execution.result for execution in ordered]
            pids = tuple(sorted({execution.worker_pid for execution in ordered}))

        segment_names: list[str] = []
        record_count = 0
        for position, (count, segment, records) in enumerate(outcomes):
            record_count += count
            if segment is not None:
                segment_names.append(segment)
            if consumer is not None:
                consumer(position, records or [])
            if kept is not None:
                kept.extend(records or [])

        if index is not None and segment_names:
            with obs.span("stream:commit", segments=len(segment_names)):
                index.commit_segments(segment_names)

        wall = time.monotonic() - started
        telemetry.observe("stream.wall", wall)
        telemetry.count("stream.records", record_count)
        telemetry.gauge("stream.worker_processes", len(pids))
        stream_span.set(records=record_count, shards=len(ranges))
        return StreamedParse(
            record_count=record_count,
            bytes_total=bytes_total,
            ranges=ranges,
            workers=pool.workers,
            worker_pids=pids,
            wall_seconds=wall,
            index=index,
            records=kept,
        )
