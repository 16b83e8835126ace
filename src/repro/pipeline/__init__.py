"""repro.pipeline: the archive path (one oracle, one fast path, one cache).

The paper's Section 4 narrowing (5220 Apache reports -> 50, ~500 GNOME
-> 45, ~44,000 MySQL messages -> 44) is the repo's biggest hot path.
It has exactly one parse fast path, one oracle, and one cache:

* :mod:`~repro.pipeline.formats` -- per-application
  :class:`~repro.pipeline.formats.ArchiveFormat` descriptors (render,
  record-boundary split, chunk parse, mine, payload codecs).
  :meth:`~repro.pipeline.formats.ArchiveFormat.parse` is the serial
  **oracle**: the study graph's ``parsed.<app>`` nodes use it, and every
  faster path is asserted bit-identical to it;
* :mod:`~repro.pipeline.streamsplit` -- byte-offset record boundaries
  over archive *files*: record-aligned shard byte-ranges scanned with
  bounded memory;
* :mod:`~repro.pipeline.shardparse` --
  :func:`~repro.pipeline.shardparse.parse_archive_streamed`, the **fast
  path**: byte-ranges parsed inline or on the fork-based
  :mod:`repro.harness` pool, optionally landing in an LSM-style
  :class:`~repro.bugdb.segments.SegmentedTextIndex`;
* :mod:`~repro.pipeline.runner` -- :func:`~repro.pipeline.runner.
  mine_archive_file`, streamed parse then mine, with
  :class:`~repro.obs.metrics.MetricsRegistry`;
* :mod:`~repro.pipeline.cache` -- the content-addressed on-disk store
  behind the study-graph memo, the **cache**;
* :mod:`~repro.pipeline.records` -- JSON codecs for node payloads.

**Equivalence contract**: for every application, any worker count, and
any shard budget, the streamed path's records and
:class:`~repro.mining.pipeline.MiningResult` (items and trace) are
identical to the serial oracle.
"""

from repro.pipeline.cache import CACHE_FORMAT_VERSION, ParseMineCache
from repro.pipeline.formats import FORMATS, ArchiveFormat, format_for
from repro.pipeline.runner import PipelineRun, mine_archive_file
from repro.pipeline.shardparse import (
    KIND_STREAM_SHARD,
    StreamedParse,
    parse_archive_streamed,
)
from repro.pipeline.streamsplit import (
    ByteRange,
    format_byte_ranges,
    read_range,
    shard_byte_ranges,
    split_file,
)

__all__ = [
    "ArchiveFormat",
    "ByteRange",
    "CACHE_FORMAT_VERSION",
    "FORMATS",
    "KIND_STREAM_SHARD",
    "ParseMineCache",
    "PipelineRun",
    "StreamedParse",
    "format_byte_ranges",
    "format_for",
    "mine_archive_file",
    "parse_archive_streamed",
    "read_range",
    "shard_byte_ranges",
    "split_file",
]
