"""Span sinks: where finished trace spans go.

A sink receives one JSON-serialisable span record per finished span (see
:mod:`repro.obs.span` for the record shape).  Three implementations
cover the subsystem's needs:

* :class:`NullSink` -- swallows everything; the disabled-tracing path
  never reaches a sink at all, this exists for explicit plumbing;
* :class:`MemorySink` -- collects records in a list, for tests and for
  worker-side capture buffers;
* :class:`JsonlSink` -- crash-safe on-disk trace log: one JSON object
  per line, flushed per record, so a killed run loses at most the
  in-flight span.  :func:`read_trace` tolerates a truncated final line
  (the crash case) by stopping at the first undecodable line.
"""

from __future__ import annotations

import itertools
import threading
from pathlib import Path
from typing import Any

from repro.fsio import append_jsonl, read_jsonl


class NullSink:
    """Discards every record."""

    def emit(self, record: dict[str, Any]) -> None:
        pass

    def close(self) -> None:
        pass


class MemorySink:
    """Collects records in memory (tests, worker capture buffers)."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def emit(self, record: dict[str, Any]) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


class JsonlSink:
    """Appends one JSON line per span record to ``path``, flushed eagerly.

    The file is truncated on open: one trace file describes one run.
    Every record is written and flushed as a single line, so a crashed
    process can truncate at most the last line -- which
    :func:`read_trace` skips on load.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._stream = open(self.path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        self.emitted = 0

    def emit(self, record: dict[str, Any]) -> None:
        # Lock-guarded so concurrent request threads (the serve daemon)
        # never interleave two records on one line.
        with self._lock:
            append_jsonl(self._stream, record, separators=(",", ":"), sort_keys=True)
            self.emitted += 1

    def close(self) -> None:
        if not self._stream.closed:
            self._stream.close()


def read_trace(path: str | Path) -> list[dict[str, Any]]:
    """Load span records from a JSONL trace file.

    A truncated or corrupt tail (a crashed writer's final line) ends the
    read without raising; everything before it is returned.
    """
    records = read_jsonl(path)
    return list(itertools.takewhile(lambda record: record is not None, records))
