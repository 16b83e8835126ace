"""JSONL run journal: crash-safe campaign persistence.

Every completed work unit is appended to the journal as one JSON line,
flushed immediately, so a killed campaign loses at most the units that
were in flight.  On resume the engine loads the journal, skips every
unit whose content key already has a record, and appends the rest to the
same file -- the final report is identical to an uninterrupted run.

The first line is a header carrying campaign metadata (kind, technique,
seed, scope), which lets ``repro campaign resume`` rebuild the unit
stream from the journal alone.  Loading tolerates a truncated or corrupt
trailing line (the usual artifact of a kill mid-write): undecodable
lines are counted and skipped, never fatal.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Any, Mapping

from repro.fsio import append_jsonl, read_jsonl

JOURNAL_MAGIC = "repro.harness.journal"
JOURNAL_VERSION = 1


@dataclasses.dataclass(frozen=True)
class JournalContents:
    """A loaded journal: header metadata plus completed-unit records."""

    meta: dict[str, Any]
    records: dict[str, dict[str, Any]]  # unit key -> record
    skipped_lines: int

    @property
    def completed(self) -> int:
        return len(self.records)


def load_journal(path: str | os.PathLike[str]) -> JournalContents:
    """Load a journal file, tolerating truncated/corrupt lines.

    Returns:
        The header metadata (empty dict if the header is missing or
        unreadable) and a ``key -> record`` map; later records win on
        duplicate keys, so a unit journaled twice is counted once.
    """
    meta: dict[str, Any] = {}
    records: dict[str, dict[str, Any]] = {}
    skipped = 0
    for index, entry in enumerate(read_jsonl(path)):
        if entry is None:
            skipped += 1
        elif entry.get("type") == "header":
            if index == 0 and entry.get("journal") == JOURNAL_MAGIC:
                meta = entry.get("meta", {})
        elif entry.get("type") == "unit" and "key" in entry:
            records[entry["key"]] = entry
        else:
            skipped += 1
    return JournalContents(meta=meta, records=records, skipped_lines=skipped)


class JournalWriter:
    """Append-only JSONL writer with per-line flush.

    Args:
        path: the journal file; created (with a header) when missing,
            appended to when present.
        meta: campaign metadata for the header of a new journal.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        meta: Mapping[str, Any] | None = None,
    ) -> None:
        self.path = os.fspath(path)
        fresh = not (os.path.exists(self.path) and os.path.getsize(self.path) > 0)
        self._handle = open(self.path, "a", encoding="utf-8")
        if fresh:
            self._write_line(
                {
                    "type": "header",
                    "journal": JOURNAL_MAGIC,
                    "version": JOURNAL_VERSION,
                    "created": time.time(),
                    "meta": dict(meta or {}),
                }
            )

    def _write_line(self, entry: dict[str, Any]) -> None:
        append_jsonl(self._handle, entry, sort_keys=True)

    def append(
        self,
        key: str,
        unit: Mapping[str, Any],
        result: Mapping[str, Any],
        *,
        wall_seconds: float = 0.0,
    ) -> None:
        """Journal one completed unit (immediately durable)."""
        self._write_line(
            {
                "type": "unit",
                "key": key,
                "unit": dict(unit),
                "result": dict(result),
                "wall_ms": round(wall_seconds * 1000.0, 3),
            }
        )

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
