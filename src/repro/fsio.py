"""Durable file writes shared by the on-disk stores.

:func:`atomic_write_json` is the one temp-file-plus-rename writer behind
the memo cache entries (:mod:`repro.pipeline.cache`), live-status
snapshots (:mod:`repro.obs.livestatus`), and segment-index manifests
(:mod:`repro.bugdb.segments`).  A reader sees the previous file or the
new one, never a torn write, and a write that raises leaves no temp
file behind.

:func:`append_jsonl` and :func:`read_jsonl` are the append-only JSONL
log behind the campaign journal (:mod:`repro.harness.journal`), the
trace sink (:mod:`repro.obs.sinks`), and the perf history
(:mod:`repro.obs.perfdb`).  Every record is one flushed line, so a
killed writer can tear at most its last line; the reader hands that
line back as None and each caller applies its own tolerance policy.

Layering: standard library only, so every package may import it.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterator, TextIO


def atomic_write_json(path: str | os.PathLike, payload: Any, **dump_options: Any) -> Path:
    """Replace ``path`` with ``payload`` as JSON, atomically; returns the path.

    The temp file lives in the target directory (created on demand) so
    the final ``os.replace`` is a same-filesystem rename.
    ``dump_options`` pass straight to :func:`json.dump` (separators,
    ``sort_keys``, indent), so callers keep their exact byte layout.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, temp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, **dump_options)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return path


def append_jsonl(stream: TextIO, record: Any, **dump_options: Any) -> None:
    """Write ``record`` to ``stream`` as one JSON line, then flush.

    ``dump_options`` pass straight to :func:`json.dumps`, so callers
    keep their exact byte layout.
    """
    stream.write(json.dumps(record, **dump_options) + "\n")
    stream.flush()


def read_jsonl(path: str | os.PathLike) -> Iterator[dict[str, Any] | None]:
    """Each non-blank line of the JSONL file at ``path``, as a dict.

    A torn or corrupt line (undecodable, or not a JSON object) yields
    None.  A missing file raises :class:`FileNotFoundError`.
    """
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                entry = None
            yield entry if isinstance(entry, dict) else None
