"""The content-addressed on-disk store behind the study-graph memo.

This is the repo's one cache.  :func:`~repro.studygraph.scheduler.
run_study` keys every node on its content digest (input artifact
digests plus node params and version) and stores two entries per node
under that key: a metadata tag (output digest, wall time) and a data tag
(the payload).  Identical inputs run by identical code hit; anything
else -- a changed corpus, a bumped node version, a different ``scale``
-- misses into a different file.  There is deliberately no mtime or TTL
logic: content addressing *is* the invalidation policy, with
:meth:`ParseMineCache.invalidate` as the explicit escape hatch (and
``--no-cache`` or no ``--cache-dir`` running without a memo at all).

Entries are JSON files under ``cache_dir/<digest[:2]>/<digest>.<tag>.json``,
written atomically (:func:`repro.fsio.atomic_write_json`) so a crashed
writer can never leave a half-entry that later reads as a hit.  Corrupt
or unreadable entries are treated as misses, matching the journal's
crash-safety stance in :mod:`repro.harness.journal`.

This mirrors the per-input analysis caches used for whole-kernel sweeps
in *Faults in Linux 2.6* (Palix et al.): re-running over an unchanged
input is a hash lookup, not a re-parse.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro import obs
from repro.fsio import atomic_write_json

#: Cache format version, embedded in every payload for debuggability.
CACHE_FORMAT_VERSION = 1


class ParseMineCache:
    """On-disk memo store rooted at ``cache_dir``.

    The directory is created lazily on first store, so constructing a
    cache never touches the filesystem.  Hit/miss counts accumulate on
    the instance for telemetry.
    """

    def __init__(self, cache_dir: str | Path):
        self.root = Path(cache_dir)
        self.hits = 0
        self.misses = 0

    def _entry_path(self, digest: str, tag: str) -> Path:
        return self.root / digest[:2] / f"{digest}.{tag}.json"

    def load(self, digest: str, tag: str) -> dict[str, Any] | None:
        """The stored payload for (digest, tag), or None on a miss.

        Corrupt or unreadable entries are misses, never errors.
        """
        path = self._entry_path(digest, tag)
        with obs.span("cache:load", tag=tag) as load_span:
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                self.misses += 1
                load_span.set(hit=False)
                return None
            if (
                not isinstance(payload, dict)
                or payload.get("cache_format") != CACHE_FORMAT_VERSION
            ):
                self.misses += 1
                load_span.set(hit=False)
                return None
            self.hits += 1
            load_span.set(hit=True)
            return payload.get("data", {})

    def store(self, digest: str, tag: str, data: dict[str, Any]) -> Path:
        """Atomically write a payload for (digest, tag); returns its path."""
        path = self._entry_path(digest, tag)
        with obs.span("cache:store", tag=tag):
            payload = {
                "cache_format": CACHE_FORMAT_VERSION,
                "digest": digest,
                "tag": tag,
                "data": data,
            }
            return atomic_write_json(path, payload, separators=(",", ":"))

    def entry_paths(self, digest: str | None = None) -> list[Path]:
        """All entry files, optionally restricted to one key digest."""
        if not self.root.is_dir():
            return []
        pattern = f"{digest}.*.json" if digest else "*.json"
        return sorted(
            path for bucket in self.root.iterdir() if bucket.is_dir()
            for path in bucket.glob(pattern)
        )

    def entry_count(self) -> int:
        """Number of cache entries on disk."""
        return len(self.entry_paths())

    def invalidate(self, digest: str | None = None) -> int:
        """Explicitly drop entries; returns how many were removed.

        Args:
            digest: drop only entries for this key digest; None
                drops every entry under the cache root.
        """
        removed = 0
        for path in self.entry_paths(digest):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> dict[str, int]:
        """Hit/miss counters accumulated by this instance."""
        return {"hits": self.hits, "misses": self.misses}
