"""Child process for the `mine-stream` phase; prints one JSON line.

Modes:

``setup SEED DIR MESSAGES``
    Import the program, build the curated corpora and stream-write a
    seeded MySQL mbox of about MESSAGES messages to ``DIR/archive.mbox``.
``oracle ARCHIVE``
    The serial reference: read the file, ``ArchiveFormat.parse`` it and
    mine with the linear keyword scan (no index, no workers, no cache).
``pass ARCHIVE INDEX_DIR [--layers]``
    The measured path: ``mine_archive_file(MYSQL, ARCHIVE, workers=2,
    index_dir=INDEX_DIR)`` with no cache.  ``--layers`` adds the
    per-layer figures read from the run's telemetry and index.

Run a mode by hand with ``PYTHONPATH=src python3 perfbench/mine_child.py ...``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _trace_rows(result) -> list[list]:
    return [[name, int(count)] for name, count in result.trace.as_rows()]


def setup(seed: int, out: Path, messages: int) -> dict:
    from repro.bugdb.enums import Application
    from repro.corpus.loader import full_study
    from repro.corpus.stream import write_archive

    out.mkdir(parents=True, exist_ok=True)
    mysql = full_study().corpus(Application.MYSQL)
    stats = write_archive(
        out / "archive.mbox", Application.MYSQL, mysql, scale=messages, seed=seed
    )
    return {"bytes": stats.bytes, "messages": stats.records}


def oracle(archive: Path) -> dict:
    from repro.bugdb.enums import Application
    from repro.mining.mysql import mine_mysql
    from repro.pipeline.formats import format_for

    records = format_for(Application.MYSQL).parse(archive.read_text(encoding="utf-8"))
    result = mine_mysql(records, use_index=False)
    return {"trace": _trace_rows(result), "unique_bugs": len(result.items)}


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def measured_pass(archive: Path, index_dir: Path, layers: bool) -> dict:
    from repro.bugdb.enums import Application
    from repro.bugdb.segments import SegmentedTextIndex
    from repro.pipeline.runner import mine_archive_file

    searches: list[int] = []
    if layers:
        original = SegmentedTextIndex.search_any

        def counted_search(self, keywords, **kwargs):
            hits = original(self, keywords, **kwargs)
            searches.append(len(hits))
            return hits

        SegmentedTextIndex.search_any = counted_search

    started = time.perf_counter()
    run = mine_archive_file(Application.MYSQL, archive, workers=2, index_dir=index_dir)
    wall = time.perf_counter() - started
    snapshot = run.telemetry.snapshot()
    timers, counters = snapshot["timers"], snapshot["counters"]
    out = {
        "wall_s": wall,
        "peak_rss_mb": _peak_rss_mb(),
        "ranges": int(counters.get("stream.ranges", 0)),
        "trace": _trace_rows(run.result),
        "unique_bugs": len(run.result.items),
    }
    if layers:
        range_walls = timers.get("stream.range.wall", {})
        mean_range = range_walls.get("total", 0.0) / max(1, range_walls.get("count", 0))
        confirmed = dict(run.result.trace.as_rows()).get("keyword-matching messages", 0)
        index = SegmentedTextIndex(index_dir)
        out["layers"] = {
            "pipeline.split_s": timers.get("stream.split", {}).get("total", 0.0),
            "pipeline.ranges": out["ranges"],
            "pipeline.stream_parse_s": timers.get("stream.wall", {}).get("total", 0.0),
            "pipeline.range_skew": range_walls.get("max", 0.0) / mean_range if mean_range else 0.0,
            "pipeline.range_queue_s": timers.get("stream.range.queue", {}).get("total", 0.0),
            "mining.mine_s": timers.get("mine.wall", {}).get("total", 0.0),
            "mining.keyword_confirm_ratio": confirmed / sum(searches) if sum(searches) else 0.0,
            "bugdb.segments": index.segment_count,
            "bugdb.index_bytes": sum(
                path.stat().st_size for path in index_dir.rglob("*") if path.is_file()
            ),
            "harness.worker_processes": snapshot["gauges"].get("stream.worker_processes", 0),
        }
    return out


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        result = setup(int(argv[1]), Path(argv[2]), int(argv[3]))
    elif mode == "oracle":
        result = oracle(Path(argv[1]))
    elif mode == "pass":
        result = measured_pass(Path(argv[1]), Path(argv[2]), "--layers" in argv[3:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
