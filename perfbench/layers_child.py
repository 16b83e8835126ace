"""Child process for the traced run's ``workers=1`` study pass.

``python3 perfbench/layers_child.py WORKDIR`` (with ``PYTHONPATH=src``)
runs the whole study graph cold at ``workers=1`` into ``WORKDIR/memo``,
then warm over that memo, and prints one JSON line of per-layer figures.

Every figure is taken from outside the program: benchmark-side wrappers
count and time calls into public layer functions, and the node and
replay spans come from the program's own tracing, collected in memory.
At ``workers=1`` every producer runs in this process, so the wrappers
see every call.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import pickle
import sys
import time
from collections import defaultdict
from pathlib import Path


class Layers:
    """Accumulated seconds, calls and bytes per layer name."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.bytes: dict[str, int] = defaultdict(int)

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - started
                self.calls[name] += 1

        return wrapper


def install_wrappers(layers: Layers) -> None:
    """Patch the public layer entry points the study chain calls."""
    from repro.mining import dedup, mysql
    from repro.pipeline import formats
    from repro.studygraph import scheduler

    for application, fmt in list(formats.FORMATS.items()):
        formats.FORMATS[application] = dataclasses.replace(
            fmt,
            render=layers.timed("corpus.render", fmt.render),
            record_to_dict=layers.timed("pipeline.encode", fmt.record_to_dict),
            record_from_dict=layers.timed("pipeline.decode", fmt.record_from_dict),
        )
    formats.ArchiveFormat.parse = layers.timed("bugdb.parse", formats.ArchiveFormat.parse)
    mysql.build_message_index = layers.timed("mining.index_build", mysql.build_message_index)
    mysql.group_threads = layers.timed("mining.threads", mysql.group_threads)
    mysql.keyword_matching_messages = layers.timed(
        "mining.keyword", mysql.keyword_matching_messages
    )
    dedup.Deduplicator.unique = layers.timed("mining.dedup", dedup.Deduplicator.unique)
    scheduler.artifact_digest = layers.timed("studygraph.digest", scheduler.artifact_digest)


class MeteredCache:
    """A memo cache whose loads and stores are timed, stores also sized."""

    def __init__(self, cache, layers: Layers) -> None:
        self._cache = cache
        self._layers = layers

    def load(self, digest, tag):
        started = time.perf_counter()
        try:
            return self._cache.load(digest, tag)
        finally:
            self._layers.seconds["studygraph.memo_load"] += time.perf_counter() - started

    def store(self, digest, tag, data):
        started = time.perf_counter()
        path = self._cache.store(digest, tag, data)
        self._layers.seconds["studygraph.memo_store"] += time.perf_counter() - started
        self._layers.bytes["studygraph.memo_store"] += path.stat().st_size
        return path


def _span_seconds(records, prefix: str) -> tuple[float, int]:
    spans = [r for r in records if r["name"].startswith(prefix)]
    return sum(r["end"] - r["start"] for r in spans), len(spans)


def measure(work: Path) -> dict:
    from repro import obs
    from repro.corpus.loader import full_study
    from repro.harness.telemetry import Telemetry
    from repro.obs.sinks import MemorySink
    from repro.pipeline.cache import ParseMineCache
    from repro.studygraph.context import StudyContext
    from repro.studygraph.registry import default_registry
    from repro.studygraph.scheduler import run_study

    started = time.perf_counter()
    full_study(fresh=True)
    full_study_s = time.perf_counter() - started

    layers = Layers()
    install_wrappers(layers)
    registry = default_registry()
    names = registry.topo_order([node.name for node in registry.experiments()])

    sink = MemorySink()
    cold = MeteredCache(ParseMineCache(work / "memo"), layers)
    context = StudyContext(study=full_study(), workers=1, cache=cold, telemetry=Telemetry())
    started = time.perf_counter()
    with obs.tracing(sink):
        result = run_study(context, outputs=names)
    cold_s = time.perf_counter() - started

    # What the pool would ship back per node at workers>1: its result dict.
    pickle_s = 0.0
    pickle_bytes = 0
    for name in names:
        shipped = {"payload": result.outputs[name], "digest": result.runs[name].digest}
        started = time.perf_counter()
        pickle_bytes += len(pickle.dumps(shipped))
        pickle_s += time.perf_counter() - started

    store_s = layers.seconds.pop("studygraph.memo_store", 0.0)
    layers.seconds.pop("studygraph.memo_load", None)
    warm = MeteredCache(ParseMineCache(work / "memo"), layers)
    warm_context = StudyContext(study=full_study(), workers=1, cache=warm, telemetry=Telemetry())
    run_study(warm_context)

    replay_s, replay_units = _span_seconds(sink.records, "replay:")
    pairs_s, _ = _span_seconds(sink.records, "node:scenario.pairs[")
    seconds, calls = layers.seconds, layers.calls
    return {
        "cold_s": cold_s,
        "executed": sum(1 for run in result.runs.values() if run.status == "executed"),
        "layers": {
            "corpus.render_s": seconds["corpus.render"],
            "bugdb.parse_s": seconds["bugdb.parse"],
            "pipeline.decode_s": seconds["pipeline.decode"],
            "pipeline.decode_calls": calls["pipeline.decode"],
            "pipeline.encode_s": seconds["pipeline.encode"],
            "mining.index_build_s": seconds["mining.index_build"],
            "mining.index_builds": calls["mining.index_build"],
            "mining.threads_s": seconds["mining.threads"],
            "mining.thread_groupings": calls["mining.threads"],
            "mining.keyword_s": seconds["mining.keyword"],
            "mining.dedup_s": seconds["mining.dedup"],
            "studygraph.digest_s": seconds["studygraph.digest"],
            "studygraph.memo_store_s": store_s,
            "studygraph.memo_store_bytes": layers.bytes["studygraph.memo_store"],
            "studygraph.memo_load_s": seconds["studygraph.memo_load"],
            "corpus.full_study_s": full_study_s,
            "harness.result_pickle_s": pickle_s,
            "harness.result_pickle_bytes": pickle_bytes,
            "recovery.replay_s": replay_s,
            "recovery.replay_units": replay_units,
            "scenarios.pairs_s": pairs_s,
        },
    }


if __name__ == "__main__":
    print(json.dumps(measure(Path(sys.argv[1]))))
