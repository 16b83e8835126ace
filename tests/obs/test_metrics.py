"""The metrics registry: gauges, timers, labelled series, and exposition."""

import json
import sys
import threading

from repro.obs import MetricsRegistry
from repro.obs.hist import exposition_value, parse_exposition


def test_gauge_value_is_last_write_within_a_shard():
    registry = MetricsRegistry()
    registry.gauge("depth", 3.0)
    registry.gauge("depth", 7.0)
    assert registry.gauge_value("depth") == 7.0
    assert registry.gauge_value("never", default=-1.0) == -1.0
    assert registry.snapshot()["gauges"] == {"depth": 7.0}


def test_timer_stats_combine_across_merges():
    # Label series combine on read: the unlabelled query spans them all.
    registry = MetricsRegistry()
    registry.observe("wall", 0.2, kind="a")
    registry.observe("wall", 0.6, kind="b")
    registry.observe("wall", 0.4, kind="b")
    stats = registry.timer("wall")
    assert stats.count == 3
    assert stats.min == 0.2
    assert stats.max == 0.6
    assert abs(stats.total - 1.2) < 1e-9
    assert abs(stats.mean - 0.4) < 1e-9
    assert registry.timer("wall", kind="b").count == 2
    assert registry.timer("wall", kind="c").count == 0


def test_counter_reads_sum_matching_label_series():
    registry = MetricsRegistry()
    registry.count("requests", kind="ping", status="ok")
    registry.count("requests", 2, kind="ping", status="error")
    registry.count("requests", 4, kind="study", status="ok")
    assert registry.counter("requests") == 7
    assert registry.counter("requests", status="ok") == 5
    assert registry.counter("requests", kind="ping") == 3
    assert registry.counter("requests", kind="ping", status="ok") == 1
    assert registry.counter("requests", kind="mine") == 0


def test_snapshot_names_labelled_series_like_the_exposition():
    registry = MetricsRegistry()
    registry.count("hits", 5)
    registry.count("requests", kind="ping")
    registry.observe("wall", 0.5)
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"hits": 5, 'requests{kind="ping"}': 1}
    assert snapshot["timers"]["wall"] == {
        "count": 1, "total": 0.5, "min": 0.5, "max": 0.5,
    }
    json.dumps(snapshot)  # must not raise


def test_exposition_renders_every_kind_and_parses():
    registry = MetricsRegistry()
    registry.gauge("workers.utilization", 0.5)
    registry.count("units.executed", 3)
    registry.count("requests", kind="ping", status="ok")
    registry.observe("unit.wall", 0.01)
    text = registry.exposition()
    samples = parse_exposition(text)
    assert exposition_value(samples, "workers_utilization") == 0.5
    assert exposition_value(samples, "units_executed") == 3
    assert exposition_value(samples, "requests", {"kind": "ping"}) == 1
    assert exposition_value(samples, "unit_wall_count") == 1
    assert "# TYPE unit_wall histogram" in text
    assert text == registry.exposition()


def test_concurrent_labelled_updates_are_exact():
    registry = MetricsRegistry()
    threads, calls = 8, 5000

    def work(index):
        kind = f"k{index % 2}"
        for _ in range(calls):
            registry.count("requests", kind=kind, status="ok")
            registry.observe("latency", 0.001, kind=kind)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often: lost updates would show
    try:
        workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert registry.counter("requests") == threads * calls
    assert registry.counter("requests", kind="k0") == threads * calls // 2
    assert registry.timer("latency").count == threads * calls
    assert registry.timer("latency", kind="k1").count == threads * calls // 2
