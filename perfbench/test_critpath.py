"""Tests for the traced-run analysis on hand-built traces with known answers.

Run with ``python3 -m pytest perfbench/test_critpath.py``.
"""

import pytest

from critpath import analyse, critical_path, node_walls, worker_idle

# a -> b -> d and c -> d; c is the long branch.
DEPS = {"a": [], "b": ["a"], "c": [], "d": ["b", "c"]}


def span(name, start, end, span_id, parent=None, pid=1):
    return {"name": name, "start": start, "end": end, "span_id": span_id,
            "parent_id": parent, "pid": pid}


def two_worker_trace():
    """Wave 1 runs a (1s, pid 10) and c (4s, pid 11); wave 2 runs b (2s);
    wave 3 runs d (1s).  The run takes 8.5s end to end."""
    return [
        span("study.run", 0.0, 8.5, "root"),
        span("wave", 0.0, 4.2, "w1", "root"),
        span("campaign", 0.1, 4.1, "c1", "w1"),
        span("unit:studygraph", 0.1, 1.1, "u1", "c1", pid=10),
        span("node:a", 0.1, 1.1, "n1", "u1", pid=10),
        span("unit:studygraph", 0.1, 4.1, "u2", "c1", pid=11),
        span("node:c", 0.1, 4.1, "n2", "u2", pid=11),
        span("wave", 4.2, 6.4, "w2", "root"),
        span("campaign", 4.3, 6.3, "c2", "w2"),
        span("unit:studygraph", 4.3, 6.3, "u3", "c2", pid=12),
        span("node:b", 4.3, 6.3, "n3", "u3", pid=12),
        span("wave", 6.4, 8.5, "w3", "root"),
        span("campaign", 6.5, 7.5, "c3", "w3"),
        span("unit:studygraph", 6.5, 7.5, "u4", "c3", pid=13),
        span("node:d", 6.5, 7.5, "n4", "u4", pid=13),
    ]


def test_node_walls_read_node_spans_only():
    assert node_walls(two_worker_trace()) == pytest.approx({"a": 1.0, "c": 4.0, "b": 2.0, "d": 1.0})


def test_critical_path_takes_the_longest_chain():
    length, path = critical_path({"a": 1.0, "b": 2.0, "c": 4.0, "d": 1.0}, DEPS)
    assert length == pytest.approx(5.0)
    assert path == ["c", "d"]


def test_critical_path_prefers_work_over_fan_in():
    length, path = critical_path({"a": 3.0, "b": 2.0, "c": 4.0, "d": 1.0}, DEPS)
    assert length == pytest.approx(6.0)
    assert path == ["a", "b", "d"]


def test_memo_hits_weigh_nothing():
    length, path = critical_path({"d": 1.0}, DEPS)
    assert length == pytest.approx(1.0)
    assert path[-1] == "d"


def test_cycle_is_an_error():
    with pytest.raises(ValueError):
        critical_path({"x": 1.0, "y": 1.0}, {"x": ["y"], "y": ["x"]})


def test_worker_idle_pads_missing_slots():
    # c1 lasts 4s: one slot busy 4s, one busy 1s -> idle 0 and 3.
    # c2 lasts 2s with one unit: busiest slot idle 0, other slot idle 2.
    # c3 lasts 1s with one unit: idle 0 and 1.
    assert worker_idle(two_worker_trace(), 2) == pytest.approx([0.0, 6.0])


def test_worker_idle_serial_run_is_zero_when_units_fill_campaigns():
    assert worker_idle(two_worker_trace(), 1) == pytest.approx([0.0])


def test_analyse_two_workers():
    result = analyse(two_worker_trace(), DEPS, workers=2)
    assert result.total_node_s == pytest.approx(8.0)
    assert result.critical_path_s == pytest.approx(5.0)
    # max(5.0, 8.0 / 2) = 5.0
    assert result.ideal_makespan_s == pytest.approx(5.0)
    assert result.achieved_makespan_s == pytest.approx(8.5)
    assert result.parallel_efficiency == pytest.approx(5.0 / 8.5)
    assert result.waves == 3


def test_analyse_one_worker_is_bound_by_total_work():
    result = analyse(two_worker_trace(), DEPS, workers=1)
    assert result.ideal_makespan_s == pytest.approx(8.0)


def test_analyse_without_root_span_uses_the_trace_extent():
    records = [r for r in two_worker_trace() if r["name"] != "study.run"]
    assert analyse(records, DEPS, workers=2).achieved_makespan_s == pytest.approx(8.5)


def test_empty_trace():
    result = analyse([], {}, workers=2)
    assert result.critical_path == [] and result.parallel_efficiency == 0.0
