"""The run-wide metrics registry: labelled counters, timers, and gauges.

:class:`MetricsRegistry` is the one place harness campaigns, the archive
pipeline, the study-graph scheduler, and the serve daemon report their
numbers (``repro.harness.telemetry.Telemetry`` is the same class under
its historical name).  Counters accumulate integers, timers record
observed durations into a :class:`~repro.obs.hist.Histogram`, and gauges
hold one last-written float per name.

Counters and timers take optional string labels (``kind="ping"``,
``status="ok"``); each distinct label set is its own series, and reads
sum every series whose labels include the ones asked for.  One lock
guards every mutation, so request threads can record concurrently, and
:meth:`MetricsRegistry.exposition` renders everything as one
deterministic Prometheus-style text exposition.
"""

from __future__ import annotations

import contextlib
import dataclasses
import re
import threading
import time
from typing import Any, Iterator

from repro.obs.hist import Histogram, _format_labels, histogram_lines, metric_line

#: A series' label set: sorted ``(label, value)`` pairs.
Labels = tuple[tuple[str, str], ...]


@dataclasses.dataclass(frozen=True)
class TimerStats:
    """Aggregate statistics for one named timer."""

    count: int
    total: float
    min: float
    max: float

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count


def _labels(labels: dict[str, str]) -> Labels:
    return tuple(sorted(labels.items())) if labels else ()


def _matches(series: Labels, wanted: Labels) -> bool:
    return all(pair in series for pair in wanted)


def _timer_stats(hist: Histogram) -> TimerStats:
    return TimerStats(
        count=hist.count,
        total=hist.total,
        min=hist.min_value if hist.count else 0.0,
        max=hist.max_value,
    )


class MetricsRegistry:
    """Named, optionally labelled counters, timers, and gauges for one run.

    Counters accumulate integers (``units.executed``, ``units.survived``);
    timers record observed durations (``unit.wall``, ``unit.queue``);
    gauges hold the last-written float (``workers.utilization``).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, dict[Labels, int]] = {}
        self._timers: dict[str, dict[Labels, Histogram]] = {}
        self._gauges: dict[str, float] = {}

    # -- counters ------------------------------------------------------ #

    def count(self, name: str, amount: int = 1, **labels: str) -> None:
        """Add ``amount`` to counter ``name`` (the series for ``labels``)."""
        key = _labels(labels)
        with self._lock:
            series = self._counters.get(name)
            if series is None:
                series = self._counters[name] = {}
            series[key] = series.get(key, 0) + amount

    def counter(self, name: str, **labels: str) -> int:
        """Counter ``name`` summed over every series carrying ``labels``
        (0 if never incremented)."""
        wanted = _labels(labels)
        with self._lock:
            series = self._counters.get(name, {})
            return sum(
                value for key, value in series.items() if _matches(key, wanted)
            )

    # -- timers -------------------------------------------------------- #

    def observe(self, name: str, seconds: float, **labels: str) -> None:
        """Record one observed duration under timer ``name``."""
        key = _labels(labels)
        with self._lock:
            series = self._timers.get(name)
            if series is None:
                series = self._timers[name] = {}
            hist = series.get(key)
            if hist is None:
                hist = series[key] = Histogram()
            hist.record(seconds)

    @contextlib.contextmanager
    def timed(self, name: str, **labels: str) -> Iterator[None]:
        """Context manager observing the enclosed block's wall time."""
        started = time.monotonic()
        try:
            yield
        finally:
            self.observe(name, time.monotonic() - started, **labels)

    def timer(self, name: str, **labels: str) -> TimerStats:
        """Aggregate stats for timer ``name`` over every series carrying
        ``labels`` (zeros if never observed)."""
        wanted = _labels(labels)
        merged = Histogram()
        with self._lock:
            for key, hist in self._timers.get(name, {}).items():
                if _matches(key, wanted):
                    merged.merge(hist)
        return _timer_stats(merged)

    # -- gauges -------------------------------------------------------- #

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def gauge_value(self, name: str, default: float = 0.0) -> float:
        """Last value written to gauge ``name``."""
        with self._lock:
            return self._gauges.get(name, default)

    # -- snapshots ----------------------------------------------------- #

    def snapshot(self) -> dict[str, Any]:
        """All metrics as one JSON-serialisable dict.

        Unlabelled series appear under their bare name; a labelled one
        under its exposition spelling, ``name{kind="ping"}``.
        """
        with self._lock:
            return {
                "counters": {
                    name + _format_labels(dict(key)): value
                    for name, series in self._counters.items()
                    for key, value in series.items()
                },
                "timers": {
                    name + _format_labels(dict(key)): dataclasses.asdict(
                        _timer_stats(hist)
                    )
                    for name, series in self._timers.items()
                    for key, hist in series.items()
                },
                "gauges": dict(self._gauges),
            }

    def exposition(self) -> str:
        """Every metric as Prometheus-style text.

        Gauges, then counters, then timers (as ``_bucket``/``_sum``/
        ``_count`` histograms), each sorted by name and label set, so two
        renders of identical state are byte-identical.  Characters a
        metric name may not carry (the dots of ``unit.wall``) become
        underscores.
        """
        lines: list[str] = []
        with self._lock:
            families = (
                ("gauge", {name: {(): value} for name, value in self._gauges.items()}),
                ("counter", self._counters),
                ("histogram", self._timers),
            )
            for kind, store in families:
                for name in sorted(store):
                    metric = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
                    lines.append(f"# TYPE {metric} {kind}")
                    for key, value in sorted(store[name].items()):
                        if kind == "histogram":
                            lines.extend(histogram_lines(metric, value, dict(key)))
                        else:
                            lines.append(metric_line(metric, value, dict(key)))
        return "".join(line + "\n" for line in lines)

    def summary_lines(self) -> list[str]:
        """Human-readable one-liners for the CLI footer."""
        lines = []
        executed = self.counter("units.executed")
        resumed = self.counter("units.resumed")
        lines.append(
            f"units: {self.counter('units.total')} total, "
            f"{executed} executed, {resumed} resumed from journal"
        )
        wall = self.timer("unit.wall")
        if wall.count:
            lines.append(
                f"unit wall time: mean {wall.mean * 1000:.2f} ms, "
                f"max {wall.max * 1000:.2f} ms"
            )
        queue = self.timer("unit.queue")
        if queue.count:
            lines.append(f"queue latency: mean {queue.mean * 1000:.2f} ms")
        if "workers.utilization" in self._gauges:
            lines.append(
                f"workers: {self.gauge_value('workers.count'):.0f} "
                f"({self.gauge_value('workers.utilization'):.0%} utilized)"
            )
        survived = self.counter("units.survived")
        if executed or survived:
            lines.append(f"survived: {survived}/{self.counter('units.finished')}")
        return lines
