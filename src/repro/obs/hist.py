"""Deterministic log-linear histograms and text exposition.

One histogram type for every latency/size distribution the system
records, so client- and server-side percentiles agree *bucket for
bucket* instead of disagreeing by interpolation scheme:

* :class:`Histogram` -- log-linear buckets: each power-of-two magnitude
  between ``lowest`` and ``highest`` is split into ``subbuckets`` equal
  linear slices, giving a bounded relative error of ``1/subbuckets``
  (12.5% at the default 8) across ten decades with a few hundred
  buckets.  Bucket boundaries are a pure function of the three scheme
  parameters, so two histograms built anywhere -- the loadgen client,
  the serve daemon, a parsed exposition -- bucket identically.
  Percentiles return the *upper bound* of the bucket containing the
  nearest-rank sample: deterministic, merge-stable, and reproducible
  from the exposition text alone.
* Prometheus-style text exposition -- :func:`histogram_lines` /
  :func:`metric_line` render the classic ``_bucket``/``_sum``/
  ``_count`` (cumulative ``le``) format; :func:`parse_exposition` reads
  it back; :func:`exposition_buckets` + :func:`bucket_percentile`
  recompute the same percentile a live :class:`Histogram` would return.

Layering: pure stdlib, imports nothing from the rest of ``repro`` (the
``repro.obs`` contract), so the serve daemon, the load generator, and
the SLO checker can all share it.
"""

from __future__ import annotations

import bisect
import math
import re
from typing import Any, Iterable, Mapping

__all__ = [
    "Histogram",
    "bucket_percentile",
    "exposition_buckets",
    "exposition_value",
    "format_le",
    "histogram_lines",
    "metric_line",
    "parse_exposition",
]

#: Default bucket scheme -- shared by loadgen and the serve daemon so
#: percentiles agree bucket-for-bucket.  1 microsecond .. ~10^7 (covers
#: seconds-scale latencies and byte counts alike at 12.5% resolution).
DEFAULT_LOWEST = 1e-6
DEFAULT_HIGHEST = 1e7
DEFAULT_SUBBUCKETS = 8

_BOUNDS_CACHE: dict[tuple[float, float, int], tuple[float, ...]] = {}


def _bucket_bounds(lowest: float, highest: float, subbuckets: int) -> tuple[float, ...]:
    """Upper bounds of every finite bucket, ascending.

    ``bounds[0]`` closes the underflow bucket ``(0, 2**m0]`` where
    ``m0 = floor(log2(lowest))``; each magnitude ``[2**m, 2**(m+1))``
    then contributes ``subbuckets`` equal slices.  The list is cached
    per scheme -- every histogram with the same parameters shares it.
    """
    key = (lowest, highest, subbuckets)
    cached = _BOUNDS_CACHE.get(key)
    if cached is not None:
        return cached
    magnitude = math.floor(math.log2(lowest))
    bounds = [2.0 ** magnitude]
    while bounds[-1] < highest:
        base = 2.0 ** magnitude
        for slice_index in range(1, subbuckets + 1):
            bounds.append(base * (1.0 + slice_index / subbuckets))
        magnitude += 1
    result = tuple(bounds)
    _BOUNDS_CACHE[key] = result
    return result


class Histogram:
    """A mergeable log-linear histogram of non-negative values.

    Recording clamps negatives to zero (zero lands in the underflow
    bucket) and values beyond ``highest`` into a single overflow bucket
    whose upper bound is ``+inf``.  ``count``/``total``/``min_value``/
    ``max_value`` ride along for exact means and ranges.
    """

    __slots__ = (
        "lowest",
        "highest",
        "subbuckets",
        "bounds",
        "counts",
        "count",
        "total",
        "min_value",
        "max_value",
    )

    def __init__(
        self,
        *,
        lowest: float = DEFAULT_LOWEST,
        highest: float = DEFAULT_HIGHEST,
        subbuckets: int = DEFAULT_SUBBUCKETS,
    ) -> None:
        if lowest <= 0 or highest <= lowest or subbuckets < 1:
            raise ValueError("invalid histogram scheme")
        self.lowest = lowest
        self.highest = highest
        self.subbuckets = subbuckets
        self.bounds = _bucket_bounds(lowest, highest, subbuckets)
        self.counts: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min_value = math.inf
        self.max_value = 0.0

    @classmethod
    def from_values(cls, values: Iterable[float], **scheme: Any) -> "Histogram":
        """A histogram of ``values`` under the (default) scheme."""
        hist = cls(**scheme)
        for value in values:
            hist.record(value)
        return hist

    # -- recording ------------------------------------------------------ #

    def bucket_index(self, value: float) -> int:
        """The bucket a value lands in (the overflow bucket is last)."""
        return bisect.bisect_left(self.bounds, value)

    def bucket_upper(self, index: int) -> float:
        """The bucket's upper bound (``+inf`` for the overflow bucket)."""
        if index >= len(self.bounds):
            return math.inf
        return self.bounds[index]

    def record(self, value: float) -> None:
        """Record one observation (negatives clamp to zero)."""
        value = max(0.0, float(value))
        index = self.bucket_index(value)
        self.counts[index] = self.counts.get(index, 0) + 1
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram of the identical scheme into this one."""
        if (other.lowest, other.highest, other.subbuckets) != (
            self.lowest,
            self.highest,
            self.subbuckets,
        ):
            raise ValueError("cannot merge histograms with different schemes")
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        self.min_value = min(self.min_value, other.min_value)
        self.max_value = max(self.max_value, other.max_value)

    # -- reading -------------------------------------------------------- #

    @property
    def mean(self) -> float:
        """Exact mean of recorded values (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile, rounded up to its bucket's bound.

        Returns 0.0 for an empty histogram and ``+inf`` when the rank
        falls in the overflow bucket.  Because the answer is always a
        bucket boundary, a histogram reconstructed from its exposition
        yields the same number bit for bit.
        """
        if self.count == 0:
            return 0.0
        fraction = min(1.0, max(0.0, fraction))
        target = max(1, math.ceil(fraction * self.count))
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= target:
                return self.bucket_upper(index)
        return math.inf

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` for buckets where the
        cumulative count changes -- the exposition's ``le`` series."""
        buckets: list[tuple[float, int]] = []
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            buckets.append((self.bucket_upper(index), seen))
        return buckets


# -- Prometheus-style text exposition ----------------------------------- #


def format_le(bound: float) -> str:
    """The canonical ``le`` label value for a bucket bound.

    ``repr`` is the shortest string that round-trips the float exactly,
    so a percentile recomputed from parsed exposition text is
    bit-identical to the live histogram's answer.
    """
    if math.isinf(bound):
        return "+Inf"
    return repr(bound)


def _format_labels(labels: Mapping[str, str] | None) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(str(labels[key]))}"' for key in sorted(labels)
    )
    return "{" + inner + "}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def metric_line(
    name: str, value: float, labels: Mapping[str, str] | None = None
) -> str:
    """One exposition sample line: ``name{labels} value``."""
    return f"{name}{_format_labels(labels)} {_format_value(value)}"


def histogram_lines(
    name: str, hist: Histogram, labels: Mapping[str, str] | None = None
) -> list[str]:
    """The ``_bucket``/``_sum``/``_count`` lines for one histogram.

    Only buckets where the cumulative count changes are emitted (plus
    the mandatory ``+Inf``), which keeps a sparse histogram's exposition
    short without changing any percentile recomputed from it.
    """
    base = dict(labels or {})
    lines: list[str] = []
    for bound, cumulative in hist.cumulative_buckets():
        if math.isinf(bound):
            continue
        bucket_labels = dict(base)
        bucket_labels["le"] = format_le(bound)
        lines.append(metric_line(f"{name}_bucket", cumulative, bucket_labels))
    inf_labels = dict(base)
    inf_labels["le"] = "+Inf"
    lines.append(metric_line(f"{name}_bucket", hist.count, inf_labels))
    lines.append(metric_line(f"{name}_sum", hist.total, base or None))
    lines.append(metric_line(f"{name}_count", hist.count, base or None))
    return lines


_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:\\.|[^"\\])*)"')
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+([^\s]+)\s*$"
)


def _unescape_label(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


def parse_exposition(text: str) -> list[tuple[str, dict[str, str], float]]:
    """Parse exposition text into ``(name, labels, value)`` samples.

    Comment/``# TYPE`` lines are skipped; a malformed sample line raises
    ``ValueError`` (the CI scrape check relies on strictness here).
    """
    samples: list[tuple[str, dict[str, str], float]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line: {raw!r}")
        name, label_text, value_text = match.groups()
        labels = {
            key: _unescape_label(value)
            for key, value in _LABEL_RE.findall(label_text or "")
        }
        samples.append((name, labels, _parse_value(value_text)))
    return samples


def _labels_match(labels: Mapping[str, str], match: Mapping[str, str]) -> bool:
    return all(labels.get(key) == value for key, value in match.items())


def exposition_value(
    samples: Iterable[tuple[str, dict[str, str], float]],
    name: str,
    match: Mapping[str, str] | None = None,
) -> float | None:
    """Sum of samples called ``name`` whose labels include ``match``.

    Returns None when no sample matches (distinct from a present 0).
    """
    total = 0.0
    found = False
    for sample_name, labels, value in samples:
        if sample_name == name and _labels_match(labels, match or {}):
            total += value
            found = True
    return total if found else None


def exposition_buckets(
    samples: Iterable[tuple[str, dict[str, str], float]],
    name: str,
    match: Mapping[str, str] | None = None,
) -> list[tuple[float, int]]:
    """The cumulative ``(le, count)`` series for one exposed histogram."""
    buckets: list[tuple[float, int]] = []
    for sample_name, labels, value in samples:
        if sample_name != f"{name}_bucket" or "le" not in labels:
            continue
        if not _labels_match(labels, {k: v for k, v in (match or {}).items()}):
            continue
        buckets.append((_parse_value(labels["le"]), int(value)))
    buckets.sort(key=lambda item: item[0])
    return buckets


def bucket_percentile(
    buckets: list[tuple[float, int]], fraction: float
) -> float:
    """The percentile a live :class:`Histogram` would return.

    ``buckets`` is the cumulative series from :func:`exposition_buckets`;
    the total count is the last cumulative value.  Returns 0.0 on an
    empty series.
    """
    if not buckets:
        return 0.0
    total = buckets[-1][1]
    if total <= 0:
        return 0.0
    fraction = min(1.0, max(0.0, fraction))
    target = max(1, math.ceil(fraction * total))
    for bound, cumulative in buckets:
        if cumulative >= target:
            return bound
    return math.inf
