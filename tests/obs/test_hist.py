"""The shared log-linear histogram and its text exposition.

The load-bearing property throughout: percentiles are bucket bounds,
so a histogram rebuilt anywhere -- merged, serialised, or parsed back
from exposition text -- answers bit-identically.
"""

import math

import pytest

from repro.obs.hist import (
    Histogram,
    bucket_percentile,
    exposition_buckets,
    exposition_value,
    format_le,
    histogram_lines,
    metric_line,
    parse_exposition,
)


class TestBucketScheme:
    def test_bounds_are_shared_per_scheme(self):
        assert Histogram().bounds is Histogram().bounds

    def test_bounds_ascend(self):
        bounds = Histogram().bounds
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_relative_error_bounded_by_subbuckets(self):
        hist = Histogram()
        for value in (1e-5, 0.00123, 0.5, 3.7, 999.0, 123456.0):
            upper = hist.bucket_upper(hist.bucket_index(value))
            assert value <= upper <= value * (1 + 1.0 / hist.subbuckets) * 1.001

    def test_invalid_schemes_rejected(self):
        with pytest.raises(ValueError):
            Histogram(lowest=0)
        with pytest.raises(ValueError):
            Histogram(lowest=10, highest=1)
        with pytest.raises(ValueError):
            Histogram(subbuckets=0)


class TestRecording:
    def test_empty_percentile_is_zero(self):
        assert Histogram().percentile(0.99) == 0.0

    def test_negative_clamps_to_zero(self):
        hist = Histogram.from_values([-5.0])
        assert hist.min_value == 0.0
        assert hist.count == 1

    def test_overflow_bucket(self):
        hist = Histogram.from_values([1e9])
        assert hist.percentile(0.5) == math.inf

    def test_percentile_is_upper_bound_of_nearest_rank_bucket(self):
        values = [0.001 * (i + 1) for i in range(100)]
        hist = Histogram.from_values(values)
        p99 = hist.percentile(0.99)
        # The 99th smallest sample is 0.099; its bucket bound covers it.
        assert 0.099 <= p99 <= 0.099 * 1.126
        assert p99 in hist.bounds

    def test_mean_and_extremes_exact(self):
        hist = Histogram.from_values([1.0, 2.0, 3.0])
        assert hist.mean == 2.0
        assert hist.min_value == 1.0
        assert hist.max_value == 3.0

    def test_merge_equals_single_histogram(self):
        left = Histogram.from_values([0.01, 0.02])
        right = Histogram.from_values([0.5, 7.0, 0.0001])
        left.merge(right)
        combined = Histogram.from_values([0.01, 0.02, 0.5, 7.0, 0.0001])
        assert left.counts == combined.counts
        assert left.percentile(0.95) == combined.percentile(0.95)

    def test_merge_rejects_different_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            Histogram().merge(Histogram(subbuckets=4))


class TestExposition:
    def test_metric_line_formats(self):
        assert metric_line("x_total", 3) == "x_total 3"
        line = metric_line("x", 1.5, {"kind": "study"})
        assert line == 'x{kind="study"} 1.5'

    def test_histogram_lines_end_with_inf_sum_count(self):
        hist = Histogram.from_values([0.01, 0.02, 5.0])
        lines = histogram_lines("lat", hist, {"kind": "ping"})
        assert lines[-3].endswith(" 3") and 'le="+Inf"' in lines[-3]
        assert lines[-2].startswith("lat_sum")
        assert lines[-1].startswith("lat_count")

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_exposition("this is { not a metric")

    def test_parse_skips_comments_and_blanks(self):
        samples = parse_exposition("# TYPE x counter\n\nx_total 4\n")
        assert samples == [("x_total", {}, 4.0)]

    def test_label_escaping_round_trip(self):
        line = metric_line("x", 1, {"msg": 'a"b\\c\nd'})
        ((_, labels, _),) = parse_exposition(line)
        assert labels["msg"] == 'a"b\\c\nd'

    def test_exposition_value_none_vs_zero(self):
        samples = parse_exposition("x_total 0")
        assert exposition_value(samples, "x_total") == 0.0
        assert exposition_value(samples, "y_total") is None

    def test_percentile_round_trips_through_text_bit_identically(self):
        values = [0.00012, 0.0034, 0.0034, 0.08, 0.081, 1.9, 44.0]
        hist = Histogram.from_values(values)
        text = "\n".join(histogram_lines("lat", hist, {"kind": "study"}))
        buckets = exposition_buckets(
            parse_exposition(text), "lat", {"kind": "study"}
        )
        for fraction in (0.5, 0.9, 0.95, 0.99, 1.0):
            assert bucket_percentile(buckets, fraction) == hist.percentile(fraction)

    def test_bucket_percentile_empty(self):
        assert bucket_percentile([], 0.5) == 0.0

    def test_format_le_round_trips_floats(self):
        for bound in Histogram().bounds[:40]:
            assert float(format_le(bound)) == bound
        assert format_le(math.inf) == "+Inf"
