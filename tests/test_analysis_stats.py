"""Unit tests for distribution statistics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.stats import box_stats, summarize_latencies

#: Samples of 1 to 400 values: continuous at magnitudes of 1e-3 and 1e6,
#: and drawn from a five-value menu so that ties are the rule.
SAMPLES = st.one_of(
    st.lists(st.floats(0.0, 1e-3), min_size=1, max_size=400),
    st.lists(st.floats(0.0, 1e6), min_size=1, max_size=400),
    st.lists(
        st.sampled_from([0.0, 1e-3, 2.5e-3, 1e6, 3.5e6]),
        min_size=1,
        max_size=400,
    ),
)


def _bits(values):
    return [float(v).hex() for v in values]


class TestPercentilesAreNumpys:
    """Both summaries interpolate percentiles by ``np.percentile``'s
    default rule, bit for bit, without calling numpy for them."""

    @settings(max_examples=300, deadline=None)
    @given(values=SAMPLES)
    def test_box_stats_quartiles(self, values):
        bs = box_stats(values)
        assert _bits([bs.q1, bs.median, bs.q3]) == _bits(
            np.percentile(np.asarray(values), [25, 50, 75])
        )

    @settings(max_examples=300, deadline=None)
    @given(values=SAMPLES)
    def test_latency_percentiles(self, values):
        summary = summarize_latencies(values)
        assert _bits(
            [summary.median_s, summary.p90_s, summary.p99_s]
        ) == _bits(np.percentile(np.asarray(values), [50, 90, 99]))


class TestBoxStats:
    def test_simple_distribution(self):
        bs = box_stats([1.0, 2.0, 3.0, 4.0, 5.0])
        assert bs.median == 3.0
        assert bs.q1 == 2.0
        assert bs.q3 == 4.0
        assert bs.n == 5
        assert bs.outliers == ()
        assert bs.whisker_lo == 1.0
        assert bs.whisker_hi == 5.0

    def test_outlier_detection(self):
        values = [1.0] * 10 + [100.0]
        bs = box_stats(values)
        assert bs.outliers == (100.0,)
        assert bs.whisker_hi == 1.0

    def test_iqr(self):
        bs = box_stats([1.0, 2.0, 3.0, 4.0, 5.0])
        assert bs.iqr == 2.0

    def test_mean_std(self):
        bs = box_stats([2.0, 4.0])
        assert bs.mean == 3.0
        assert bs.std == 1.0

    def test_single_value(self):
        bs = box_stats([7.0])
        assert bs.median == 7.0
        assert bs.whisker_lo == bs.whisker_hi == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            box_stats([])

    def test_constant_distribution(self):
        bs = box_stats([5.0] * 20)
        assert bs.median == 5.0
        assert bs.iqr == 0.0
        assert bs.outliers == ()


class TestLatencySummary:
    def test_known_values(self):
        summary = summarize_latencies([1.0, 2.0, 3.0, 4.0])
        assert summary.n_calls == 4
        assert summary.total_s == 10.0
        assert summary.mean_s == 2.5
        assert summary.max_s == 4.0

    def test_over_100s_count(self):
        summary = summarize_latencies([5.0, 150.0, 200.0])
        assert summary.over_100s == 2

    def test_percentiles_ordered(self):
        rng = np.random.default_rng(0)
        summary = summarize_latencies(rng.exponential(10.0, 1000))
        assert summary.median_s <= summary.p90_s <= summary.p99_s <= summary.max_s

    def test_empty(self):
        summary = summarize_latencies([])
        assert summary.n_calls == 0
        assert summary.total_s == 0.0
        assert summary.over_100s == 0
