"""Unit tests for FCFS normalization."""

import math

import pytest

from repro.metrics.normalize import (
    HIGHER_BETTER,
    LOWER_BETTER,
    normalize_to_baseline,
)
from repro.metrics.objectives import METRIC_NAMES


class TestNormalize:
    def test_simple_ratio(self):
        out = normalize_to_baseline({"makespan": 50.0}, {"makespan": 100.0})
        assert out["makespan"] == pytest.approx(0.5)

    def test_zero_over_zero_is_nan(self):
        out = normalize_to_baseline({"avg_wait_time": 0.0}, {"avg_wait_time": 0.0})
        assert math.isnan(out["avg_wait_time"])

    def test_nonzero_over_zero_is_inf(self):
        out = normalize_to_baseline({"avg_wait_time": 5.0}, {"avg_wait_time": 0.0})
        assert math.isinf(out["avg_wait_time"])

    def test_missing_baseline_key_raises(self):
        with pytest.raises(KeyError):
            normalize_to_baseline({"makespan": 1.0}, {})

    def test_baseline_self_normalizes_to_one(self):
        values = {m: 3.0 for m in METRIC_NAMES}
        out = normalize_to_baseline(values, values)
        assert all(v == pytest.approx(1.0) for v in out.values())


class TestOrientation:
    def test_every_metric_classified(self):
        from repro.metrics.disruption import DISRUPTION_METRIC_NAMES

        assert (
            set(METRIC_NAMES) | set(DISRUPTION_METRIC_NAMES)
            == LOWER_BETTER | HIGHER_BETTER
        )
        assert not (LOWER_BETTER & HIGHER_BETTER)
