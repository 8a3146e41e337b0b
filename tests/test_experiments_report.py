"""Unit tests for ASCII report rendering."""

import math

from repro.analysis.stats import box_stats
from repro.experiments.report import (
    format_table,
    render_figure3,
    render_figure7,
    render_figure8,
    render_normalized_block,
    render_overhead_table,
)
from dataclasses import asdict

from repro.analysis.stats import summarize_latencies
from repro.metrics.objectives import METRIC_NAMES


def block(value=1.0):
    return {
        "fcfs": {m: 1.0 for m in METRIC_NAMES},
        "sjf": {m: value for m in METRIC_NAMES},
    }


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bb"], [["xxx", "y"], ["z", "wwww"]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, separator, 2 rows
        assert all(len(l) == len(lines[0]) for l in lines[1:2])

    def test_header_separator(self):
        text = format_table(["col"], [["val"]])
        assert "---" in text.splitlines()[1]


class TestNormalizedBlock:
    def test_contains_schedulers_and_title(self):
        text = render_normalized_block(block(0.5), "my title")
        assert "my title" in text
        assert "fcfs" in text
        assert "sjf" in text
        assert "0.500" in text

    def test_nan_rendered_as_dash(self):
        data = block()
        data["sjf"]["avg_wait_time"] = math.nan
        text = render_normalized_block(data, "t")
        assert "—" in text

    def test_inf_rendered(self):
        data = block()
        data["sjf"]["avg_wait_time"] = math.inf
        assert "inf" in render_normalized_block(data, "t")


class TestFigureRenderers:
    def test_figure3(self):
        text = render_figure3(
            {"adversarial": block(), "bursty_idle": block()}, n_jobs=60
        )
        assert "adversarial" in text
        assert "bursty_idle" in text

    def test_figure7(self):
        data = {"fcfs": {m: box_stats([1.0, 1.0, 1.0]) for m in METRIC_NAMES}}
        text = render_figure7(data, n_jobs=100, n_repeats=5)
        assert "median" in text
        assert "fcfs" in text

    def test_figure8(self):
        assert "Polaris" in render_figure8(block(), n_jobs=100)

    def test_overhead_table(self):
        # A cell's stored overhead record (``StoredRun.overhead``).
        ov = {
            "model": "claude-3.7-sim",
            "elapsed_s": 100.0,
            "n_calls": 20,
            "n_accepted_placements": 15,
            "n_rejected": 1,
            "latency": asdict(summarize_latencies([5.0] * 15)),
        }
        text = render_overhead_table(
            {"scenario_x": {"claude-3.7-sim": ov}},
            key_label="scenario",
            title="test",
        )
        assert "scenario_x" in text
        assert "100.0" in text
        assert "claude-3.7-sim" in text
