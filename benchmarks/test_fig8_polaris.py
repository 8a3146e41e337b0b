"""Figure 8 — evaluation on the Polaris trace substitute.

100 preprocessed jobs on the 560-node × 512 GB partition, assumed idle
at t=0 (§5). Prints the normalized block and asserts the paper's
claims: LLM schedulers substantially improve wait and turnaround time
(comparable to SJF or better), while resource utilization and
throughput stay on par with every baseline.
"""

import math

from repro.experiments.figures import figure8
from repro.experiments.report import render_figure8


def test_fig8_polaris_trace(bench_once):
    data = bench_once(figure8, n_jobs=100, trace_seed=2024, scheduler_seed=0)
    print()
    print(render_figure8(data, n_jobs=100))

    llms = ("claude-3.7-sim", "o4-mini-sim")
    for model in llms:
        metrics = data[model]
        # Substantial wait/turnaround improvement over FCFS...
        assert metrics["avg_wait_time"] < 0.95
        assert metrics["avg_turnaround_time"] <= 1.0
        # ...at least comparable to (not far behind) SJF.
        assert metrics["avg_wait_time"] <= data["sjf"]["avg_wait_time"] * 1.2
        # System efficiency preserved: utilization and throughput on
        # par with the baselines (±10%).
        for metric in ("node_utilization", "memory_utilization", "throughput"):
            assert 0.9 <= metrics[metric] <= 1.15, (model, metric)

    # Every scheduler preserves makespan within a few percent (the
    # trace's span is arrival-dominated).
    for sched, metrics in data.items():
        if not math.isnan(metrics["makespan"]):
            assert 0.9 <= metrics["makespan"] <= 1.1, sched
