"""Figure 7 — statistical robustness over 5 repetitions.

Heterogeneous Mix with 100 jobs, 5 independent runs per method,
normalized to FCFS. Prints box-plot statistics per scheduler × metric
and asserts §4: deterministic heuristics are flat; LLM agents show
tight variance bounds with consistent improvements; no LLM outliers on
the negative metrics.
"""

from repro.experiments.figures import figure7
from repro.experiments.report import render_figure7

NEGATIVE_METRICS = ("makespan", "avg_wait_time", "avg_turnaround_time")


def test_fig7_robustness(bench_once):
    data = bench_once(figure7, n_jobs=100, n_repeats=5, workload_seed=0)
    print()
    print(render_figure7(data, n_jobs=100, n_repeats=5))

    # FCFS and SJF are deterministic → zero spread on every metric.
    for name in ("fcfs", "sjf"):
        for metric, bs in data[name].items():
            assert bs.iqr == 0.0, (name, metric)
            assert bs.whisker_lo == bs.whisker_hi

    for model in ("claude-3.7-sim", "o4-mini-sim"):
        stats = data[model]
        # Tight variance bounds across repetitions (relative IQR).
        for metric in ("makespan", "throughput", "node_utilization"):
            bs = stats[metric]
            assert bs.iqr <= 0.15 * max(abs(bs.median), 1e-9), (model, metric)
        # Consistent improvements over FCFS on the latency metrics.
        assert stats["avg_wait_time"].median < 0.9
        assert stats["avg_turnaround_time"].median < 0.9
        # No outliers on negative metrics (paper: "no significant
        # outliers ... suggesting robustness of the ReAct framework").
        for metric in NEGATIVE_METRICS:
            assert len(stats[metric].outliers) <= 1, (model, metric)
