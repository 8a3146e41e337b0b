"""Figure 3 — normalized metrics across six scenarios, 60 jobs each.

Prints one normalized block per scenario (FCFS = 1.0) and asserts the
paper's qualitative observations (§3.5):

* Long-Job-Dominant: heuristics suffer the convoy effect; the LLM
  agents and the optimizer cut wait/turnaround times well below FCFS.
* High Parallelism: optimization- and reasoning-based packing achieve
  the highest utilization/throughput; heuristics trail.
* Adversarial and Homogeneous-Short/Resource-Sparse: flattened
  differences — every method performs nearly identically.
"""

import math

from repro.experiments.figures import figure3
from repro.experiments.report import render_figure3


def test_fig3_six_scenarios(bench_once):
    data = bench_once(figure3, n_jobs=60, workload_seed=0, scheduler_seed=0)
    print()
    print(render_figure3(data, n_jobs=60))

    llms = ("claude-3.7-sim", "o4-mini-sim")

    # Long-Job-Dominant: LLMs dramatically reduce wait & turnaround.
    ljd = data["long_job_dominant"]
    for model in llms:
        assert ljd[model]["avg_wait_time"] < 0.8
        assert ljd[model]["avg_turnaround_time"] < 0.8

    # High Parallelism: optimizer and LLMs at or above FCFS utilization.
    hp = data["high_parallelism"]
    assert hp["ortools_like"]["node_utilization"] >= 0.99
    for model in llms:
        assert hp[model]["node_utilization"] >= 0.95

    # Adversarial: flattened differences (all within a few percent).
    adv = data["adversarial"]
    for sched, metrics in adv.items():
        for metric, value in metrics.items():
            if math.isnan(value):
                continue
            assert 0.9 <= value <= 1.1, (sched, metric, value)

    # Homogeneous Short / Resource Sparse: near-uniform performance.
    for scenario in ("homogeneous_short", "resource_sparse"):
        for sched, metrics in data[scenario].items():
            for metric, value in metrics.items():
                if math.isnan(value):
                    continue
                assert 0.8 <= value <= 1.25, (scenario, sched, metric, value)
