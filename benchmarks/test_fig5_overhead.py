"""Figure 5 — computational overhead per scenario (60 jobs).

Prints elapsed time, call counts and latency distributions for both
simulated models on every Fig. 3 scenario, restricted to accepted
placements (§3.7.1), and asserts the paper's observations: Claude-sim
is several-fold faster end-to-end with tightly clustered sub-10s call
latencies; O4-Mini-sim shows high variance with >100 s outliers on
complex workloads; call counts track job counts for both.
"""

from repro.experiments.figures import figure5
from repro.experiments.report import render_overhead_table


def test_fig5_overhead_per_scenario(bench_once):
    data = bench_once(figure5, n_jobs=60, workload_seed=0, scheduler_seed=0)
    print()
    print(
        render_overhead_table(
            data,
            key_label="scenario",
            title="Figure 5 — overhead per scenario (60 jobs)",
        )
    )

    speedups = []
    for scenario, per_model in data.items():
        claude = per_model["claude-3.7-sim"]
        o4 = per_model["o4-mini-sim"]
        # Placement counts equal the job count for both models
        # (call-count parity: runtime differences are per-call latency).
        assert claude["n_accepted_placements"] == 60
        assert o4["n_accepted_placements"] == 60
        # Claude-sim is faster end-to-end in every scenario.
        assert claude["elapsed_s"] < o4["elapsed_s"], scenario
        speedups.append(o4["elapsed_s"] / claude["elapsed_s"])
        # Claude-sim latencies cluster tightly (p90 ≈ 10s).
        assert claude["latency"]["p90_s"] < 15.0, scenario
        assert claude["latency"]["over_100s"] == 0, scenario

    # Multi-fold end-to-end advantage (paper: up to ~7×).
    assert max(speedups) > 3.0

    # O4-Mini-sim exhibits >100s outliers somewhere in the suite.
    assert any(
        per_model["o4-mini-sim"]["latency"]["max_s"] > 100.0
        for per_model in data.values()
    )
