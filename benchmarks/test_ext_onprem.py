"""Extension bench — on-premise fast reasoning (§6 / §3.7.3).

The paper concludes that cloud-API latency limits real-time deployment
and that "on-premise fast reasoning models are critical to overcome the
computational overhead barriers". This bench quantifies that claim with
the ``onprem-fast-sim`` profile: identical policy to Claude-sim, local
sub-second latencies.
"""

from repro.experiments.figures import figure6
from repro.experiments.report import render_overhead_table

MODELS = ("o4-mini-sim", "claude-3.7-sim", "onprem-fast-sim")


def test_onprem_deployment_viability(bench_once):
    data = bench_once(
        figure6, sizes=[20, 60, 100], models=MODELS, workload_seed=0
    )
    print()
    print(
        render_overhead_table(
            data,
            key_label="n_jobs",
            title="On-prem fast reasoning vs cloud profiles "
            "(heterogeneous mix)",
        )
    )

    for n, per_model in data.items():
        onprem = per_model["onprem-fast-sim"]
        claude = per_model["claude-3.7-sim"]
        o4 = per_model["o4-mini-sim"]
        # Same decision quality channel (placements equal the job count
        # for all three — only the latency changes).
        assert onprem["n_accepted_placements"] == n
        # Orders of magnitude less scheduling time than the cloud models.
        assert onprem["elapsed_s"] < claude["elapsed_s"] / 20
        assert onprem["elapsed_s"] < o4["elapsed_s"] / 100

    onprem_100 = data[100]["onprem-fast-sim"]
    # 100 jobs scheduled with ~seconds of total reasoning: the regime
    # the paper calls viable for "increasingly latency sensitive and
    # large-scale HPC applications".
    assert onprem_100["elapsed_s"] < 60.0
    print(
        f"\n100-job total reasoning time: onprem "
        f"{onprem_100['elapsed_s']:.1f}s vs claude "
        f"{data[100]['claude-3.7-sim']['elapsed_s']:.0f}s vs o4 "
        f"{data[100]['o4-mini-sim']['elapsed_s']:.0f}s"
    )
