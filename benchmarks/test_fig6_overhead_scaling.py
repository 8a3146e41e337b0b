"""Figure 6 — overhead scaling with queue size (Heterogeneous Mix).

Prints the elapsed-time/call-count/latency series for 10–100 jobs and
asserts §3.7.2/§3.7.3: call counts scale linearly with job count for
both models; Claude-sim's total elapsed time grows near-linearly while
O4-Mini-sim grows superlinearly with heavy-tailed outliers; at 100
jobs the gap is several-fold (paper: ~4 000–7 000 s vs ~700 s).
"""


from repro.experiments.figures import figure6
from repro.experiments.report import render_overhead_table

SIZES = [10, 20, 40, 60, 80, 100]


def test_fig6_overhead_scaling(bench_once):
    data = bench_once(figure6, sizes=SIZES, workload_seed=0, scheduler_seed=0)
    print()
    print(
        render_overhead_table(
            data,
            key_label="n_jobs",
            title="Figure 6 — overhead scaling (heterogeneous mix)",
        )
    )

    for model in ("claude-3.7-sim", "o4-mini-sim"):
        placements = [data[n][model]["n_accepted_placements"] for n in SIZES]
        # Linear call scaling: placements == job count at every size.
        assert placements == SIZES, model
        elapsed = [data[n][model]["elapsed_s"] for n in SIZES]
        # Monotonic-ish growth (allow one local dip from stochastic draws).
        dips = sum(1 for a, b in zip(elapsed, elapsed[1:]) if b < a)
        assert dips <= 1, (model, elapsed)

    claude_100 = data[100]["claude-3.7-sim"]
    o4_100 = data[100]["o4-mini-sim"]
    # Several-fold end-to-end gap at 100 jobs.
    assert o4_100["elapsed_s"] > 3.0 * claude_100["elapsed_s"]

    # Superlinearity check: o4's per-job cost grows with scale while
    # claude's stays roughly flat.
    o4_per_job_small = data[10]["o4-mini-sim"]["elapsed_s"] / 10
    o4_per_job_large = o4_100["elapsed_s"] / 100
    assert o4_per_job_large > 1.5 * o4_per_job_small
    claude_per_job_small = data[10]["claude-3.7-sim"]["elapsed_s"] / 10
    claude_per_job_large = claude_100["elapsed_s"] / 100
    assert claude_per_job_large < 2.5 * claude_per_job_small

    # Deployment-implication summary (§3.7.3).
    print(
        f"\n§3.7.3 summary: at 100 jobs, o4-mini-sim total scheduling time "
        f"{o4_100['elapsed_s']:.0f}s vs claude-3.7-sim "
        f"{claude_100['elapsed_s']:.0f}s "
        f"({o4_100['elapsed_s'] / claude_100['elapsed_s']:.1f}x); "
        f"o4 outliers >100s: {o4_100['latency']['over_100s']}"
    )
