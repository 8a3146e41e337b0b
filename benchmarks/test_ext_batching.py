"""Extension bench — plan-ahead batching vs. per-decision calls.

Quantifies the §3.7.3 deployment mitigation: how much of the LLM call
overhead does planning k placements per call recover, and what does it
cost in schedule quality?
"""

from repro.core.agent import create_llm_scheduler
from repro.metrics.objectives import compute_metrics
from repro.sim.simulator import HPCSimulator
from repro.workloads.generator import generate_workload


def test_batching_overhead_reduction(bench_once):
    def experiment():
        jobs = generate_workload("heterogeneous_mix", 60, seed=0)
        rows = {}
        for label, agent in (
            ("per-decision", create_llm_scheduler("o4-mini-sim", seed=0)),
            ("batch=4", create_llm_scheduler(
                "o4-mini-sim", batch_size=4, seed=0)),
            ("batch=8", create_llm_scheduler(
                "o4-mini-sim", batch_size=8, seed=0)),
            ("batch=8+cooldown", create_llm_scheduler(
                "o4-mini-sim", batch_size=8, delay_cooldown_s=300.0,
                seed=0)),
        ):
            result = HPCSimulator(jobs=jobs, scheduler=agent).run()
            result.verify_capacity()
            calls = result.extras["llm_calls"]
            elapsed = sum(c.latency_s for c in calls if c.accepted)
            report = compute_metrics(result)
            rows[label] = (
                len(calls),
                elapsed,
                report["makespan"],
                report["node_utilization"],
            )
        return rows

    rows = bench_once(experiment)
    print(f"\n{'mode':14s} {'calls':>6s} {'elapsed_s':>10s} "
          f"{'makespan':>10s} {'util':>6s}")
    for label, (calls, elapsed, makespan, util) in rows.items():
        print(f"{label:14s} {calls:>6d} {elapsed:>10.0f} "
              f"{makespan:>10.0f} {util:>6.3f}")

    base_calls, base_elapsed, base_makespan, _ = rows["per-decision"]
    b8_calls, b8_elapsed, b8_makespan, _ = rows["batch=8"]
    pc_calls, pc_elapsed, pc_makespan, _ = rows["batch=8+cooldown"]
    # Batching cuts calls and total reasoning latency...
    assert b8_calls < base_calls * 0.9
    assert b8_elapsed < base_elapsed * 0.8
    # ...the periodic (cooldown) mode cuts further...
    assert pc_calls <= b8_calls
    # ...without wrecking schedule quality.
    assert b8_makespan <= base_makespan * 1.2
    assert pc_makespan <= base_makespan * 1.3
