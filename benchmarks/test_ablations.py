"""Ablation benches for the design choices :mod:`repro.core` names.

Not paper figures — these quantify how much each architectural piece
of the ReAct agent contributes:

* scratchpad feedback memory → fewer repeated infeasible proposals;
* constraint enforcement → violations never reach the cluster;
* the backfill action → Long-Job-Dominant wait times;
* annealing iterations → optimizer plan quality;
* fairness weight sweep → the fairness/utilization trade-off surface.
"""

import numpy as np

from repro.core.agent import create_llm_scheduler
from repro.core.profiles import CLAUDE_37_SIM
from repro.metrics.objectives import compute_metrics
from repro.schedulers.optimizer import AnnealingConfig, AnnealingOptimizer
from repro.sim.simulator import HPCSimulator
from repro.workloads.generator import generate_workload


def run(jobs, scheduler):
    result = HPCSimulator(jobs=jobs, scheduler=scheduler).run()
    result.verify_capacity()
    return result


def test_ablation_feedback_memory_prevents_repeats(bench_once):
    """With the scratchpad feedback loop, a rejected job is never
    re-proposed at the same timestep — the §2.4 correction mechanism."""

    def experiment():
        jobs = generate_workload("high_parallelism", 30, seed=0)
        agent = create_llm_scheduler(
            "claude-3.7-sim", seed=0, hallucination_rate=0.5
        )
        result = run(jobs, agent)
        repeats = 0
        rejected_at: dict[float, set[int]] = {}
        for d in result.decisions:
            if d.action.places_job:
                seen = rejected_at.setdefault(d.time, set())
                if not d.accepted:
                    if d.action.job_id in seen:
                        repeats += 1
                    seen.add(d.action.job_id)
        return result, repeats

    result, repeats = bench_once(experiment)
    assert any(not d.accepted for d in result.decisions)  # loop exercised
    assert repeats == 0
    print(f"\nrejected proposals: {len(result.rejected_decisions)}, "
          f"same-timestep repeats: {repeats}")


def test_ablation_constraint_enforcement_blocks_all_violations(bench_once):
    """Even a heavily hallucinating agent never oversubscribes the
    cluster — enforcement, not model quality, carries safety."""

    def experiment():
        jobs = generate_workload("heterogeneous_mix", 40, seed=1)
        agent = create_llm_scheduler(
            "o4-mini-sim", seed=1, hallucination_rate=0.8
        )
        return run(jobs, agent)

    result = bench_once(experiment)
    result.verify_capacity()  # would raise on any violation
    assert len(result.records) == 40
    print(f"\nhallucination stress: {len(result.rejected_decisions)} "
          "rejected proposals, 0 capacity violations")


def test_ablation_annealing_iterations(bench_once):
    """More annealing improves (or at least never worsens) the plan
    objective; the default budget captures most of the benefit."""

    def experiment():
        jobs = generate_workload(
            "heterogeneous_mix", 50, seed=2, arrival_mode="zero"
        )
        makespans = {}
        for iters in (0, 50, 400):
            config = AnnealingConfig(
                base_iterations=iters, per_job_iterations=0,
                max_iterations=iters,
            )
            sched = AnnealingOptimizer(seed=3, config=config)
            makespans[iters] = compute_metrics(run(jobs, sched))["makespan"]
        return makespans

    makespans = bench_once(experiment)
    print(f"\nmakespan by annealing iterations: {makespans}")
    assert makespans[400] <= makespans[0] * 1.001


def test_ablation_fairness_weight_sweep(bench_once):
    """Raising the policy's fairness weight (and lowering its
    starvation patience) trades utilization for wait-time fairness —
    the surface the paper's prompt explicitly asks the model to
    balance."""

    def experiment():
        jobs = generate_workload("heterogeneous_mix", 60, seed=3)
        out = {}
        for label, patience, fairness in (
            ("efficiency-leaning", 50.0, 0.05),
            ("balanced", 0.3, 0.24),
            ("fairness-leaning", 0.15, 0.6),
        ):
            profile = CLAUDE_37_SIM.with_weights(
                fairness=fairness, starvation_patience=patience
            )
            agent = create_llm_scheduler(profile, seed=4)
            report = compute_metrics(run(jobs, agent))
            out[label] = (
                report["wait_fairness"],
                report["node_utilization"],
            )
        return out

    out = bench_once(experiment)
    print("\nfairness weight sweep (wait_fairness, node_utilization):")
    for label, pair in out.items():
        print(f"  {label:20s} fairness={pair[0]:.3f} util={pair[1]:.3f}")
    # Fairness-leaning configuration achieves the best wait fairness.
    assert out["fairness-leaning"][0] >= out["efficiency-leaning"][0]


def test_ablation_scratchpad_window(bench_once):
    """A small scratchpad window does not change scheduling outcomes
    for these queue depths (the policy needs only same-timestep
    feedback), but keeps prompt sizes bounded."""

    def experiment():
        jobs = generate_workload("bursty_idle", 36, seed=5)
        outcomes = {}
        prompts = {}
        for window in (4, None):
            agent = create_llm_scheduler(
                "claude-3.7-sim", seed=6, scratchpad_window=window
            )
            result = run(jobs, agent)
            outcomes[window] = {
                r.job.job_id: r.start_time for r in result.records
            }
            prompts[window] = max(
                c.input_tokens for c in result.extras["llm_calls"]
            )
        return outcomes, prompts

    outcomes, prompts = bench_once(experiment)
    assert outcomes[4] == outcomes[None]
    assert prompts[4] <= prompts[None]
    print(f"\nmax prompt tokens: window=4 → {prompts[4]}, "
          f"unbounded → {prompts[None]}")
