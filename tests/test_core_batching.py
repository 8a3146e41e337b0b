"""Tests for the agent's plan-ahead (batched) and periodic modes."""

import pytest

from repro.core.agent import create_llm_scheduler
from repro.core.profiles import CLAUDE_37_SIM
from repro.metrics.objectives import compute_metrics
from repro.workloads.generator import generate_workload

from tests.conftest import make_job, run_sim


class TestBasics:
    def test_schedules_everything(self):
        jobs = generate_workload("heterogeneous_mix", 25, seed=1)
        agent = create_llm_scheduler(batch_size=4, seed=0)
        result = run_sim(jobs, agent)
        assert len(result.records) == 25

    def test_batch_size_one_allowed(self):
        jobs = generate_workload("resource_sparse", 8, seed=0)
        agent = create_llm_scheduler(batch_size=1, seed=0)
        result = run_sim(jobs, agent)
        assert len(result.records) == 8

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            create_llm_scheduler(CLAUDE_37_SIM, batch_size=0)

    def test_negative_cooldown_rejected(self):
        with pytest.raises(ValueError, match="delay_cooldown_s"):
            create_llm_scheduler(delay_cooldown_s=-1.0)

    def test_name_encodes_batch(self):
        agent = create_llm_scheduler("o4-mini-sim", batch_size=8)
        assert agent.name == "o4-mini-sim-batch8"

    def test_deterministic(self):
        jobs = generate_workload("heterogeneous_mix", 20, seed=2)
        a = run_sim(jobs, create_llm_scheduler(batch_size=4, seed=5))
        b = run_sim(jobs, create_llm_scheduler(batch_size=4, seed=5))
        assert {r.job.job_id: r.start_time for r in a.records} == {
            r.job.job_id: r.start_time for r in b.records
        }


class TestCallReduction:
    def test_fewer_placement_calls_than_per_decision_agent(self):
        jobs = generate_workload(
            "heterogeneous_mix", 40, seed=3, arrival_mode="zero"
        )
        single = run_sim(jobs, create_llm_scheduler("claude-3.7-sim", seed=0))
        batched = run_sim(
            jobs, create_llm_scheduler(batch_size=8, seed=0)
        )

        def placements(result):
            return sum(
                1 for c in result.extras["llm_calls"] if c.is_placement
            )

        assert placements(batched) < placements(single) / 2
        assert len(batched.extras["llm_calls"]) < len(
            single.extras["llm_calls"]
        )

    def test_delay_cooldown_suppresses_saturation_calls(self):
        jobs = generate_workload(
            "heterogeneous_mix", 40, seed=3, arrival_mode="zero"
        )
        plain = run_sim(
            jobs, create_llm_scheduler(batch_size=8, seed=0)
        )
        periodic = run_sim(
            jobs,
            create_llm_scheduler(
                batch_size=8, delay_cooldown_s=300.0, seed=0
            ),
        )
        assert len(periodic.extras["llm_calls"]) < len(
            plain.extras["llm_calls"]
        )
        assert len(periodic.records) == 40

    def test_batch_of_one_call_count_comparable(self):
        jobs = generate_workload(
            "heterogeneous_mix", 15, seed=3, arrival_mode="zero"
        )
        batched = run_sim(
            jobs, create_llm_scheduler(batch_size=1, seed=0)
        )
        assert len(batched.extras["llm_calls"]) >= 15


class TestBatchInvalidation:
    def test_new_arrivals_invalidate_batch(self):
        # Jobs trickle in: each arrival changes the queue beyond the
        # plan's own placements, so batches must be replanned.
        jobs = [
            make_job(i, submit=i * 100.0, duration=50.0, nodes=2)
            for i in range(1, 8)
        ]
        agent = create_llm_scheduler(batch_size=4, seed=0)
        result = run_sim(jobs, agent, nodes=8, memory=64.0)
        assert len(result.records) == 7
        result.verify_capacity()

    def test_rejection_drops_plan(self):
        profile = CLAUDE_37_SIM.with_hallucination_rate(0.5)
        jobs = generate_workload("high_parallelism", 20, seed=4)
        agent = create_llm_scheduler(profile, batch_size=4, seed=1)
        result = run_sim(jobs, agent)
        assert len(result.records) == 20
        result.verify_capacity()


class TestQuality:
    def test_schedule_quality_close_to_per_decision(self):
        """Batching trades staleness for calls; the schedule should stay
        in the same quality band as the per-decision agent."""
        jobs = generate_workload("heterogeneous_mix", 40, seed=5)
        single = compute_metrics(
            run_sim(jobs, create_llm_scheduler("claude-3.7-sim", seed=0))
        )
        batched = compute_metrics(
            run_sim(jobs, create_llm_scheduler(batch_size=4, seed=0))
        )
        assert batched["makespan"] <= single["makespan"] * 1.15
        assert batched["node_utilization"] >= single["node_utilization"] * 0.85
