"""Unit tests for the annealing optimizer (OR-Tools substitute)."""

import pytest

from repro.metrics.objectives import compute_metrics
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.optimizer import AnnealingConfig, AnnealingOptimizer
from repro.sim.actions import ActionKind
from repro.workloads.generator import generate_workload

from tests.conftest import make_job, run_sim


class TestBasicBehaviour:
    def test_schedules_everything(self):
        jobs = [make_job(i, duration=10.0 * i, nodes=i) for i in range(1, 6)]
        result = run_sim(jobs, AnnealingOptimizer(seed=0), nodes=8, memory=64.0)
        assert len(result.records) == 5

    def test_deterministic_under_seed(self):
        jobs = generate_workload("heterogeneous_mix", 30, seed=2)
        a = run_sim(jobs, AnnealingOptimizer(seed=9))
        b = run_sim(jobs, AnnealingOptimizer(seed=9))
        assert {r.job.job_id: r.start_time for r in a.records} == {
            r.job.job_id: r.start_time for r in b.records
        }

    def test_only_a_start_reports_its_planned_start(self):
        # A Delay decided after a StartJob used to hand on that start's
        # ``planned_start``; metadata now begins empty at every decide.
        jobs = [make_job(i, duration=50.0, nodes=5) for i in range(1, 4)]
        result = run_sim(jobs, AnnealingOptimizer(seed=0), nodes=8, memory=64.0)
        delays = [d for d in result.decisions if d.action.kind is ActionKind.DELAY]
        starts = [d for d in result.decisions if d.action.kind is ActionKind.START]
        assert delays and len(starts) == 3
        assert all(d.meta == {} for d in delays)
        assert all(set(d.meta) == {"planned_start"} for d in starts)

    def test_never_beats_capacity(self):
        jobs = generate_workload("high_parallelism", 30, seed=4)
        result = run_sim(jobs, AnnealingOptimizer(seed=1))
        result.verify_capacity()


class TestOptimization:
    def test_at_least_matches_fcfs_makespan_static(self):
        # With all jobs at t=0 the optimizer should never lose to FCFS
        # on makespan (it can always reproduce arrival order).
        jobs = generate_workload(
            "heterogeneous_mix", 40, seed=5, arrival_mode="zero"
        )
        fcfs = compute_metrics(run_sim(jobs, FCFSScheduler()))
        opt = compute_metrics(run_sim(jobs, AnnealingOptimizer(seed=0)))
        assert opt["makespan"] <= fcfs["makespan"] * 1.01

    def test_improves_contended_makespan(self):
        # Crafted pathological FCFS order: big job blocks small ones.
        jobs = [
            make_job(1, duration=100.0, nodes=5),
            make_job(2, duration=100.0, nodes=4),
            make_job(3, duration=100.0, nodes=3),
            make_job(4, duration=100.0, nodes=4),
        ]
        fcfs = compute_metrics(run_sim(jobs, FCFSScheduler(), nodes=8, memory=64.0))
        opt = compute_metrics(
            run_sim(jobs, AnnealingOptimizer(seed=0), nodes=8, memory=64.0)
        )
        # Optimal pairing (5+3, 4+4) finishes in 200; FCFS serial order
        # (5 | 4+3 | 4) needs 300.
        assert fcfs["makespan"] == pytest.approx(300.0)
        assert opt["makespan"] == pytest.approx(200.0)


class TestReplanning:
    def test_replans_on_arrivals(self):
        jobs = [
            make_job(1, submit=0.0, duration=50.0, nodes=4),
            make_job(2, submit=10.0, duration=10.0, nodes=4),
            make_job(3, submit=20.0, duration=10.0, nodes=4),
        ]
        sched = AnnealingOptimizer(seed=0)
        result = run_sim(jobs, sched, nodes=8, memory=64.0)
        assert result.extras["replans"] >= 2

    def test_plan_stats_recorded(self):
        jobs = generate_workload("heterogeneous_mix", 20, seed=1)
        sched = AnnealingOptimizer(seed=0)
        result = run_sim(jobs, sched)
        stats = result.extras["plan_stats"]
        assert stats
        assert all(s.final_objective <= s.initial_objective + 1e-9 for s in stats)


class TestConfig:
    def test_iterations_scale_with_queue(self):
        config = AnnealingConfig(
            base_iterations=10, per_job_iterations=2, max_iterations=50
        )
        assert config.iterations_for(5) == 20
        assert config.iterations_for(1000) == 50

    def test_custom_config_used(self):
        jobs = generate_workload("heterogeneous_mix", 15, seed=0)
        sched = AnnealingOptimizer(
            seed=0, config=AnnealingConfig(base_iterations=1, per_job_iterations=0)
        )
        result = run_sim(jobs, sched)
        assert len(result.records) == 15
