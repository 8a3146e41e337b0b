"""Unit tests for ablation heuristics."""

from repro.schedulers.heuristics import FirstFitScheduler, LargestFirstScheduler

from tests.conftest import make_job, run_sim
from tests.random_policy import RandomScheduler


class TestFirstFit:
    def test_skips_blocked_head(self):
        jobs = [
            make_job(1, submit=0.0, duration=100.0, nodes=6),
            make_job(2, submit=1.0, duration=10.0, nodes=8),
            make_job(3, submit=2.0, duration=5.0, nodes=1),
        ]
        result = run_sim(jobs, FirstFitScheduler(), nodes=8, memory=64.0)
        assert result.record_for(3).start_time == 2.0

    def test_prefers_queue_order_among_feasible(self):
        jobs = [
            make_job(1, duration=10.0, nodes=8),
            make_job(2, duration=1.0, nodes=8),
        ]
        result = run_sim(jobs, FirstFitScheduler(), nodes=8, memory=64.0)
        assert result.record_for(1).start_time == 0.0


class TestLargestFirst:
    def test_picks_biggest_footprint(self):
        jobs = [
            make_job(1, duration=10.0, nodes=1),    # 10 node-s
            make_job(2, duration=10.0, nodes=8),    # 80 node-s
            make_job(3, duration=100.0, nodes=2),   # 200 node-s
        ]
        result = run_sim(jobs, LargestFirstScheduler(), nodes=8, memory=64.0)
        assert result.record_for(3).start_time == 0.0

    def test_falls_back_to_feasible(self):
        jobs = [
            make_job(1, submit=0.0, duration=50.0, nodes=6),
            make_job(2, submit=1.0, duration=100.0, nodes=8),  # infeasible now
            make_job(3, submit=1.0, duration=10.0, nodes=2),
        ]
        result = run_sim(jobs, LargestFirstScheduler(), nodes=8, memory=64.0)
        assert result.record_for(3).start_time == 1.0


class TestRandom:
    def test_deterministic_under_seed(self):
        jobs = [make_job(i, duration=10.0, nodes=2) for i in range(1, 10)]
        a = run_sim(jobs, RandomScheduler(seed=5), nodes=4, memory=64.0)
        b = run_sim(jobs, RandomScheduler(seed=5), nodes=4, memory=64.0)
        assert [r.job.job_id for r in a.records] == [
            r.job.job_id for r in b.records
        ]

    def test_reset_restores_stream(self):
        jobs = [make_job(i, duration=10.0, nodes=2) for i in range(1, 10)]
        sched = RandomScheduler(seed=5)
        a = run_sim(jobs, sched, nodes=4, memory=64.0)
        b = run_sim(jobs, sched, nodes=4, memory=64.0)  # run_sim resets
        assert [r.job.job_id for r in a.records] == [
            r.job.job_id for r in b.records
        ]

    def test_only_feasible_choices(self):
        jobs = [
            make_job(1, duration=50.0, nodes=8),
            make_job(2, submit=1.0, duration=10.0, nodes=8),
        ]
        result = run_sim(jobs, RandomScheduler(seed=0), nodes=8, memory=64.0)
        result.verify_capacity()
        assert len(result.records) == 2
