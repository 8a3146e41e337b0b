"""Unit tests for Shortest Job First."""


from repro.schedulers.sjf import SJFScheduler

from tests.conftest import make_job, run_sim


class TestStrictSJF:
    def test_shortest_first_when_all_queued(self):
        jobs = [
            make_job(1, duration=100.0, nodes=8),
            make_job(2, duration=10.0, nodes=8),
            make_job(3, duration=50.0, nodes=8),
        ]
        result = run_sim(jobs, SJFScheduler(), nodes=8, memory=64.0)
        starts = {r.job.job_id: r.start_time for r in result.records}
        assert starts[2] == 0.0
        assert starts[3] == 10.0
        assert starts[1] == 60.0

    def test_long_jobs_starve_while_shorts_arrive(self):
        # A stream of short jobs keeps beating the long job: SJF's
        # classic fairness failure (paper §3.3).
        jobs = [make_job(1, submit=0.0, duration=100.0, nodes=8)]
        jobs += [
            make_job(i, submit=0.0, duration=10.0, nodes=8)
            for i in range(2, 6)
        ]
        result = run_sim(jobs, SJFScheduler(), nodes=8, memory=64.0)
        starts = {r.job.job_id: r.start_time for r in result.records}
        assert starts[1] == 40.0  # after every short job

    def test_strict_delays_when_shortest_blocked(self):
        # Shortest job needs 8 nodes (blocked); a longer 1-node job
        # could run, but strict SJF refuses to skip.
        jobs = [
            make_job(1, submit=0.0, duration=50.0, nodes=4),
            make_job(2, submit=1.0, duration=10.0, nodes=8),
            make_job(3, submit=1.0, duration=20.0, nodes=1),
        ]
        result = run_sim(jobs, SJFScheduler(strict=True), nodes=8, memory=64.0)
        starts = {r.job.job_id: r.start_time for r in result.records}
        assert starts[2] == 50.0
        # Job 3 then waits for job 2 (the shortest went first).
        assert starts[3] == 60.0

    def test_firstfit_variant_skips_blocked_shortest(self):
        jobs = [
            make_job(1, submit=0.0, duration=50.0, nodes=4),
            make_job(2, submit=1.0, duration=10.0, nodes=8),
            make_job(3, submit=1.0, duration=20.0, nodes=1),
        ]
        result = run_sim(jobs, SJFScheduler(strict=False), nodes=8, memory=64.0)
        assert result.record_for(3).start_time == 1.0

    def test_uses_walltime_estimates(self):
        # True durations reversed vs walltimes; SJF must follow walltime.
        jobs = [
            make_job(1, duration=10.0, walltime=100.0, nodes=8),
            make_job(2, duration=90.0, walltime=20.0, nodes=8),
        ]
        result = run_sim(jobs, SJFScheduler(), nodes=8, memory=64.0)
        assert result.record_for(2).start_time == 0.0

    def test_names(self):
        assert SJFScheduler(strict=True).name == "sjf"
        assert SJFScheduler(strict=False).name == "sjf_firstfit"

    def test_tie_breaks_by_job_id(self):
        jobs = [
            make_job(2, duration=10.0, nodes=8),
            make_job(1, duration=10.0, nodes=8),
        ]
        result = run_sim(jobs, SJFScheduler(), nodes=8, memory=64.0)
        assert result.record_for(1).start_time == 0.0
        assert result.record_for(2).start_time == 10.0
