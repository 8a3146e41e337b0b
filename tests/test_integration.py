"""Cross-module integration tests: workload → scheduler → simulator →
metrics, for every registered policy."""

import pytest

import repro  # noqa: F401 - registers LLM schedulers
from repro.metrics.objectives import compute_metrics
from repro.schedulers.registry import available_schedulers, create_scheduler
from repro.sim.cluster import ResourcePool
from repro.sim.simulator import HPCSimulator
from repro.workloads.generator import generate_workload

from tests.conftest import make_job
from tests.node_reference import NodeLevelCluster

ALL_SCHEDULERS = available_schedulers()


@pytest.mark.parametrize("scheduler_name", ALL_SCHEDULERS)
class TestEverySchedulerEndToEnd:
    def test_heterogeneous_mix_completes(self, scheduler_name):
        jobs = generate_workload("heterogeneous_mix", 25, seed=7)
        sched = create_scheduler(scheduler_name, seed=1)
        result = HPCSimulator(jobs=jobs, scheduler=sched).run()
        result.verify_capacity()
        assert sorted(r.job.job_id for r in result.records) == [
            j.job_id for j in jobs
        ]
        report = compute_metrics(result)
        assert report["makespan"] >= max(j.duration for j in jobs)
        assert 0 < report["node_utilization"] <= 1.0
        assert 0 < report["wait_fairness"] <= 1.0 + 1e-9
        assert 0 < report["user_fairness"] <= 1.0 + 1e-9

    def test_no_job_starts_before_submission(self, scheduler_name):
        jobs = generate_workload("bursty_idle", 20, seed=3)
        sched = create_scheduler(scheduler_name, seed=0)
        result = HPCSimulator(jobs=jobs, scheduler=sched).run()
        for rec in result.records:
            assert rec.start_time >= rec.job.submit_time - 1e-9

    def test_durations_respected(self, scheduler_name):
        jobs = generate_workload("resource_sparse", 12, seed=5)
        sched = create_scheduler(scheduler_name, seed=0)
        result = HPCSimulator(jobs=jobs, scheduler=sched).run()
        for rec in result.records:
            assert rec.end_time - rec.start_time == pytest.approx(
                rec.job.duration
            )


class TestAnnealerEndToEnd:
    def test_every_job_runs_whole_after_submission(self):
        jobs = generate_workload("heterogeneous_mix", 25, seed=7)
        sched = create_scheduler("ortools_like", seed=1)
        result = HPCSimulator(jobs=jobs, scheduler=sched).run()
        result.verify_capacity()
        assert sorted(r.job.job_id for r in result.records) == [
            j.job_id for j in jobs
        ]
        for rec in result.records:
            assert rec.start_time >= rec.job.submit_time - 1e-9
            assert rec.end_time - rec.start_time == pytest.approx(
                rec.job.duration
            )


class TestClusterModelAgreement:
    def test_aggregate_vs_node_level_fcfs(self):
        """With evenly spread memory, both cluster models yield the same
        FCFS schedule on the paper's partition."""
        jobs = generate_workload("homogeneous_short", 30, seed=2)
        agg = HPCSimulator(
            jobs=jobs,
            scheduler=create_scheduler("fcfs"),
            cluster=ResourcePool(total_nodes=256, total_memory_gb=2048.0),
        ).run()
        node = HPCSimulator(
            jobs=jobs,
            scheduler=create_scheduler("fcfs"),
            cluster=NodeLevelCluster(node_count=256, memory_per_node_gb=8.0),
        ).run()
        assert {r.job.job_id: r.start_time for r in agg.records} == {
            r.job.job_id: r.start_time for r in node.records
        }

    @pytest.mark.parametrize("scheduler_name", ALL_SCHEDULERS)
    def test_full_width_job_after_small_ones_on_nodes(self, scheduler_name):
        """Each running job withholds a whole 8 GB node, so job 4 (all
        eight nodes, 58 GB) fits only once the three small jobs are
        gone. No policy may crash on it or start it early; the planner
        parks it instead of failing to pack it."""
        jobs = [
            make_job(1, duration=1.0, nodes=1, memory=1.0),
            make_job(2, duration=1.0, nodes=1, memory=1.0),
            make_job(3, duration=2.0, nodes=1, memory=1.0),
            make_job(4, submit=1.0, duration=1.0, nodes=8, memory=58.0),
        ]
        result = HPCSimulator(
            jobs=jobs,
            scheduler=create_scheduler(scheduler_name, seed=0),
            cluster=NodeLevelCluster(node_count=8, memory_per_node_gb=8.0),
        ).run()
        result.verify_capacity()
        starts = {r.job.job_id: r.start_time for r in result.records}
        assert starts == {1: 0.0, 2: 0.0, 3: 0.0, 4: 2.0}
        assert compute_metrics(result)["makespan"] == 3.0


class TestWholePipelineDeterminism:
    @pytest.mark.parametrize(
        "scheduler_name", ["ortools_like", "claude-3.7-sim", "o4-mini-sim"]
    )
    def test_stochastic_schedulers_reproducible(self, scheduler_name):
        jobs = generate_workload("heterogeneous_mix", 30, seed=11)
        runs = []
        for _ in range(2):
            sched = create_scheduler(scheduler_name, seed=13)
            result = HPCSimulator(jobs=jobs, scheduler=sched).run()
            runs.append({r.job.job_id: r.start_time for r in result.records})
        assert runs[0] == runs[1]


class TestPaperScaleSmoke:
    def test_sixty_job_comparison_shapes(self):
        """The headline qualitative claims at one seed (fast sanity
        version of Fig. 3/4; the benchmarks do the full sweep)."""
        from repro.metrics.normalize import normalize_to_baseline

        jobs = generate_workload("heterogeneous_mix", 100, seed=1)
        results = {}
        for name in ("fcfs", "ortools_like", "claude-3.7-sim"):
            sched = create_scheduler(name, seed=7)
            results[name] = compute_metrics(
                HPCSimulator(jobs=jobs, scheduler=sched).run()
            ).values
        base = results["fcfs"]
        ortools = normalize_to_baseline(results["ortools_like"], base)
        claude = normalize_to_baseline(results["claude-3.7-sim"], base)
        # Optimization-based and LLM scheduling beat FCFS on utilization
        # under heterogeneous contention (paper §3.5/3.6).
        assert ortools["node_utilization"] > 1.1
        assert claude["node_utilization"] > 1.1
        # LLM agent preserves fairness better than the fairness-blind
        # optimizer (paper: OR-Tools trades fairness for utilization).
        assert claude["wait_fairness"] > ortools["wait_fairness"]
