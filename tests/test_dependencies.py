"""Tests for the job-dependency extension (paper §6 future work)."""

import pytest

import repro  # noqa: F401
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.heuristics import FirstFitScheduler
from repro.schedulers.registry import create_scheduler
from repro.sim.job import Job, validate_dependencies
from repro.sim.simulator import HPCSimulator
from repro.workloads.dags import critical_path_length, layered_dag_workload

from tests.conftest import make_job, run_sim


def dep_job(job_id, deps=(), **kwargs):
    base = make_job(job_id, **kwargs)
    return Job(
        job_id=base.job_id,
        submit_time=base.submit_time,
        duration=base.duration,
        nodes=base.nodes,
        memory_gb=base.memory_gb,
        walltime=base.walltime,
        user=base.user,
        depends_on=tuple(deps),
    )


def chain(n, **kwargs):
    """A pipeline: job *i* depends on job *i - 1*, all submitted at 0."""
    return [
        dep_job(i, deps=(i - 1,) if i > 1 else (), duration=10.0 * i, **kwargs)
        for i in range(1, n + 1)
    ]


class TestJobDependencyField:
    def test_default_empty(self):
        assert make_job(1).depends_on == ()

    def test_list_coerced_to_tuple(self):
        job = dep_job(2, deps=[1])
        assert job.depends_on == (1,)

    def test_self_dependency_rejected(self):
        with pytest.raises(ValueError, match="depend on itself"):
            dep_job(1, deps=(1,))


class TestValidation:
    def test_unknown_dependency_rejected(self):
        jobs = [dep_job(1), dep_job(2, deps=(99,))]
        with pytest.raises(ValueError, match="unknown job 99"):
            validate_dependencies(jobs)

    def test_cycle_detected(self):
        jobs = [dep_job(1, deps=(3,)), dep_job(2, deps=(1,)), dep_job(3, deps=(2,))]
        with pytest.raises(ValueError, match="cycle"):
            validate_dependencies(jobs)

    def test_diamond_is_acyclic(self):
        jobs = [
            dep_job(1),
            dep_job(2, deps=(1,)),
            dep_job(3, deps=(1,)),
            dep_job(4, deps=(2, 3)),
        ]
        validate_dependencies(jobs)  # must not raise

    def test_simulator_validates_on_construction(self):
        jobs = [dep_job(1, deps=(2,)), dep_job(2, deps=(1,))]
        with pytest.raises(ValueError, match="cycle"):
            HPCSimulator(jobs=jobs, scheduler=FCFSScheduler())


class TestExecutionOrdering:
    def test_dependent_waits_for_completion(self):
        jobs = [
            dep_job(1, duration=50.0, nodes=1),
            dep_job(2, deps=(1,), duration=10.0, nodes=1),
        ]
        result = run_sim(jobs, FCFSScheduler(), nodes=8, memory=64.0)
        assert result.record_for(2).start_time >= result.record_for(1).end_time

    def test_chain_serializes_fully(self):
        jobs = chain(6, nodes=1)
        result = run_sim(jobs, FirstFitScheduler())
        records = sorted(result.records, key=lambda r: r.job.job_id)
        for prev, nxt in zip(records, records[1:]):
            assert nxt.start_time >= prev.end_time - 1e-9

    def test_diamond_ordering(self):
        jobs = [
            dep_job(1, duration=10.0, nodes=1),
            dep_job(2, deps=(1,), duration=20.0, nodes=1),
            dep_job(3, deps=(1,), duration=5.0, nodes=1),
            dep_job(4, deps=(2, 3), duration=1.0, nodes=1),
        ]
        result = run_sim(jobs, FirstFitScheduler(), nodes=8, memory=64.0)
        r = {rec.job.job_id: rec for rec in result.records}
        assert r[2].start_time >= r[1].end_time - 1e-9
        assert r[3].start_time >= r[1].end_time - 1e-9
        assert r[4].start_time >= max(r[2].end_time, r[3].end_time) - 1e-9
        # Jobs 2 and 3 ran concurrently (independent given job 1).
        assert r[3].start_time < r[2].end_time

    def test_dependency_arriving_before_parent_completes(self):
        jobs = [
            dep_job(1, submit=0.0, duration=100.0, nodes=1),
            dep_job(2, submit=5.0, deps=(1,), duration=10.0, nodes=1),
        ]
        result = run_sim(jobs, FCFSScheduler(), nodes=8, memory=64.0)
        assert result.record_for(2).start_time == pytest.approx(100.0)

    @pytest.mark.parametrize(
        "scheduler_name",
        ["fcfs", "fcfs_backfill", "sjf", "ortools_like", "claude-3.7-sim"],
    )
    def test_every_scheduler_respects_dependencies(self, scheduler_name):
        jobs = layered_dag_workload(
            24, seed=3, scenario="resource_sparse", n_layers=3
        )
        sched = create_scheduler(scheduler_name, seed=1)
        result = run_sim(jobs, sched)
        r = {rec.job.job_id: rec for rec in result.records}
        assert len(r) == 24
        for job in jobs:
            for dep in job.depends_on:
                assert r[job.job_id].start_time >= r[dep].end_time - 1e-9


class TestLLMAgentWithDependencies:
    def test_agent_stops_only_after_blocked_jobs_run(self):
        jobs = chain(4, nodes=2)
        agent = create_scheduler("claude-3.7-sim", seed=0)
        result = run_sim(jobs, agent)
        assert len(result.records) == 4
        stops = [d for d in result.decisions if d.action.kind.value == "Stop"]
        assert len(stops) == 1
        assert stops[0].accepted


class TestDagGenerators:
    def test_layered_dag_layers_only_point_backwards(self):
        jobs = layered_dag_workload(40, seed=5, n_layers=5)
        validate_dependencies(jobs)
        by_id = {j.job_id: j for j in jobs}
        for job in jobs:
            for dep in job.depends_on:
                assert dep < job.job_id
                assert dep in by_id

    def test_layered_dag_with_arrivals(self):
        jobs = layered_dag_workload(20, seed=2, arrival_rate=0.1)
        assert jobs[-1].submit_time > 0.0

    def test_layered_dag_deterministic(self):
        a = layered_dag_workload(30, seed=9)
        b = layered_dag_workload(30, seed=9)
        assert a == b

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            layered_dag_workload(-1)
        with pytest.raises(ValueError):
            layered_dag_workload(5, n_layers=0)
        with pytest.raises(ValueError):
            layered_dag_workload(5, edge_prob=1.5)


class TestCriticalPath:
    def test_chain_critical_path_is_sum(self):
        jobs = [
            dep_job(1, duration=10.0),
            dep_job(2, deps=(1,), duration=20.0),
            dep_job(3, deps=(2,), duration=30.0),
        ]
        assert critical_path_length(jobs) == 60.0

    def test_parallel_critical_path_is_max(self):
        jobs = [dep_job(1, duration=10.0), dep_job(2, duration=25.0)]
        assert critical_path_length(jobs) == 25.0

    def test_empty(self):
        assert critical_path_length([]) == 0.0

    def test_makespan_bounded_below_by_critical_path(self):
        jobs = layered_dag_workload(20, seed=7, scenario="resource_sparse")
        result = run_sim(jobs, FirstFitScheduler())
        assert result.makespan >= critical_path_length(jobs) - 1e-6
