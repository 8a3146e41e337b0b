"""Unit tests for the experiment runner."""

import pytest

from repro.experiments.runner import (
    DEFAULT_SCHEDULERS,
    OverheadSummary,
    run_single,
)
from repro.sim.cluster import ResourcePool
from repro.workloads.generator import generate_workload

from tests.runner_reference import run_matrix


class TestRunSingle:
    def test_baseline_run_has_no_overhead(self):
        run = run_single("resource_sparse", 10, "fcfs", workload_seed=0)
        assert run.overhead is None
        assert run.n_jobs == 10
        assert set(run.values) == {
            "makespan", "avg_wait_time", "avg_turnaround_time", "throughput",
            "node_utilization", "memory_utilization", "wait_fairness",
            "user_fairness",
        }

    def test_llm_run_has_overhead(self):
        run = run_single("resource_sparse", 8, "claude-3.7-sim", workload_seed=0)
        assert isinstance(run.overhead, OverheadSummary)
        assert run.overhead.n_accepted_placements == 8
        assert run.overhead.elapsed_s > 0
        assert run.overhead.model == "claude-3.7-sim"

    def test_jobs_override(self):
        jobs = generate_workload("adversarial", 5, seed=3)
        run = run_single("adversarial", 5, "fcfs", jobs=jobs)
        assert run.n_jobs == 5

    def test_cluster_override(self):
        run = run_single(
            "resource_sparse", 5, "fcfs",
            cluster=ResourcePool(total_nodes=16, total_memory_gb=128.0),
        )
        assert run.result.total_nodes == 16

    def test_deterministic(self):
        a = run_single("heterogeneous_mix", 20, "ortools_like", workload_seed=1, scheduler_seed=2)
        b = run_single("heterogeneous_mix", 20, "ortools_like", workload_seed=1, scheduler_seed=2)
        assert a.values == b.values

    def test_arrival_mode_zero(self):
        run = run_single(
            "heterogeneous_mix", 10, "fcfs", workload_seed=0, arrival_mode="zero"
        )
        arrays = run.result.to_arrays()
        assert (arrays["submit"] == 0.0).all()

    def test_enforce_walltime_reaches_simulator(self):
        from tests.conftest import make_job

        jobs = [make_job(1, duration=100.0, walltime=30.0)]
        lenient = run_single("adversarial", 1, "fcfs", jobs=jobs)
        strict = run_single(
            "adversarial", 1, "fcfs", jobs=jobs, enforce_walltime=True
        )
        assert not lenient.result.record_for(1).killed
        rec = strict.result.record_for(1)
        assert rec.killed
        assert rec.end_time == 30.0

    def test_arrival_mode_label_forwarded(self):
        run = run_single(
            "adversarial", 5, "fcfs", arrival_mode="zero"
        )
        assert run.arrival_mode == "zero"
        matrix = run_matrix(
            ["adversarial"], [5], ["fcfs"], arrival_mode="zero"
        )
        assert matrix[0].arrival_mode == "zero"

    def test_max_decisions_reaches_simulator(self):
        from repro.sim.simulator import SimulationError

        with pytest.raises(SimulationError, match="decision budget"):
            run_single("adversarial", 8, "fcfs", max_decisions=2)


class TestRunMatrix:
    def test_shape(self):
        runs = run_matrix(
            ["resource_sparse", "adversarial"], [5, 10], ["fcfs", "sjf"],
        )
        assert len(runs) == 2 * 2 * 2

    def test_same_instance_across_schedulers(self):
        runs = run_matrix(["resource_sparse"], [6], ["fcfs", "sjf"])
        fcfs, sjf = runs
        a = fcfs.result.to_arrays()
        b = sjf.result.to_arrays()
        # Same workload instance: identical submit times and demands.
        assert sorted(a["submit"]) == sorted(b["submit"])

    def test_default_schedulers_match_paper(self):
        assert DEFAULT_SCHEDULERS == (
            "fcfs", "sjf", "ortools_like", "claude-3.7-sim", "o4-mini-sim",
        )


class TestOverheadAccounting:
    def test_rejected_calls_excluded_from_elapsed(self):
        run = run_single(
            "heterogeneous_mix", 15, "o4-mini-sim",
            workload_seed=2, scheduler_seed=0,
        )
        ov = run.overhead
        assert ov is not None
        total_all = sum(ov.all_call_latencies)
        assert ov.elapsed_s <= total_all
        assert ov.n_calls >= ov.n_accepted_placements
