"""Unit tests for workload generation."""

import pytest

from repro.workloads.generator import generate_workload, workload_heterogeneity
from repro.workloads.scenarios import SCENARIOS

from tests.conftest import make_job


class TestGenerateWorkload:
    def test_count_and_ids(self):
        jobs = generate_workload("homogeneous_short", 25, seed=0)
        assert len(jobs) == 25
        assert sorted(j.job_id for j in jobs) == list(range(1, 26))

    def test_sorted_by_submit_time(self):
        jobs = generate_workload("heterogeneous_mix", 50, seed=1)
        submits = [j.submit_time for j in jobs]
        assert submits == sorted(submits)

    def test_deterministic_under_seed(self):
        a = generate_workload("bursty_idle", 30, seed=42)
        b = generate_workload("bursty_idle", 30, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_workload("heterogeneous_mix", 30, seed=1)
        b = generate_workload("heterogeneous_mix", 30, seed=2)
        assert a != b

    def test_zero_arrival_mode(self):
        jobs = generate_workload("heterogeneous_mix", 10, seed=0, arrival_mode="zero")
        assert all(j.submit_time == 0.0 for j in jobs)

    def test_scenario_arrival_mode_spreads(self):
        jobs = generate_workload("heterogeneous_mix", 10, seed=0)
        assert jobs[-1].submit_time > 0.0

    def test_user_pool_respected(self):
        jobs = generate_workload("resource_sparse", 100, seed=0, user_pool=3)
        users = {j.user for j in jobs}
        assert users <= {"user_0", "user_1", "user_2"}
        assert len(users) > 1

    def test_scenario_object_accepted(self):
        jobs = generate_workload(SCENARIOS["adversarial"], 5, seed=0)
        assert len(jobs) == 5

    def test_empty(self):
        assert generate_workload("adversarial", 0, seed=0) == []

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            generate_workload("adversarial", -1, seed=0)

    @pytest.mark.parametrize("mode", ["nope", "Zero"])
    def test_unknown_arrival_mode_raises(self, mode):
        with pytest.raises(ValueError, match="unknown arrival_mode"):
            generate_workload("adversarial", 5, seed=0, arrival_mode=mode)

    def test_names_carry_scenario(self):
        jobs = generate_workload("high_parallelism", 3, seed=0)
        assert all(j.name.startswith("high_parallelism_") for j in jobs)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_all_jobs_fit_cluster(self, name):
        jobs = generate_workload(name, 60, seed=3)
        assert all(j.nodes <= 256 and j.memory_gb <= 2048.0 for j in jobs)


class TestHeterogeneity:
    def test_uniform_workload_scores_low(self):
        jobs = [make_job(i, duration=100.0, nodes=2, memory=4.0) for i in range(1, 20)]
        assert workload_heterogeneity(jobs) == pytest.approx(0.0, abs=1e-9)

    def test_single_job_scores_zero(self):
        assert workload_heterogeneity([make_job(1)]) == 0.0
        assert workload_heterogeneity([]) == 0.0

    def test_heterogeneous_scores_high(self):
        jobs = generate_workload("heterogeneous_mix", 60, seed=0)
        assert workload_heterogeneity(jobs) > 0.7

    def test_bounded(self):
        for name in SCENARIOS:
            jobs = generate_workload(name, 40, seed=5)
            assert 0.0 <= workload_heterogeneity(jobs) <= 1.0
