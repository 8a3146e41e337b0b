"""Tests for the genetic-algorithm list scheduler."""

import numpy as np
import pytest

from repro.metrics.objectives import compute_metrics
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.genetic import (
    GeneticConfig,
    GeneticOptimizer,
    prefix_crossover,
)
from repro.workloads.generator import generate_workload

from tests.conftest import make_job, run_sim


class TestPrefixCrossover:
    def test_child_is_permutation_sharing_parent_prefix(self):
        rng = np.random.default_rng(0)
        a = [1, 2, 3, 4, 5, 6, 7, 8]
        b = list(reversed(a))
        for _ in range(30):
            child, cut = prefix_crossover(a, b, rng)
            assert sorted(child) == sorted(a)
            assert 1 <= cut < len(a)
            assert child[:cut] == a[:cut]

    def test_suffix_follows_parent_b_relative_order(self):
        rng = np.random.default_rng(7)
        a = [1, 2, 3, 4, 5, 6]
        b = [6, 4, 2, 5, 3, 1]
        child, cut = prefix_crossover(a, b, rng)
        expected_suffix = [g for g in b if g not in set(a[:cut])]
        assert child[cut:] == expected_suffix

    def test_short_parents(self):
        rng = np.random.default_rng(0)
        child, cut = prefix_crossover([1], [1], rng)
        assert child == [1]
        assert cut == 1


class TestConfig:
    def test_defaults_valid(self):
        GeneticConfig()

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneticConfig(population=1)
        with pytest.raises(ValueError):
            GeneticConfig(population=4, elite=4)
        with pytest.raises(ValueError):
            GeneticConfig(crossover_rate=1.5)
        with pytest.raises(ValueError):
            GeneticConfig(mutation_rate=-0.1)


class TestScheduling:
    def test_schedules_everything(self):
        jobs = generate_workload("heterogeneous_mix", 20, seed=1)
        result = run_sim(jobs, GeneticOptimizer(seed=0))
        assert len(result.records) == 20
        result.verify_capacity()

    def test_deterministic_under_seed(self):
        jobs = generate_workload("heterogeneous_mix", 15, seed=2)
        a = run_sim(jobs, GeneticOptimizer(seed=4))
        b = run_sim(jobs, GeneticOptimizer(seed=4))
        assert {r.job.job_id: r.start_time for r in a.records} == {
            r.job.job_id: r.start_time for r in b.records
        }

    def test_improves_pathological_fcfs_order(self):
        # Same crafted instance the annealer test uses: optimal pairing
        # halves... cuts makespan from 300 to 200.
        jobs = [
            make_job(1, duration=100.0, nodes=5),
            make_job(2, duration=100.0, nodes=4),
            make_job(3, duration=100.0, nodes=3),
            make_job(4, duration=100.0, nodes=4),
        ]
        fcfs = compute_metrics(run_sim(jobs, FCFSScheduler(), nodes=8, memory=64.0))
        ga = compute_metrics(
            run_sim(jobs, GeneticOptimizer(seed=0), nodes=8, memory=64.0)
        )
        assert fcfs["makespan"] == pytest.approx(300.0)
        assert ga["makespan"] == pytest.approx(200.0)

    def test_generations_recorded(self):
        jobs = generate_workload("heterogeneous_mix", 10, seed=0)
        sched = GeneticOptimizer(seed=0)
        result = run_sim(jobs, sched)
        assert result.extras["generations"] > 0

    def test_prefix_mode_reports_pack_stats(self):
        # Zero arrivals -> one planning event, so the cold-pack bound
        # below is exact (population x (generations + 1) evaluations).
        jobs = generate_workload(
            "heterogeneous_mix", 20, seed=1, arrival_mode="zero"
        )
        sched = GeneticOptimizer(seed=0)
        result = run_sim(jobs, sched)
        stats = result.extras["pack_stats"]
        assert stats["jobs_packed"] > 0
        assert stats["incumbents_saved"] > 0
        # The point of the restructure: children re-pack suffixes, so
        # total packed jobs undercut one cold full pack per evaluation
        # (population x (generations + 1) x queue).
        cfg = sched.config
        cold = cfg.population * (cfg.generations + 1) * 20
        assert stats["jobs_packed"] < cold

    def test_comparable_to_annealer_on_static_instance(self):
        from repro.schedulers.optimizer import AnnealingOptimizer

        jobs = generate_workload(
            "heterogeneous_mix", 30, seed=3, arrival_mode="zero"
        )
        ga = compute_metrics(run_sim(jobs, GeneticOptimizer(seed=0)))
        sa = compute_metrics(run_sim(jobs, AnnealingOptimizer(seed=0)))
        # Same packing model + objective: results land in the same band.
        assert ga["makespan"] <= sa["makespan"] * 1.15
