"""Tests for walltime enforcement and workload transforms."""

import math
from dataclasses import replace

import pytest

from repro.schedulers.fcfs import EasyBackfillScheduler, FCFSScheduler
from repro.sim.cluster import ResourcePool
from repro.sim.simulator import HPCSimulator
from repro.workloads.generator import generate_workload
from repro.workloads.transforms import with_scaled_arrivals

from tests.conftest import make_job


def run(jobs, scheduler=None, *, enforce=False, nodes=8, memory=64.0):
    sim = HPCSimulator(
        jobs=list(jobs),
        scheduler=scheduler or FCFSScheduler(),
        cluster=ResourcePool(total_nodes=nodes, total_memory_gb=memory),
        enforce_walltime=enforce,
    )
    result = sim.run()
    result.verify_capacity()
    return result


class TestEnforcement:
    def test_overrunning_job_killed_at_walltime(self):
        jobs = [make_job(1, duration=100.0, walltime=60.0)]
        result = run(jobs, enforce=True)
        rec = result.record_for(1)
        assert rec.end_time == 60.0
        assert rec.killed

    def test_within_walltime_unaffected(self):
        jobs = [make_job(1, duration=50.0, walltime=60.0)]
        result = run(jobs, enforce=True)
        rec = result.record_for(1)
        assert rec.end_time == 50.0
        assert not rec.killed

    def test_disabled_by_default(self):
        jobs = [make_job(1, duration=100.0, walltime=60.0)]
        result = run(jobs, enforce=False)
        assert result.record_for(1).end_time == 100.0
        assert not result.record_for(1).killed

    def test_kill_frees_resources_early(self):
        jobs = [
            make_job(1, duration=1000.0, walltime=50.0, nodes=8),
            make_job(2, submit=1.0, duration=10.0, nodes=8),
        ]
        result = run(jobs, enforce=True)
        assert result.record_for(2).start_time == 50.0

    def test_arrays_use_actual_runtime(self):
        jobs = [make_job(1, duration=100.0, walltime=60.0)]
        arrays = run(jobs, enforce=True).to_arrays()
        assert arrays["duration"][0] == 60.0


class TestNoisyWalltimes:
    def test_easy_backfill_stays_safe_with_padded_estimates(self):
        """Conservative (padded) estimates shrink backfill windows but
        never break the head-job reservation guarantee."""
        jobs = generate_workload("heterogeneous_mix", 40, seed=3)
        # User-style requests: 1.2x to 3x the true duration, rounded up
        # to a 15-minute grid.
        padded = [
            replace(
                j,
                walltime=math.ceil(j.duration * (1.2 + 0.3 * (i % 7)) / 900)
                * 900.0,
            )
            for i, j in enumerate(jobs)
        ]
        result = run(
            padded, EasyBackfillScheduler(), nodes=256, memory=2048.0
        )
        assert len(result.records) == 40


class TestArrivalScaling:
    def test_compression_raises_contention(self):
        from repro.metrics.objectives import compute_metrics

        jobs = generate_workload("heterogeneous_mix", 40, seed=2)
        compressed = with_scaled_arrivals(jobs, 0.25)
        base_wait = compute_metrics(
            run(jobs, nodes=256, memory=2048.0)
        )["avg_wait_time"]
        hot_wait = compute_metrics(
            run(compressed, nodes=256, memory=2048.0)
        )["avg_wait_time"]
        assert hot_wait >= base_wait

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            with_scaled_arrivals([make_job(1)], 0.0)
