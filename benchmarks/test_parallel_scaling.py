"""Scaling benchmarks: simulator hot path + parallel experiment engine.

Two claims are tracked here:

1. Per-decision simulator cost no longer scans every job. The decision
   loop used to recompute the next arrival with an O(n) pass over the
   whole workload, making long-arrival-tail sweeps O(n²); it now reads
   a pre-sorted arrival cursor. On a workload whose queue stays tiny
   while thousands of arrivals are pending, per-decision cost must be
   (near-)flat in workload size — an 8× larger workload may not cost
   more than ~3× per decision (the old scan trended toward 8×).

2. ``run_matrix_parallel`` converts cores into wall-clock speedup:
   >2× at 4 workers on a ≥4-core machine (skipped on smaller runners —
   a 1-core container cannot demonstrate parallelism).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.experiments.parallel import run_matrix_parallel
from repro.sim.job import Job
from repro.sim.simulator import simulate
from repro.schedulers.registry import create_scheduler


def spread_arrivals(n_jobs: int) -> list[Job]:
    """A long arrival tail: inter-arrival > duration, so at every
    decision the queue holds ~1 job while ~n arrivals are pending —
    exactly the regime where the old per-decision full scan was O(n)."""
    return [
        Job(
            job_id=i,
            submit_time=10.0 * i,
            duration=5.0,
            nodes=1,
            memory_gb=4.0,
            user=f"user_{i % 7}",
        )
        for i in range(n_jobs)
    ]


def per_decision_seconds(n_jobs: int, repeats: int = 3) -> tuple[float, int]:
    """Best-of-*repeats* per-decision cost (minimum is the standard
    noise-robust estimator for micro-timings on shared runners)."""
    best = float("inf")
    n_decisions = 0
    for _ in range(repeats):
        jobs = spread_arrivals(n_jobs)
        scheduler = create_scheduler("fcfs")
        start = time.perf_counter()
        result = simulate(jobs, scheduler)
        elapsed = time.perf_counter() - start
        assert len(result.records) == n_jobs
        n_decisions = len(result.decisions)
        best = min(best, elapsed / n_decisions)
    return best, n_decisions


class TestHotPath:
    def test_per_decision_cost_flat_in_workload_size(self):
        # Warm caches/allocator once before timing.
        per_decision_seconds(50)

        small, n_small = per_decision_seconds(250)
        big, n_big = per_decision_seconds(2000)
        print(
            f"\nper-decision: {small * 1e6:.1f} us at 250 jobs "
            f"({n_small} decisions), {big * 1e6:.1f} us at 2000 jobs "
            f"({n_big} decisions), ratio {big / small:.2f}x"
        )
        # 8x the jobs must not cost ~8x per decision. The pre-fix
        # full-job scan measured ~5x on this workload; the cursor
        # version stays near 1x. 3x leaves room for timer noise.
        assert big / small < 3.0, (
            f"per-decision cost grew {big / small:.1f}x from 250 to 2000 "
            "jobs — the next-arrival scan has regressed to O(n)"
        )

    def test_2000_job_sweep_finishes_quickly(self):
        # Absolute guardrail for the 2000-job workload of the
        # acceptance criteria: the whole simulation is sub-second on
        # any modern core once the hot path is O(log n).
        start = time.perf_counter()
        jobs = spread_arrivals(2000)
        result = simulate(jobs, create_scheduler("fcfs"))
        elapsed = time.perf_counter() - start
        print(f"\n2000-job spread-arrival sweep: {elapsed:.3f}s")
        assert len(result.records) == 2000
        assert elapsed < 5.0


class TestParallelSpeedup:
    SCENARIOS = ("heterogeneous_mix",)
    SIZES = (400,)
    SCHEDULERS = ("fcfs", "sjf")
    SEEDS = tuple(range(4))  # 1 × 1 × 2 × 4 = 8 cells

    def _measure(self) -> tuple[float, list, list]:
        kwargs = dict(workload_seeds=self.SEEDS)

        start = time.perf_counter()
        serial = run_matrix_parallel(
            self.SCENARIOS, self.SIZES, self.SCHEDULERS,
            workers=1, **kwargs,
        )
        serial_s = time.perf_counter() - start

        start = time.perf_counter()
        parallel = run_matrix_parallel(
            self.SCENARIOS, self.SIZES, self.SCHEDULERS,
            workers=4, **kwargs,
        )
        parallel_s = time.perf_counter() - start

        speedup = serial_s / parallel_s
        print(
            f"\n{len(serial)} cells: serial {serial_s:.2f}s, "
            f"4 workers {parallel_s:.2f}s, speedup {speedup:.2f}x"
        )
        return speedup, serial, parallel

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 4,
        reason="parallel speedup needs >= 4 cores",
    )
    def test_speedup_at_four_workers(self):
        speedup, serial, parallel = self._measure()
        # Determinism survives the pool.
        assert [r.metrics for r in serial] == [r.metrics for r in parallel]
        if speedup <= 2.0:
            # One retry absorbs transient scheduler jitter on shared
            # CI runners; a genuinely serial engine still fails twice.
            speedup, _, _ = self._measure()
        assert speedup > 2.0, (
            f"expected >2x speedup at 4 workers, measured {speedup:.2f}x"
        )
