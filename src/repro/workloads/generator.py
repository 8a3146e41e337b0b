"""Workload instantiation: scenarios × job counts → ``list[Job]``.

The paper instantiates each scenario with [10, 20, 40, 60, 80, 100]
jobs (§3.1), assigning per-job user metadata and arrival times from the
scenario's arrival process. The §3.3 static experiments instead submit
every job at ``t = 0``; pass ``arrival_mode="zero"`` for that.
"""

from __future__ import annotations

import math
from typing import Literal, Optional, Sequence, get_args

import numpy as np

from repro.sim.job import Job, validate_workload
from repro.workloads.arrivals import AllAtZero
from repro.workloads.scenarios import Scenario, get_scenario

ArrivalMode = Literal["scenario", "zero"]

#: The arrival modes a workload can be generated with.
ARRIVAL_MODES: tuple[str, ...] = get_args(ArrivalMode)


def check_arrival_mode(mode: str) -> str:
    """*mode* if it is one of :data:`ARRIVAL_MODES`, else ``ValueError``."""
    if mode not in ARRIVAL_MODES:
        raise ValueError(
            f"unknown arrival_mode {mode!r}; expected one of "
            f"{', '.join(ARRIVAL_MODES)}"
        )
    return mode


def generate_workload(
    scenario: str | Scenario,
    n_jobs: int,
    seed: int | np.random.SeedSequence = 0,
    *,
    arrival_mode: ArrivalMode = "scenario",
    user_pool: Optional[int] = None,
) -> list[Job]:
    """Generate a workload instance for *scenario*.

    Parameters
    ----------
    scenario:
        Scenario name (see :data:`repro.workloads.scenarios.SCENARIOS`)
        or a :class:`Scenario` object.
    n_jobs:
        Number of jobs to draw.
    seed:
        Seed for the underlying :class:`numpy.random.Generator`; equal
        seeds reproduce identical workloads bit-for-bit.
    arrival_mode:
        ``"scenario"`` uses the scenario's arrival process (Poisson or
        bursty); ``"zero"`` submits everything at ``t = 0`` (paper §3.3).
    user_pool:
        Override the number of distinct users (default: scenario's).

    Returns
    -------
    list[Job]
        Jobs sorted by (submit_time, job_id); ids are 1..n like the
        paper's traces.
    """
    if n_jobs < 0:
        raise ValueError(f"n_jobs must be non-negative, got {n_jobs}")
    check_arrival_mode(arrival_mode)
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    rng = np.random.default_rng(seed)
    pool = user_pool if user_pool is not None else spec.user_pool

    arrivals = (
        AllAtZero() if arrival_mode == "zero" else spec.arrivals
    ).times(rng, n_jobs)

    jobs: list[Job] = []
    for i in range(n_jobs):
        draw = spec.sample(rng, i, n_jobs)
        user_idx = int(rng.integers(0, pool))
        jobs.append(
            Job(
                job_id=i + 1,
                submit_time=float(arrivals[i]),
                duration=draw.duration,
                nodes=draw.nodes,
                memory_gb=draw.memory_gb,
                user=f"user_{user_idx}",
                group=f"group_{user_idx % max(pool // 2, 1)}",
                name=f"{spec.name}_{i + 1}",
            )
        )
    return validate_workload(jobs)


def workload_heterogeneity(jobs: Sequence[Job]) -> float:
    """Empirical heterogeneity score in [0, 1] for a job list.

    Combines the coefficients of variation of duration, node count and
    memory demand; used by the simulated-LLM latency model, which the
    paper observes to slow down on diverse queues (§3.7.1). A uniform
    workload scores ~0; the heterogeneous mix scores near 1.
    """
    n = len(jobs)
    if n < 2:
        return 0.0
    # Sequential sums in plain floats: the same additions in the same
    # order as numpy's axis-0 reductions over the (n, 3) array, so the
    # same bits — without the array build, which costs more than the
    # arithmetic at the queue depths the LLM latency model sees. (Not
    # ``column.mean()``: 1-D reductions sum pairwise and differ.)
    sum_d = sum_n = sum_m = 0.0
    for j in jobs:
        sum_d += j.duration
        sum_n += j.nodes
        sum_m += j.memory_gb
    mean_d, mean_n, mean_m = sum_d / n, sum_n / n, sum_m / n
    sq_d = sq_n = sq_m = 0.0
    for j in jobs:
        dev = j.duration - mean_d
        sq_d += dev * dev
        dev = j.nodes - mean_n
        sq_n += dev * dev
        dev = j.memory_gb - mean_m
        sq_m += dev * dev
    cv_sum = 0.0
    for squares, mean in ((sq_d, mean_d), (sq_n, mean_n), (sq_m, mean_m)):
        if mean > 0:
            cv_sum += math.sqrt(squares / n) / mean
    # Gamma(1.5, 300) durations have CV ≈ 0.8; saturate around there.
    return min(max(cv_sum / 3 / 0.8, 0.0), 1.0)
