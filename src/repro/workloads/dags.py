"""Dependency-structured (DAG) workload generators.

The paper lists "advanced constraint handling for job dependencies" as
future work (§6); this module provides the workload side of that
extension: scientific-workflow-shaped job graphs whose edges are
expressed through :attr:`repro.sim.job.Job.depends_on` and enforced by
the simulator's eligibility tracking.

:func:`layered_dag_workload` draws random layered DAGs with
configurable fan-in, the standard random-workflow model;
:func:`critical_path_length` is the makespan lower bound the dependency
structure alone imposes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sim.job import Job, validate_dependencies, validate_workload
from repro.workloads.scenarios import Scenario, get_scenario


def _draw_job(
    scenario: Scenario,
    rng: np.random.Generator,
    job_id: int,
    *,
    submit_time: float,
    depends_on: tuple[int, ...],
    user_pool: int,
    index: int,
    total: int,
) -> Job:
    draw = scenario.sample(rng, index, total)
    user_idx = int(rng.integers(0, user_pool))
    return Job(
        job_id=job_id,
        submit_time=submit_time,
        duration=draw.duration,
        nodes=draw.nodes,
        memory_gb=draw.memory_gb,
        user=f"user_{user_idx}",
        group=f"group_{user_idx % max(user_pool // 2, 1)}",
        name=f"{scenario.name}_dag_{job_id}",
        depends_on=depends_on,
    )


def layered_dag_workload(
    n_jobs: int,
    seed: int | np.random.SeedSequence = 0,
    *,
    scenario: str | Scenario = "heterogeneous_mix",
    n_layers: int = 4,
    max_fan_in: int = 3,
    edge_prob: float = 0.6,
    user_pool: int = 6,
    arrival_rate: Optional[float] = None,
) -> list[Job]:
    """Random layered DAG: jobs are assigned to layers; each job in
    layer *k* > 0 draws up to ``max_fan_in`` dependencies from layer
    *k − 1* (each with probability ``edge_prob``, at least one forced
    so layers actually order execution).

    Parameters
    ----------
    arrival_rate:
        When given, submissions follow a Poisson process (jobs can
        arrive before their dependencies complete — the simulator holds
        them); when ``None`` everything is submitted at ``t = 0``.
    """
    if n_jobs < 0:
        raise ValueError("n_jobs must be non-negative")
    if n_layers < 1:
        raise ValueError("n_layers must be at least 1")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must be in [0, 1]")
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    rng = np.random.default_rng(seed)

    layer_of = np.sort(rng.integers(0, n_layers, size=n_jobs))
    if arrival_rate is not None:
        gaps = rng.exponential(1.0 / arrival_rate, size=n_jobs)
        gaps[0] = 0.0 if n_jobs else gaps
        submits = np.cumsum(gaps)
    else:
        submits = np.zeros(n_jobs)

    ids_by_layer: dict[int, list[int]] = {}
    jobs: list[Job] = []
    for i in range(n_jobs):
        layer = int(layer_of[i])
        jid = i + 1
        deps: tuple[int, ...] = ()
        prev = ids_by_layer.get(layer - 1, [])
        if prev:
            k = int(min(max_fan_in, len(prev)))
            chosen = [
                int(p)
                for p in rng.choice(prev, size=k, replace=False)
                if rng.random() < edge_prob
            ]
            if not chosen:
                chosen = [int(rng.choice(prev))]
            deps = tuple(sorted(chosen))
        jobs.append(
            _draw_job(
                spec, rng, jid,
                submit_time=float(submits[i]),
                depends_on=deps,
                user_pool=user_pool, index=i, total=n_jobs,
            )
        )
        ids_by_layer.setdefault(layer, []).append(jid)

    validate_dependencies(jobs)
    return validate_workload(jobs)


def critical_path_length(jobs: list[Job]) -> float:
    """Length (in seconds of pure compute) of the workload's critical
    path — the lower bound on any schedule's makespan imposed purely by
    the dependency structure."""
    by_id = {j.job_id: j for j in jobs}
    memo: dict[int, float] = {}

    def finish(jid: int) -> float:
        if jid in memo:
            return memo[jid]
        job = by_id[jid]
        start = max(
            (finish(dep) for dep in job.depends_on), default=0.0
        )
        memo[jid] = start + job.duration
        return memo[jid]

    return max((finish(j.job_id) for j in jobs), default=0.0)
