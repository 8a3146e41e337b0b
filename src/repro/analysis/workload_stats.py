"""Workload characterization.

Summaries of a job list's demand structure — the quantities that
predict how much room a scheduler has to differentiate (the paper's
flat scenarios are exactly the low-offered-load ones). Used by tests,
reports and for sanity-checking generated scenarios against their
specifications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.sim.job import Job
from repro.workloads.generator import workload_heterogeneity


@dataclass(frozen=True)
class WorkloadStats:
    """Aggregate characterization of one workload instance."""

    n_jobs: int
    n_users: int
    duration_mean_s: float
    duration_cv: float
    nodes_mean: float
    nodes_max: int
    memory_mean_gb: float
    total_node_seconds: float
    arrival_span_s: float
    #: Offered load: node-seconds of demand per node-second of capacity
    #: over the arrival span. > 1 means the queue must grow.
    offered_load: float
    heterogeneity: float
    #: Fraction of jobs requesting more than half the partition.
    large_job_fraction: float


def characterize(
    jobs: Sequence[Job],
    *,
    total_nodes: int = 256,
) -> WorkloadStats:
    """Compute :class:`WorkloadStats` for *jobs* against a partition of
    *total_nodes* (paper default 256)."""
    if not jobs:
        return WorkloadStats(
            n_jobs=0, n_users=0, duration_mean_s=0.0, duration_cv=0.0,
            nodes_mean=0.0, nodes_max=0, memory_mean_gb=0.0,
            total_node_seconds=0.0, arrival_span_s=0.0, offered_load=0.0,
            heterogeneity=0.0, large_job_fraction=0.0,
        )
    durations = np.array([j.duration for j in jobs])
    nodes = np.array([j.nodes for j in jobs])
    memory = np.array([j.memory_gb for j in jobs])
    submits = np.array([j.submit_time for j in jobs])
    node_seconds = float((nodes * durations).sum())
    span = float(submits.max() - submits.min())
    # Demand pressure over the window work keeps arriving. For the
    # all-at-zero case use the minimal-makespan window instead.
    window = span if span > 0 else node_seconds / total_nodes
    offered = node_seconds / (total_nodes * window) if window > 0 else 0.0
    mean_d = float(durations.mean())
    return WorkloadStats(
        n_jobs=len(jobs),
        n_users=len({j.user for j in jobs}),
        duration_mean_s=mean_d,
        duration_cv=float(durations.std() / mean_d) if mean_d > 0 else 0.0,
        nodes_mean=float(nodes.mean()),
        nodes_max=int(nodes.max()),
        memory_mean_gb=float(memory.mean()),
        total_node_seconds=node_seconds,
        arrival_span_s=span,
        offered_load=offered,
        heterogeneity=workload_heterogeneity(list(jobs)),
        large_job_fraction=float((nodes > total_nodes / 2).mean()),
    )
