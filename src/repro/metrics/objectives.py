"""The seven objectives of paper §3.2, plus a combined report.

Formulas (J = set of jobs, x_j = start, d_j = duration, s_j = submit,
n_j / m_j = node / memory demand, C / M = cluster capacities):

* makespan          = max_j (x_j + d_j) − min_j s_j
* average wait      = mean_j (x_j − s_j)
* average turnaround= mean_j (x_j + d_j − s_j)
* throughput        = n / (max_j (x_j + d_j) − min_j x_j)
* node utilization  = Σ_j n_j d_j / (C · makespan)
* memory utilization= Σ_j m_j d_j / (M · makespan)
* fairness (job)    = Jain index of per-job waits
* fairness (user)   = Jain index of per-user mean waits
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.metrics.fairness import jain_index, per_group_means
from repro.sim.schedule import ScheduleResult

#: Canonical metric names, in the order the paper's figures list them.
METRIC_NAMES: tuple[str, ...] = (
    "makespan",
    "avg_wait_time",
    "avg_turnaround_time",
    "throughput",
    "node_utilization",
    "memory_utilization",
    "wait_fairness",
    "user_fairness",
)


def makespan(arrays: Mapping[str, np.ndarray]) -> float:
    """Total elapsed time from earliest submission to last completion."""
    if arrays["end"].size == 0:
        return 0.0
    return float(arrays["end"].max() - arrays["submit"].min())


def average_wait_time(arrays: Mapping[str, np.ndarray]) -> float:
    """Mean queued time before execution (user-perceived latency)."""
    if arrays["wait"].size == 0:
        return 0.0
    return float(arrays["wait"].mean())


def average_turnaround_time(arrays: Mapping[str, np.ndarray]) -> float:
    """Mean submission-to-completion latency."""
    if arrays["turnaround"].size == 0:
        return 0.0
    return float(arrays["turnaround"].mean())


def throughput(arrays: Mapping[str, np.ndarray]) -> float:
    """Jobs completed per unit time over the execution window.

    The paper's definition divides n by (makespan − min_j x_j), i.e.
    the span from the first *start* to the last completion. For a
    degenerate zero-length window (single instantaneous job) this
    returns ``inf``-guarded 0.0.
    """
    n = arrays["end"].size
    if n == 0:
        return 0.0
    window = float(arrays["end"].max() - arrays["start"].min())
    if window <= 0.0:
        return 0.0
    return n / window


def node_utilization(
    arrays: Mapping[str, np.ndarray], total_nodes: int
) -> float:
    """Node-seconds of work over cluster node-seconds available."""
    span = makespan(arrays)
    if span <= 0.0:
        return 0.0
    used = float((arrays["nodes"] * arrays["duration"]).sum())
    return used / (total_nodes * span)


def memory_utilization(
    arrays: Mapping[str, np.ndarray], total_memory_gb: float
) -> float:
    """GB-seconds of memory occupancy over capacity GB-seconds."""
    span = makespan(arrays)
    if span <= 0.0:
        return 0.0
    used = float((arrays["memory_gb"] * arrays["duration"]).sum())
    return used / (total_memory_gb * span)


def per_job_fairness(arrays: Mapping[str, np.ndarray]) -> float:
    """Jain index over per-job wait times."""
    return jain_index(arrays["wait"])


def per_user_fairness(arrays: Mapping[str, np.ndarray]) -> float:
    """Jain index over per-user average wait times."""
    if arrays["wait"].size == 0:
        return 1.0
    _, means = per_group_means(arrays["wait"], arrays["user"])
    return jain_index(means)


@dataclass(frozen=True, repr=False)
class MetricReport:
    """All objectives for one schedule, as an immutable record."""

    scheduler_name: str
    n_jobs: int
    values: Mapping[str, float]

    def __getitem__(self, name: str) -> float:
        return self.values[name]

    def as_dict(self) -> dict[str, float]:
        return dict(self.values)

    def __str__(self) -> str:  # pragma: no cover - convenience
        body = ", ".join(f"{k}={v:.4g}" for k, v in self.values.items())
        return f"MetricReport({self.scheduler_name}, n={self.n_jobs}: {body})"


def compute_metrics(result: ScheduleResult) -> MetricReport:
    """Compute every §3.2 objective for a finished schedule.

    Runs executed under a disruption trace additionally report the
    reliability objectives of :mod:`repro.metrics.disruption`
    (goodput/wasted node-hours, work lost per kill, requeue latency);
    undisrupted runs keep the exact legacy metric set so existing
    reports and stored artifacts stay byte-identical.
    """
    arrays = result.to_arrays()
    values = {
        "makespan": makespan(arrays),
        "avg_wait_time": average_wait_time(arrays),
        "avg_turnaround_time": average_turnaround_time(arrays),
        "throughput": throughput(arrays),
        "node_utilization": node_utilization(arrays, result.total_nodes),
        "memory_utilization": memory_utilization(
            arrays, result.total_memory_gb
        ),
        "wait_fairness": per_job_fairness(arrays),
        "user_fairness": per_user_fairness(arrays),
    }
    # Gate on ``disrupted`` alone (not on preemptions): a disrupted
    # run in which no job happened to be killed still reports the
    # reliability columns, so every run of one disruption signature
    # has the same metric keys.
    if result.disrupted:
        from repro.metrics.disruption import disruption_metrics

        values.update(disruption_metrics(result))
    return MetricReport(
        scheduler_name=result.scheduler_name,
        n_jobs=result.n_jobs,
        values=values,
    )
