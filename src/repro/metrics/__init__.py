"""Scheduling performance objectives (paper §3.2).

Seven standard objectives capturing system-level efficiency and
user-perceived responsiveness: makespan, average wait time, average
turnaround time, throughput, node utilization, memory utilization, and
Jain fairness from both per-job and per-user perspectives.

All computations are numpy-vectorized over the
:meth:`~repro.sim.schedule.ScheduleResult.to_arrays` view.
"""

from repro.metrics.disruption import (
    DISRUPTION_METRIC_NAMES,
    disruption_metrics,
    goodput_fraction,
    goodput_node_hours,
    mean_requeue_latency,
    wasted_node_hours,
    work_lost_per_kill,
)
from repro.metrics.fairness import jain_index
from repro.metrics.normalize import (
    LOWER_BETTER,
    HIGHER_BETTER,
    normalize_to_baseline,
)
from repro.metrics.objectives import (
    METRIC_NAMES,
    MetricReport,
    average_turnaround_time,
    average_wait_time,
    compute_metrics,
    makespan,
    memory_utilization,
    node_utilization,
    per_job_fairness,
    per_user_fairness,
    throughput,
)

__all__ = [
    "DISRUPTION_METRIC_NAMES",
    "HIGHER_BETTER",
    "LOWER_BETTER",
    "METRIC_NAMES",
    "MetricReport",
    "disruption_metrics",
    "average_turnaround_time",
    "average_wait_time",
    "compute_metrics",
    "goodput_fraction",
    "goodput_node_hours",
    "jain_index",
    "makespan",
    "mean_requeue_latency",
    "memory_utilization",
    "node_utilization",
    "normalize_to_baseline",
    "per_job_fairness",
    "per_user_fairness",
    "throughput",
    "wasted_node_hours",
    "work_lost_per_kill",
]
