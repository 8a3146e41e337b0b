"""Normalization of metrics against the FCFS baseline.

Every figure in the paper reports metrics normalized so FCFS = 1.0
(§3.5): for *negative* metrics (makespan, wait, turnaround) lower
normalized values are better; for *positive* metrics (throughput,
utilizations, fairness) higher is better.

When FCFS achieves exactly 0 on a metric that the candidate also
achieves 0 on, the ratio is 0/0; the paper omits the metric from the
comparison (§3.5's note about wait time). We encode that as ``nan``.
A nonzero value over a zero baseline is reported as ``inf``.
"""

from __future__ import annotations

import math
from typing import Mapping

#: Metrics where lower values are better.
LOWER_BETTER: frozenset[str] = frozenset(
    {
        "makespan",
        "avg_wait_time",
        "avg_turnaround_time",
        # Reliability objectives (disrupted runs only).
        "wasted_node_hours",
        "n_kills",
        "work_lost_per_kill",
        "mean_requeue_latency",
        # Blast-radius objectives (correlated/domain-event runs only).
        "largest_event_loss_node_hours",
        "n_domain_kills",
        "domains_hit",
    }
)

#: Metrics where higher values are better.
HIGHER_BETTER: frozenset[str] = frozenset(
    {
        "throughput",
        "node_utilization",
        "memory_utilization",
        "wait_fairness",
        "user_fairness",
        # Reliability objectives (disrupted runs only).
        "goodput_node_hours",
        "goodput_fraction",
    }
)


def normalize_to_baseline(
    values: Mapping[str, float], baseline: Mapping[str, float]
) -> dict[str, float]:
    """Element-wise ``values / baseline`` with the paper's 0/0 handling.

    Returns a dict over the keys of *values*; keys missing from
    *baseline* raise ``KeyError`` (a normalization against a baseline
    that never measured the metric is a bug, not a 0/0).
    """
    out: dict[str, float] = {}
    for name, value in values.items():
        base = baseline[name]
        if base == 0.0:
            out[name] = math.nan if value == 0.0 else math.inf
        else:
            out[name] = value / base
    return out
