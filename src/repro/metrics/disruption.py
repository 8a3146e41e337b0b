"""Reliability objectives for disrupted runs.

Complements the paper's §3.2 objectives (which measure a perfectly
reliable cluster) with the quantities that matter once failures and
drains exist — steady state is where schedulers look similar, recovery
is where they differentiate:

* **goodput / wasted node-hours** — node-time that ended up in
  completed work vs. node-time executed and then thrown away by kills
  (work past the last checkpoint is re-done on restart);
* **goodput fraction** — goodput / (goodput + wasted), the
  dimensionless efficiency of the recovery path;
* **work lost per kill** — mean node-seconds discarded per kill
  (failure or drain eviction);
* **requeue latency** — mean seconds a killed job waited between its
  eviction and its restart.

Runs whose trace carries *domain-level* events (correlated rack/switch
shocks) additionally report the **blast-radius** objectives:

* **largest event loss** — the worst single event's total discarded
  node-hours, grouping every kill at one (time, reason, domain) into
  one event: the quantity a whole-rack shock maximizes and independent
  node churn cannot;
* **domain kills / domains hit** — kills attributed to a named failure
  domain, and how many distinct domains were struck.

These are computed from the :class:`~repro.sim.schedule.ScheduleResult`
preemption log and appear in :func:`~repro.metrics.objectives.compute_metrics`
output only for disrupted runs, so undisrupted reports/stores remain
byte-identical to the pre-disruption code — and the blast-radius
columns appear only for domain-event traces, so zero-correlation
disrupted runs keep the exact PR-3 metric set.
"""

from __future__ import annotations

from typing import Iterable

from repro.sim.schedule import ScheduleResult

#: Metric columns every disrupted run reports, in display order.
CORE_DISRUPTION_METRIC_NAMES: tuple[str, ...] = (
    "goodput_node_hours",
    "wasted_node_hours",
    "goodput_fraction",
    "n_kills",
    "work_lost_per_kill",
    "mean_requeue_latency",
)

#: Blast-radius columns, reported only by runs whose trace carried
#: domain-level events (correlated shocks).
BLAST_METRIC_NAMES: tuple[str, ...] = (
    "largest_event_loss_node_hours",
    "n_domain_kills",
    "domains_hit",
)

#: Every reliability column a report may render, in display order.
DISRUPTION_METRIC_NAMES: tuple[str, ...] = (
    CORE_DISRUPTION_METRIC_NAMES + BLAST_METRIC_NAMES
)


def _left_fold(values: Iterable[float]) -> float:
    """Sum *values* left to right in plain float arithmetic.

    Not builtin ``sum()``: from Python 3.12 it compensates float
    rounding, so every disrupted run's metrics — and the digests that
    pin them — would depend on the interpreter. The fold is the value
    ``sum()`` returned on 3.11, where the goldens were recorded.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def goodput_node_hours(result: ScheduleResult) -> float:
    """Node-hours of *useful* (committed) work.

    Each record's final attempt span is work kept, and every
    checkpointed chunk a preemption preserved was kept too — together
    they sum to each job's true duration, so goodput is independent of
    how often a job was bounced around.
    """
    useful = _left_fold(
        rec.job.nodes * (rec.end_time - rec.start_time)
        for rec in result.records
    )
    useful += _left_fold(p.nodes * p.work_saved for p in result.preemptions)
    return useful / 3600.0


def wasted_node_hours(result: ScheduleResult) -> float:
    """Node-hours executed and then discarded by kills (work done
    since the last checkpoint when the node died / the drain hit)."""
    return _left_fold(p.lost_node_seconds for p in result.preemptions) / 3600.0


def goodput_fraction(result: ScheduleResult) -> float:
    """Useful work over total work executed, in (0, 1]."""
    good = goodput_node_hours(result)
    waste = wasted_node_hours(result)
    total = good + waste
    if total <= 0.0:
        return 1.0
    return good / total


def work_lost_per_kill(result: ScheduleResult) -> float:
    """Mean node-seconds discarded per kill."""
    kills = result.preemptions
    if not kills:
        return 0.0
    return _left_fold(p.lost_node_seconds for p in kills) / len(kills)


def mean_requeue_latency(result: ScheduleResult) -> float:
    """Mean seconds between a kill and the victim's restart (victims
    never restarted are left out)."""
    latencies = [
        p.requeue_latency
        for p in result.preemptions
        if p.requeue_latency is not None
    ]
    if not latencies:
        return 0.0
    return _left_fold(latencies) / len(latencies)


def largest_event_loss_node_hours(result: ScheduleResult) -> float:
    """Worst single disruption event's discarded node-hours.

    Kills sharing (time, reason, domain) belong to one physical event:
    a rack shock evicting five jobs at t is one event of five kills,
    as is a drain preempting several victims at its start. The metric
    is the blast radius a correlated regime maximizes — under
    independent node churn every event holds one kill and this tends
    toward ``work_lost_per_kill``'s largest sample.
    """
    events: dict[tuple[float, str, "str | None"], float] = {}
    for p in result.preemptions:
        key = (p.time, p.reason, p.domain)
        events[key] = events.get(key, 0.0) + p.lost_node_seconds
    if not events:
        return 0.0
    return max(events.values()) / 3600.0


def domain_kill_counts(result: ScheduleResult) -> dict[str, int]:
    """Kills per named failure domain (``rack3`` → 5)."""
    counts: dict[str, int] = {}
    for p in result.preemptions:
        if p.domain is not None:
            counts[p.domain] = counts.get(p.domain, 0) + 1
    return dict(sorted(counts.items()))


def blast_radius_metrics(result: ScheduleResult) -> dict[str, float]:
    """Blast-radius objectives for a domain-event (correlated) run."""
    per_domain = domain_kill_counts(result)
    return {
        "largest_event_loss_node_hours": largest_event_loss_node_hours(
            result
        ),
        "n_domain_kills": float(sum(per_domain.values())),
        "domains_hit": float(len(per_domain)),
    }


def disruption_metrics(result: ScheduleResult) -> dict[str, float]:
    """All reliability objectives for one (disrupted) schedule.

    Blast-radius columns are included only when the run's trace carried
    domain-level events (the simulator marks those via
    ``result.extras["domain_events"]``), keeping zero-correlation runs'
    metric dicts exactly as the pre-topology engine produced them.
    """
    values = {
        "goodput_node_hours": goodput_node_hours(result),
        "wasted_node_hours": wasted_node_hours(result),
        "goodput_fraction": goodput_fraction(result),
        "n_kills": float(len(result.preemptions)),
        "work_lost_per_kill": work_lost_per_kill(result),
        "mean_requeue_latency": mean_requeue_latency(result),
    }
    if result.extras.get("domain_events"):
        values.update(blast_radius_metrics(result))
    return values
