"""Schedule results: what a simulation run produces.

A finished run yields one :class:`JobRecord` per job (submit/start/end
times plus the original job), a chronological list of
:class:`DecisionRecord` (every action the scheduler proposed, whether it
was accepted, and any violations), and free-form extras attached by the
scheduler (the LLM agent stores its call/latency records there).

:class:`ScheduleResult` also exposes the numpy-array view the metrics
layer consumes (guide idiom: vectorize the numeric hot path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.sim.actions import Action
from repro.sim.constraints import Violation
from repro.sim.disruptions import PreemptionRecord
from repro.sim.job import Job


@dataclass(frozen=True, repr=False)
class JobRecord:
    """Execution record of one completed job.

    ``killed`` marks jobs terminated at their walltime limit (only
    possible when the simulator runs with ``enforce_walltime=True`` and
    the true duration exceeded the request).
    """

    job: Job
    start_time: float
    end_time: float
    killed: bool = False

    def __post_init__(self) -> None:
        if self.start_time < self.job.submit_time - 1e-9:
            raise ValueError(
                f"job {self.job.job_id} started at {self.start_time} before "
                f"its submission at {self.job.submit_time}"
            )
        if self.end_time < self.start_time:
            raise ValueError(
                f"job {self.job.job_id} ended before it started"
            )

    @property
    def wait_time(self) -> float:
        """Queued time before execution: start − submit."""
        return self.start_time - self.job.submit_time


@dataclass(frozen=True, repr=False)
class DecisionRecord:
    """One scheduler decision as seen by the simulator."""

    time: float
    action: Action
    accepted: bool
    violations: tuple[Violation, ...] = ()
    retry_index: int = 0
    meta: Mapping[str, Any] = field(default_factory=dict)


@dataclass(eq=False, repr=False)
class ScheduleResult:
    """Everything a simulation run produced.

    Attributes
    ----------
    records:
        One :class:`JobRecord` per completed job, in completion order.
    decisions:
        Every proposed action in chronological order (accepted or not).
    total_nodes / total_memory_gb:
        Cluster capacity the run used (denominators for utilization).
    scheduler_name:
        Name of the scheduling policy that produced the run.
    extras:
        Scheduler-attached artifacts (e.g. LLM call records, annealer
        statistics). Keys are scheduler-specific.
    preemptions:
        One :class:`~repro.sim.disruptions.PreemptionRecord` per kill
        (node failure or drain eviction), in chronological order. Empty
        for undisrupted runs.
    disrupted:
        True when the run executed under a non-empty disruption trace
        (even if no job happened to be killed); gates the extra
        disruption metrics so undisrupted reports stay byte-identical
        to the pre-disruption code.
    """

    records: list[JobRecord]
    decisions: list[DecisionRecord]
    total_nodes: int
    total_memory_gb: float
    scheduler_name: str = ""
    extras: dict[str, Any] = field(default_factory=dict)
    preemptions: list[PreemptionRecord] = field(default_factory=list)
    disrupted: bool = False

    # -- array views ---------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Vectorized view of the schedule for metric computation.

        Returns a dict of equally-sized arrays: ``submit``, ``start``,
        ``end``, ``duration``, ``nodes``, ``memory_gb``, ``wait``,
        ``turnaround`` (float64) and ``user`` (object array of user
        labels), ``job_id`` (int64).
        """
        records = self.records
        jobs = [rec.job for rec in records]
        out = {
            "submit": np.array([job.submit_time for job in jobs], dtype=float),
            "start": np.array([rec.start_time for rec in records], dtype=float),
            "end": np.array([rec.end_time for rec in records], dtype=float),
            # Actual runtime (differs from job.duration for jobs killed
            # at their walltime limit).
            "duration": np.array(
                [rec.end_time - rec.start_time for rec in records], dtype=float
            ),
            "nodes": np.array([job.nodes for job in jobs], dtype=float),
            "memory_gb": np.array([job.memory_gb for job in jobs], dtype=float),
            "job_id": np.array([job.job_id for job in jobs], dtype=np.int64),
            "user": np.empty(len(jobs), dtype=object),
        }
        out["user"][:] = [job.user for job in jobs]
        out["wait"] = out["start"] - out["submit"]
        out["turnaround"] = out["end"] - out["submit"]
        return out

    # -- convenience ----------------------------------------------------
    @property
    def n_jobs(self) -> int:
        return len(self.records)

    @property
    def makespan(self) -> float:
        """Earliest submission to last completion (paper §3.2)."""
        if not self.records:
            return 0.0
        first_submit = min(r.job.submit_time for r in self.records)
        last_end = max(r.end_time for r in self.records)
        return last_end - first_submit

    @property
    def accepted_placements(self) -> list[DecisionRecord]:
        """Accepted StartJob/BackfillJob decisions (the set overhead
        analysis restricts to, paper §3.7.1)."""
        return [
            d for d in self.decisions if d.accepted and d.action.places_job
        ]

    @property
    def rejected_decisions(self) -> list[DecisionRecord]:
        return [d for d in self.decisions if not d.accepted]

    def record_for(self, job_id: int) -> JobRecord:
        """Record of a specific job (raises ``KeyError`` if absent)."""
        for rec in self.records:
            if rec.job.job_id == job_id:
                return rec
        raise KeyError(f"no record for job {job_id}")

    # -- verification ----------------------------------------------------
    def max_concurrent_usage(self) -> tuple[float, float]:
        """Peak simultaneous (nodes, memory) over the whole schedule.

        Computed with an event sweep over start/end points; tests use
        this to assert the capacity invariant independently of the
        cluster model's online accounting.
        """
        records = self.records
        if not records:
            return (0.0, 0.0)
        n = len(records)
        jobs = [rec.job for rec in records]
        # Per record an end point, then a start point; a stable sort by
        # (time, kind) puts ends before starts at equal times
        # (half-open intervals) and keeps record order otherwise.
        time = np.empty(2 * n)
        time[0::2] = [rec.end_time for rec in records]
        time[1::2] = [rec.start_time for rec in records]
        kind = np.tile(np.array([0, 1], dtype=np.int8), n)
        order = np.lexsort((kind, time))

        def peak(amounts: list) -> float:
            delta = np.empty(2 * n)
            delta[1::2] = amounts
            delta[0::2] = -delta[1::2]
            # cumsum adds in sequence, as a running total would.
            return max(0.0, float(np.cumsum(delta[order]).max()))

        return (
            peak([job.nodes for job in jobs]),
            peak([job.memory_gb for job in jobs]),
        )

    def verify_capacity(self) -> None:
        """Raise ``AssertionError`` if the schedule ever oversubscribed
        the cluster."""
        peak_nodes, peak_mem = self.max_concurrent_usage()
        assert peak_nodes <= self.total_nodes + 1e-9, (
            f"node capacity violated: peak {peak_nodes} > {self.total_nodes}"
        )
        assert peak_mem <= self.total_memory_gb + 1e-6, (
            f"memory capacity violated: peak {peak_mem} > {self.total_memory_gb}"
        )
