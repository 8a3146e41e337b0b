"""Job model for the HPC simulator.

A job in the paper (§2.1, §3.3) is characterized by a submit time, a
duration ``d_j`` (the true runtime), a requested node count ``n_j`` and a
memory requirement ``m_j`` in GB, plus user metadata used for the
per-user fairness objective. We additionally carry ``walltime`` — the
*requested* runtime estimate — because backfilling baselines (EASY) and
real traces (Polaris) distinguish requested from actual runtime.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable


class JobState(enum.Enum):
    """Lifecycle of a job inside the simulator."""

    #: Known to the workload but not yet submitted (arrival event pending).
    PENDING = "pending"
    #: Submitted and waiting in the queue.
    QUEUED = "queued"
    #: Resources allocated; executing non-preemptively.
    RUNNING = "running"
    #: Finished; resources released.
    COMPLETED = "completed"


@dataclass(frozen=True)
class Job:
    """An immutable HPC job description.

    Parameters
    ----------
    job_id:
        Unique integer identifier within a workload.
    submit_time:
        Arrival time in seconds from workload start. The paper's static
        experiments (§3.3) submit everything at ``t = 0``; the scenario
        workloads (§3.1) use Poisson arrivals.
    duration:
        True runtime ``d_j`` in seconds, used by the simulator to
        schedule the completion event.
    nodes:
        Requested node count ``n_j``.
    memory_gb:
        Requested memory ``m_j`` in GB (aggregate across the job).
    walltime:
        Requested runtime estimate in seconds. Defaults to ``duration``
        (perfect estimates), which matches the paper's synthetic
        scenarios; trace-driven workloads may set it larger.
    user / group / name:
        Metadata used for per-user fairness and reporting.
    """

    job_id: int
    submit_time: float
    duration: float
    nodes: int
    memory_gb: float
    walltime: float = field(default=-1.0)
    user: str = "user_0"
    group: str = "group_0"
    name: str = ""

    def __post_init__(self) -> None:
        # Chained comparisons: NaN fails every one, so each check also
        # rejects NaN and inf without a separate finiteness test.
        if self.walltime < 0:
            object.__setattr__(self, "walltime", float(self.duration))
        elif not self.walltime < math.inf:
            raise ValueError(f"walltime must be finite, got {self.walltime}")
        if self.job_id < 0:
            raise ValueError(f"job_id must be non-negative, got {self.job_id}")
        if not 0.0 <= self.submit_time < math.inf:
            raise ValueError(
                "submit_time must be finite and non-negative, "
                f"got {self.submit_time}"
            )
        if not 0.0 < self.duration < math.inf:
            raise ValueError(
                f"duration must be finite and positive, got {self.duration}"
            )
        if self.nodes <= 0:
            raise ValueError(f"nodes must be positive, got {self.nodes}")
        if not 0.0 <= self.memory_gb < math.inf:
            raise ValueError(
                "memory_gb must be finite and non-negative, "
                f"got {self.memory_gb}"
            )

    @property
    def node_seconds(self) -> float:
        """Node-seconds of work, the numerator of node utilization."""
        return self.nodes * self.duration


def validate_workload(jobs: Iterable[Job]) -> list[Job]:
    """Validate a collection of jobs as a coherent workload.

    Ensures job ids are unique. Returns the jobs sorted by
    ``(submit_time, job_id)``, the canonical workload ordering.

    Raises
    ------
    ValueError
        If two jobs share an id.
    """
    ordered = sorted(jobs, key=attrgetter("submit_time", "job_id"))
    seen: set[int] = set()
    for job in ordered:
        if job.job_id in seen:
            raise ValueError(f"duplicate job_id {job.job_id} in workload")
        seen.add(job.job_id)
    return ordered


def screen_unschedulable(
    jobs: Iterable[Job], total_nodes: int, total_memory_gb: float
) -> tuple[list[Job], list[Job]]:
    """Split jobs into (schedulable, unschedulable) for a given cluster.

    A job whose request exceeds the *total* cluster capacity can never
    start; admitting one would deadlock any non-preemptive scheduler.
    The paper's generator never produces such jobs; traces might.
    Memory gets the same 1e-9 GB slack as every fit check in the
    simulator, so a job this screen keeps is one the simulator admits.
    """
    ok: list[Job] = []
    bad: list[Job] = []
    for job in jobs:
        if job.nodes > total_nodes or job.memory_gb > total_memory_gb + 1e-9:
            bad.append(job)
        else:
            ok.append(job)
    return ok, bad
