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
from dataclasses import dataclass, field, replace
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
    #: Ids of jobs that must *complete* before this one becomes
    #: eligible to schedule (the paper's §6 future-work constraint;
    #: see :func:`validate_dependencies`). Empty for independent jobs.
    depends_on: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.walltime < 0:
            object.__setattr__(self, "walltime", float(self.duration))
        if self.job_id < 0:
            raise ValueError(f"job_id must be non-negative, got {self.job_id}")
        if self.submit_time < 0:
            raise ValueError(
                f"submit_time must be non-negative, got {self.submit_time}"
            )
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.nodes <= 0:
            raise ValueError(f"nodes must be positive, got {self.nodes}")
        if self.memory_gb < 0:
            raise ValueError(
                f"memory_gb must be non-negative, got {self.memory_gb}"
            )
        if not isinstance(self.depends_on, tuple):
            object.__setattr__(self, "depends_on", tuple(self.depends_on))
        if self.job_id in self.depends_on:
            raise ValueError(f"job {self.job_id} cannot depend on itself")

    def with_submit_time(self, submit_time: float) -> "Job":
        """Return a copy with a different submit time (used by arrival
        process rewriting and the all-at-zero experimental mode)."""
        return replace(self, submit_time=float(submit_time))

    def scaled(self, duration_factor: float = 1.0) -> "Job":
        """Return a copy with duration (and walltime) scaled — handy for
        sensitivity sweeps."""
        return replace(
            self,
            duration=self.duration * duration_factor,
            walltime=self.walltime * duration_factor,
        )

    @property
    def node_seconds(self) -> float:
        """Node-seconds of work, the numerator of node utilization."""
        return self.nodes * self.duration

    @property
    def memory_gb_seconds(self) -> float:
        """GB-seconds of memory occupancy."""
        return self.memory_gb * self.duration


def validate_workload(jobs: Iterable[Job]) -> list[Job]:
    """Validate a collection of jobs as a coherent workload.

    Ensures job ids are unique. Returns the jobs sorted by
    ``(submit_time, job_id)``, the canonical workload ordering.

    Raises
    ------
    ValueError
        If two jobs share an id.
    """
    ordered = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
    seen: set[int] = set()
    for job in ordered:
        if job.job_id in seen:
            raise ValueError(f"duplicate job_id {job.job_id} in workload")
        seen.add(job.job_id)
    return ordered


def validate_dependencies(jobs: Iterable[Job]) -> None:
    """Validate the dependency structure of a workload.

    Every ``depends_on`` id must exist in the workload, and the
    dependency graph must be acyclic (a cycle would deadlock any
    non-preemptive scheduler). Raises ``ValueError`` otherwise.
    """
    by_id = {j.job_id: j for j in jobs}
    for job in by_id.values():
        for dep in job.depends_on:
            if dep not in by_id:
                raise ValueError(
                    f"job {job.job_id} depends on unknown job {dep}"
                )
    # Iterative three-colour DFS for cycle detection.
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {jid: WHITE for jid in by_id}
    for root in by_id:
        if colour[root] != WHITE:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        colour[root] = GREY
        while stack:
            node, idx = stack[-1]
            deps = by_id[node].depends_on
            if idx < len(deps):
                stack[-1] = (node, idx + 1)
                child = deps[idx]
                if colour[child] == GREY:
                    raise ValueError(
                        f"dependency cycle involving jobs {node} and {child}"
                    )
                if colour[child] == WHITE:
                    colour[child] = GREY
                    stack.append((child, 0))
            else:
                colour[node] = BLACK
                stack.pop()


def screen_unschedulable(
    jobs: Iterable[Job], total_nodes: int, total_memory_gb: float
) -> tuple[list[Job], list[Job]]:
    """Split jobs into (schedulable, unschedulable) for a given cluster.

    A job whose request exceeds the *total* cluster capacity can never
    start; admitting one would deadlock any non-preemptive scheduler.
    The paper's generator never produces such jobs; traces might.
    """
    ok: list[Job] = []
    bad: list[Job] = []
    for job in jobs:
        if job.nodes > total_nodes or job.memory_gb > total_memory_gb:
            bad.append(job)
        else:
            ok.append(job)
    return ok, bad
