"""Structured constraint validation.

The paper separates *reasoning* from *enforcement* (§2.4): the simulator
validates each proposed action, executes feasible ones, and explains
violations. This module produces structured :class:`Violation` records;
:mod:`repro.core.constraints` renders them into the natural-language
feedback the LLM agent appends to its scratchpad.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.sim.actions import Action, ActionKind
from repro.sim.cluster import ResourcePool
from repro.sim.job import Job


class ViolationKind(enum.Enum):
    """Why a proposed action was rejected."""

    NOT_QUEUED = "not_queued"
    INSUFFICIENT_NODES = "insufficient_nodes"
    INSUFFICIENT_MEMORY = "insufficient_memory"
    EXCEEDS_CAPACITY = "exceeds_capacity"
    PREMATURE_STOP = "premature_stop"
    MALFORMED_ACTION = "malformed_action"


@dataclass(frozen=True)
class Violation:
    """One reason an action is infeasible, with enough context to
    render an actionable natural-language explanation."""

    kind: ViolationKind
    job_id: Optional[int] = None
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        core = self.kind.value
        if self.job_id is not None:
            core += f"(job {self.job_id})"
        return f"{core}: {self.detail}" if self.detail else core


class ConstraintChecker:
    """Validates scheduler actions against the current system state.

    Enforced constraints (paper §2.1 / §3.3):

    * node capacity — the active set must never request more than
      ``N_total`` nodes;
    * memory capacity — likewise for ``M_total`` GB;
    * job feasibility/eligibility — only queued, already-submitted jobs
      may start; ids must exist;
    * ``Stop`` is only legal once every job has been scheduled.
    """

    def validate(
        self,
        action: Action,
        *,
        queued: dict[int, Job],
        cluster: ResourcePool,
        all_scheduled: bool,
    ) -> tuple[Violation, ...]:
        """Validate *action* against the queue and cluster state; return
        every reason it is infeasible (empty: the action is valid).

        Parameters
        ----------
        action:
            The proposed action.
        queued:
            Jobs currently eligible to start, keyed by id.
        cluster:
            The cluster model (free/total resources).
        all_scheduled:
            True when no job remains queued or pending-arrival (running
            jobs may still exist; ``Stop`` is legal then).
        """
        if action.kind is ActionKind.DELAY:
            return ()

        if action.kind is ActionKind.STOP:
            if all_scheduled:
                return ()
            return (
                Violation(
                    ViolationKind.PREMATURE_STOP,
                    detail="jobs remain in the queue or are still arriving",
                ),
            )

        # StartJob / BackfillJob
        job_id = action.job_id
        if job_id is None:
            return (
                Violation(
                    ViolationKind.MALFORMED_ACTION,
                    detail=f"{action.kind.value} requires a job_id",
                ),
            )

        job = queued.get(job_id)
        if job is None:
            return (
                Violation(
                    ViolationKind.NOT_QUEUED,
                    job_id=job_id,
                    detail=(
                        f"job {job_id} is not in the waiting queue "
                        "(unknown, already running, or completed)"
                    ),
                ),
            )

        violations: list[Violation] = []
        if job.nodes > cluster.total_nodes or (
            job.memory_gb > cluster.total_memory_gb + 1e-9
        ):
            violations.append(
                Violation(
                    ViolationKind.EXCEEDS_CAPACITY,
                    job_id=job_id,
                    detail=(
                        f"requires {job.nodes} nodes / {job.memory_gb:g} GB; "
                        f"cluster capacity is {cluster.total_nodes} nodes / "
                        f"{cluster.total_memory_gb:g} GB"
                    ),
                )
            )
        else:
            if job.nodes > cluster.free_nodes:
                violations.append(
                    Violation(
                        ViolationKind.INSUFFICIENT_NODES,
                        job_id=job_id,
                        detail=(
                            f"requires {job.nodes} nodes; "
                            f"available: {cluster.free_nodes}"
                        ),
                    )
                )
            if job.memory_gb > cluster.free_memory_gb + 1e-9:
                violations.append(
                    Violation(
                        ViolationKind.INSUFFICIENT_MEMORY,
                        job_id=job_id,
                        detail=(
                            f"requires {job.memory_gb:g} GB; "
                            f"available: {cluster.free_memory_gb:g} GB"
                        ),
                    )
                )

        return tuple(violations)
