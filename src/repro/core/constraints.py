"""Natural-language feedback for constraint violations (paper §2.4).

The simulator validates every proposed action; when it rejects one,
this module renders the structured violations into the feedback string
appended to the scratchpad — the exact style of Fig. 2's trace::

    [t=1554] Action: StartJob failed (not enough resources)
    Feedback: Job 32 cannot be started — requires 256 Nodes, 8 GB;
    available: 238 Nodes, 576 GB.

The next prompt carries this text, letting the model correct itself
without retraining.
"""

from __future__ import annotations

from repro.sim.actions import Action, ActionKind
from repro.sim.constraints import Violation, ViolationKind
from repro.sim.simulator import SystemView


def render_feedback(
    action: Action,
    violations: tuple[Violation, ...],
    view: SystemView,
) -> str:
    """One feedback string covering every violation of *action*."""
    if not violations:
        return ""

    kinds = {v.kind for v in violations}
    job_id = action.job_id

    if action.kind is ActionKind.STOP:
        return (
            "Stop rejected — jobs remain in the queue or are still "
            "arriving; continue scheduling."
        )

    if kinds & {
        ViolationKind.INSUFFICIENT_NODES,
        ViolationKind.INSUFFICIENT_MEMORY,
    }:
        job = view.queued_job(job_id) if job_id is not None else None
        if job is not None:
            return (
                f"Job {job.job_id} cannot be started — requires "
                f"{job.nodes} Nodes, {job.memory_gb:g} GB; available: "
                f"{view.free_nodes} Nodes, {view.free_memory_gb:g} GB."
            )

    if ViolationKind.NOT_QUEUED in kinds:
        return (
            f"Job {job_id} is not in the waiting queue (it may be "
            "running, completed, or unknown); choose a job from the "
            "Waiting Jobs list."
        )

    if ViolationKind.MALFORMED_ACTION in kinds:
        return (
            "The action was malformed; return exactly one of "
            "StartJob(job_id=X), BackfillJob(job_id=Y), Delay, or Stop."
        )

    # Generic fallback: concatenate the structured details.
    details = "; ".join(v.detail or v.kind.value for v in violations)
    return f"Action {action.render()} rejected — {details}."


def render_parse_feedback(error: Exception) -> str:
    """Feedback for replies the action parser could not understand."""
    return (
        f"Your reply could not be parsed ({error}). Respond in the "
        "format 'Thought: <reasoning>' followed by 'Action: <action>' "
        "where <action> is StartJob(job_id=X), BackfillJob(job_id=Y), "
        "Delay, or Stop."
    )
