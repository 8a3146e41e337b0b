"""First-Come-First-Served scheduling.

:class:`FCFSScheduler` is the paper's baseline (§3.3): execute jobs
strictly in arrival order, starting the head job whenever resources
permit and otherwise waiting — which is exactly what makes it
vulnerable to convoy effects (§3.1's Long-Job-Dominant and Adversarial
scenarios exist to expose that).

:class:`EasyBackfillScheduler` adds EASY backfilling (Srinivasan et
al., cited by the paper as the classic FCFS+backfilling approach): when
the head job cannot start, a *reservation* is computed for it — the
earliest time enough resources will be free, assuming running jobs end
at their walltime — and smaller jobs may jump the queue only if they
cannot push that reservation back. Candidates are tried in queue
order and the first that qualifies starts, so the scan stops there.
"""

from __future__ import annotations

from itertools import islice
from typing import Sequence

from repro.schedulers.base import BaseScheduler
from repro.schedulers.recovery import fits_healthy_domain
from repro.sim.actions import Action, BackfillJob, Delay, StartJob
from repro.sim.job import Job
from repro.sim.simulator import RunningJob, SystemView


class FCFSScheduler(BaseScheduler):
    """Strict arrival-order scheduling without backfilling."""

    name = "fcfs"

    def decide(self, view: SystemView) -> Action:
        head = view.queue.head
        if head is None:
            return Delay
        if view.can_fit(head):
            return StartJob(head.job_id)
        return Delay


def head_reservation(
    head: Job, running: tuple[RunningJob, ...], view: SystemView
) -> tuple[float, int, float]:
    """Compute the EASY reservation for the blocked head job.

    Walks running jobs in walltime-completion order, accumulating
    released resources until *head* fits. Returns ``(shadow_time,
    extra_nodes, extra_memory)`` where the extras are the resources
    that remain free at the shadow time beyond what *head* needs —
    backfilled work small enough to fit in the extras can run past the
    shadow time without delaying the head job.

    When *running* is the view's own running set, the traversal uses
    the simulator-maintained completion-ordered index
    (:meth:`SystemView.running_by_walltime_end`) instead of re-sorting
    on every blocked decision.
    """
    free_nodes = view.free_nodes
    free_mem = view.free_memory_gb
    shadow = view.now
    if running is view.running:
        releases: Sequence[RunningJob] = view.running_by_walltime_end()
    else:
        releases = sorted(
            running, key=lambda r: r.start_time + r.job.walltime
        )
    for run in releases:
        if free_nodes >= head.nodes and free_mem >= head.memory_gb - 1e-9:
            break
        shadow = run.start_time + run.job.walltime
        free_nodes += run.job.nodes
        free_mem += run.job.memory_gb
    # All releases may be needed; shadow is then the last release time.
    extra_nodes = free_nodes - head.nodes
    extra_mem = free_mem - head.memory_gb
    return shadow, extra_nodes, extra_mem


def _reservation(
    view: SystemView, head: Job, head_fits: bool
) -> tuple[float, int, float]:
    """``(shadow_time, extra_nodes, extra_memory)`` for a head that
    cannot be started now, whichever way it is blocked."""
    if head_fits:
        # Drain-parked head: it could start right now, so its
        # reservation is the earliest drain-safe time (typically the
        # blocking window's end), and the resources it will take then
        # are exactly its own request. Short jobs ending before that
        # shadow may borrow the head's share — without this,
        # head_reservation would return shadow == now (the head "fits
        # immediately") and the backfill window would collapse for the
        # whole announce lead + window.
        return (
            view.earliest_drain_safe_start(head),
            view.free_nodes - head.nodes,
            view.free_memory_gb - head.memory_gb,
        )
    return head_reservation(head, view.running, view)


class EasyBackfillScheduler(BaseScheduler):
    """FCFS with EASY (aggressive) backfilling, drain-aware.

    A queued job *j* may backfill iff it fits right now and either

    * it finishes (by walltime) before the head job's reservation, or
    * it only consumes resources the head job will not need at its
      reservation time.

    Recovery awareness: no job (head or backfill) is started across an
    announced maintenance drain it might not survive
    (:meth:`SystemView.drain_safe` — vacuously true on undisrupted
    runs, so the policy is byte-identical to plain EASY there). A
    drain-blocked head is treated like a capacity-blocked one:
    shorter/safer jobs may still backfill around it.

    Topology awareness: on clusters with real failure domains, a
    *requeued* job (one a failure or drain already evicted) is not
    backfilled unless some healthy domain — a rack, or a switch group
    for jobs wider than a rack, with enough free nodes — can host its
    restart
    (:func:`~repro.schedulers.recovery.fits_healthy_domain`). Flat
    topologies and undisrupted runs skip the check entirely.

    A decision is one pass over the queue snapshot behind the head, in
    queue order, that stops at the first job allowed to backfill; it
    builds neither the view's ``queued`` tuple nor its columns. The
    policy has no columnar kernel: a whole-queue mask pays for every
    queued job on every decision, while the first hit is typically a
    fraction of the way down the queue.
    """

    name = "fcfs_backfill"

    def decide(self, view: SystemView) -> Action:
        self._clear_meta()
        queue = view.queue
        head = queue.head
        if head is None:
            return Delay
        free_nodes = view.free_nodes
        if free_nodes < queue.min_nodes:
            # Fewer free nodes than the smallest request queued: the
            # head is blocked and nothing can backfill around it.
            return Delay
        head_fits = view.can_fit(head)
        if head_fits and view.drain_safe(head):
            return StartJob(head.job_id)
        # What could start right now comes first: only if something
        # can is the head's reservation worth computing, and then once.
        mem_limit = view.free_memory_gb + 1e-9
        drains = view.upcoming_drains
        requeued = view.remaining_runtimes
        shadow = None
        for job in islice(queue, 1, None):
            if not (
                job.nodes <= free_nodes and job.memory_gb <= mem_limit
            ) or (drains and not view.drain_safe(job)):
                continue
            if shadow is None:
                shadow, extra_nodes, extra_mem = _reservation(
                    view, head, head_fits
                )
            if job.job_id in requeued and not fits_healthy_domain(view, job):
                continue
            if view.now + job.walltime <= shadow + 1e-9 or (
                job.nodes <= extra_nodes
                and job.memory_gb <= extra_mem + 1e-9
            ):
                self._set_meta(shadow_time=shadow, reserved_job=head.job_id)
                return BackfillJob(job.job_id)
        return Delay
