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
cannot push that reservation back.
"""

from __future__ import annotations

from itertools import islice
from typing import Sequence

import numpy as np

from repro.schedulers.base import BaseScheduler
from repro.schedulers.recovery import (
    domain_pressures,
    fits_healthy_domain,
    healthy_domain_mask,
)
from repro.sim.actions import Action, BackfillJob, Delay, StartJob
from repro.sim.job import Job
from repro.sim.simulator import RunningJob, SystemView


class FCFSScheduler(BaseScheduler):
    """Strict arrival-order scheduling without backfilling."""

    name = "fcfs"

    def decide(self, view: SystemView) -> Action:
        if not view.queued:
            return Delay
        head = view.queued[0]
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
    backfilled unless some healthy domain — enough free nodes after
    announced domain-scoped drains are charged as single capacity
    notches — can host its restart
    (:func:`~repro.schedulers.recovery.fits_healthy_domain`). Flat
    topologies and undisrupted runs skip the check entirely.
    """

    name = "fcfs_backfill"
    supports_columns = True

    def decide(self, view: SystemView) -> Action:
        if not view.queued:
            return Delay
        head = view.queued[0]
        head_fits = view.can_fit(head)
        if head_fits and view.drain_safe(head):
            return StartJob(head.job_id)
        if head_fits:
            # Drain-parked head: it could start right now, so its
            # reservation is the earliest drain-safe time (typically
            # the blocking window's end), and the resources it will
            # take then are exactly its own request. Short jobs ending
            # before that shadow may borrow the head's share — without
            # this, head_reservation would return shadow == now
            # (the head "fits immediately") and the backfill window
            # would collapse for the whole announce lead + window.
            shadow = view.earliest_drain_safe_start(head)
            extra_nodes = view.free_nodes - head.nodes
            extra_mem = view.free_memory_gb - head.memory_gb
        else:
            shadow, extra_nodes, extra_mem = head_reservation(
                head, view.running, view
            )
        spread_check = bool(view.remaining_runtimes) and view.has_domains
        pressures = domain_pressures(view) if spread_check else ()
        if self.columnar(view):
            # Vectorized candidate scan: one boolean mask per facade
            # predicate, elementwise-identical arithmetic (same 1e-9
            # slacks, same float64 adds), so the first set bit is the
            # exact job the scalar scan would have returned.
            cols = view.columns()
            ok = cols.fits_mask() & cols.drain_safe_mask()
            if spread_check:
                unhealthy = cols.requeued_mask() & ~healthy_domain_mask(
                    view, cols.nodes, pressures
                )
                ok &= ~unhealthy
            ok &= (view.now + cols.walltime <= shadow + 1e-9) | (
                (cols.nodes <= extra_nodes)
                & (cols.memory_gb <= extra_mem + 1e-9)
            )
            ok[0] = False  # the head is the reservation, not a candidate
            hits = np.flatnonzero(ok)
            if hits.size:
                self._set_meta(
                    shadow_time=shadow,
                    reserved_job=head.job_id,
                )
                return BackfillJob(cols.id_at(int(hits[0])))
            return Delay
        # islice avoids copying the (possibly long) queue tuple per
        # decision just to skip the head.
        for job in islice(view.queued, 1, None):
            if not view.can_fit(job) or not view.drain_safe(job):
                continue
            if (
                spread_check
                and job.job_id in view.remaining_runtimes
                and not fits_healthy_domain(view, job, pressures)
            ):
                continue
            ends_before_shadow = view.now + job.walltime <= shadow + 1e-9
            fits_in_extras = (
                job.nodes <= extra_nodes
                and job.memory_gb <= extra_mem + 1e-9
            )
            if ends_before_shadow or fits_in_extras:
                self._set_meta(
                    shadow_time=shadow,
                    reserved_job=head.job_id,
                )
                return BackfillJob(job.job_id)
        return Delay
