"""Shortest Job First scheduling.

The paper's second heuristic baseline (§3.3): prioritize jobs with the
shortest estimated runtime, which typically reduces average turnaround
time but can starve long jobs and compromise fairness.

``strict=True`` (default, matching the paper's simple SJF) waits when
the shortest job does not fit; ``strict=False`` starts the shortest
*feasible* job (SJF with first-fit skipping), which is occasionally
useful as an ablation.
"""

from __future__ import annotations

import numpy as np

from repro.schedulers.base import BaseScheduler
from repro.sim.actions import Action, Delay, StartJob
from repro.sim.simulator import SystemView


class SJFScheduler(BaseScheduler):
    """Shortest (estimated-runtime) job first."""

    supports_columns = True

    def __init__(self, *, strict: bool = True):
        super().__init__()
        self.strict = strict
        self.name = "sjf" if strict else "sjf_firstfit"

    @staticmethod
    def _key(job) -> tuple[float, int]:
        return (job.walltime, job.job_id)

    def _decide_columns(self, view: SystemView) -> Action:
        queue = view.queue
        # The order by (walltime, job_id) is fixed for the run and held
        # as a rank column, so the shortest job of any subset of the
        # queue is an argmin over it.
        if self.strict:
            job = queue[queue.first_by("walltime")]
            if view.can_fit(job):
                return StartJob(job.job_id)
            return Delay
        hits = np.flatnonzero(
            queue.fits_mask(view.free_nodes, view.free_memory_gb)
        )
        if hits.size:
            pos = hits[queue.rank("walltime")[hits].argmin()]
            return StartJob(queue[int(pos)].job_id)
        return Delay

    def decide(self, view: SystemView) -> Action:
        if self.columnar(view):
            return self._decide_columns(view)
        if not view.queued:
            return Delay
        if self.strict:
            head = min(view.queued, key=self._key)
            if view.can_fit(head):
                return StartJob(head.job_id)
            return Delay
        head = min(
            filter(view.can_fit, view.queued), key=self._key, default=None
        )
        if head is not None:
            return StartJob(head.job_id)
        return Delay
