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

    def __init__(self, *, strict: bool = True, use_walltime: bool = True):
        super().__init__()
        self.strict = strict
        self.use_walltime = use_walltime
        self.name = "sjf" if strict else "sjf_firstfit"

    def _key(self, job) -> tuple[float, int]:
        runtime = job.walltime if self.use_walltime else job.duration
        return (runtime, job.job_id)

    def _decide_columns(self, view: SystemView) -> Action:
        cols = view.columns()
        if not cols.n:
            return Delay
        # The order by (runtime, job_id) is fixed for the run and held
        # as a rank column, so the shortest job of any subset of the
        # queue is an argmin over it.
        key = "walltime" if self.use_walltime else "duration"
        if self.strict:
            pos = cols.first_by(key)
            if cols.fits_at(pos):
                return StartJob(cols.id_at(pos))
            return Delay
        hits = np.flatnonzero(cols.fits_mask())
        if hits.size:
            pos = hits[cols.rank(key)[hits].argmin()]
            return StartJob(cols.id_at(int(pos)))
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
