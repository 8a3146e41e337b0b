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
        runtime = cols.walltime if self.use_walltime else cols.duration
        # lexsort's *last* key is primary: runtime ascending, job-id
        # tie-break — the same total order as sorting (runtime, id)
        # key tuples, with no per-job lambda call.
        order = np.lexsort((cols.ids, runtime))
        if self.strict:
            pos = int(order[0])
            if cols.fits_at(pos):
                return StartJob(cols.id_at(pos))
            return Delay
        feasible = cols.fits_mask()[order]
        hits = np.flatnonzero(feasible)
        if hits.size:
            return StartJob(cols.id_at(int(order[int(hits[0])])))
        return Delay

    def decide(self, view: SystemView) -> Action:
        if self.columnar(view):
            return self._decide_columns(view)
        if not view.queued:
            return Delay
        ordered = sorted(view.queued, key=self._key)
        if self.strict:
            head = ordered[0]
            if view.can_fit(head):
                return StartJob(head.job_id)
            return Delay
        for job in ordered:
            if view.can_fit(job):
                return StartJob(job.job_id)
        return Delay
