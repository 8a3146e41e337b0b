"""Additional simple policies used for ablations.

Neither appears in the paper's comparison; they bracket the baselines
(how much of the LLM agent's advantage is explained by plain greedy
packing?) and exercise the simulator under policies with different
structural behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.schedulers.base import BaseScheduler
from repro.sim.actions import Action, Delay, StartJob
from repro.sim.simulator import SystemView


class FirstFitScheduler(BaseScheduler):
    """Start the first queued job (arrival order) that fits right now.

    FCFS with queue-order skipping — a minimal backfilling-like policy
    with no reservation guarantee (long jobs can starve).
    """

    name = "first_fit"
    supports_columns = True

    def decide(self, view: SystemView) -> Action:
        if self.columnar(view):
            cols = view.columns()
            hits = np.flatnonzero(cols.fits_mask())
            if hits.size:
                return StartJob(cols.id_at(int(hits[0])))
            return Delay
        # Inlined can_fit with hoisted capacity locals: this scan runs
        # once per decision over the whole queue.
        free_nodes = view.free_nodes
        free_mem = view.free_memory_gb + 1e-9
        for job in view.queued:
            if job.nodes <= free_nodes and job.memory_gb <= free_mem:
                return StartJob(job.job_id)
        return Delay


class LargestFirstScheduler(BaseScheduler):
    """Start the feasible job with the largest node-seconds footprint.

    A greedy packing heuristic (LPT flavour) that tends to optimize
    makespan/utilization while ignoring wait-time fairness — a cheap
    sanity bracket for the optimizer.
    """

    name = "largest_first"
    supports_columns = True

    def decide(self, view: SystemView) -> Action:
        if self.columnar(view):
            cols = view.columns()
            feasible = np.flatnonzero(cols.fits_mask())
            if not feasible.size:
                return Delay
            # max by (node_seconds, job_id): ranks are unique, so the
            # argmax is exactly the facade's max-key job.
            winner = feasible[cols.rank("node_seconds")[feasible].argmax()]
            return StartJob(cols.id_at(int(winner)))
        # Single pass: track the max feasible job instead of
        # materializing the feasible tuple first.
        free_nodes = view.free_nodes
        free_mem = view.free_memory_gb + 1e-9
        best = None
        best_key = None
        for job in view.queued:
            if job.nodes <= free_nodes and job.memory_gb <= free_mem:
                key = (job.node_seconds, job.job_id)
                if best_key is None or key > best_key:
                    best, best_key = job, key
        if best is None:
            return Delay
        return StartJob(best.job_id)
