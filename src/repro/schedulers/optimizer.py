"""Optimization-based scheduler — the Google OR-Tools stand-in.

The paper uses OR-Tools as a strong optimization baseline that
"computes globally optimal or near-optimal schedules for
small-to-medium workloads" (§3.3), observing that it maximizes
utilization (up to 1.8× FCFS at 100 jobs) while degrading wait-time and
user-level fairness — it optimizes system efficiency with no fairness
term.

We reproduce that role without the closed dependency:
:class:`AnnealingOptimizer` searches job *priority permutations* with
simulated annealing; each permutation is evaluated by the serial
schedule-generation scheme of :mod:`repro.schedulers.packing`
(earliest-feasible-start packing under node+memory constraints), and
the objective is makespan with a small mean-flow-time tiebreak —
deliberately fairness-blind, like the paper's OR-Tools configuration.
For the workload sizes the paper studies (≤100 jobs) annealed list
scheduling sits within a few percent of optimal makespan, preserving
the baseline's qualitative position: top utilization, fairness
trade-off.

The optimizer is *online*: it plans over currently queued jobs and
replans whenever new jobs arrive, executing placements in planned
start-time order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.schedulers.base import BaseScheduler
from repro.schedulers.packing import (
    IncrementalPacker,
    PackedJob,
    plan_makespan,
    plan_total_completion,
)
from repro.schedulers.recovery import (
    effective_jobs,
    split_unpackable,
    spread_requeue,
)
from repro.sim.actions import Action, Delay, StartJob
from repro.sim.simulator import SystemView


@dataclass
class PlanStatistics:
    """Bookkeeping about one replanning event.

    ``jobs_packed`` counts every placement the event's search paid for
    (an earliest-fit scan + reservation each); with ``accepted_moves``
    it yields the packed-jobs-per-accepted-move figure in the run's
    extras — the quantity windowed replanning bounds.
    """

    time: float
    queue_size: int
    iterations: int
    initial_objective: float
    final_objective: float
    window: Optional[int] = None
    accepted_moves: int = 0
    jobs_packed: int = 0

    @property
    def improvement(self) -> float:
        """Relative objective improvement found by annealing."""
        if self.initial_objective == 0:
            return 0.0
        return 1.0 - self.final_objective / self.initial_objective


@dataclass
class AnnealingConfig:
    """Annealer hyperparameters.

    ``iterations`` scales with queue size (``base + per_job * n``,
    capped) so small queues replan cheaply; ``t0_fraction`` sets the
    initial temperature as a fraction of the initial objective.

    ``window`` bounds the search to the first W positions of the
    priority order: the tail is frozen as a fixed suffix, packed once
    per replanning event, and every annealing move re-packs at most W
    placements instead of an O(queue) suffix. ``None`` (the default)
    keeps the full search — bit-identical to the pre-window engine.

    ``late_pivot_p`` biases the move set toward late pivots: the lower
    swap position sits a Geometric(p)-distributed distance from the end
    of the order, so re-packed suffixes average ~1/p jobs even without
    a window. ``None`` (the default) keeps uniform position pairs.
    """

    base_iterations: int = 60
    per_job_iterations: int = 4
    max_iterations: int = 600
    t0_fraction: float = 0.05
    cooling: float = 0.995
    flow_time_weight: float = 1e-3
    window: Optional[int] = None
    late_pivot_p: Optional[float] = None
    #: Windowed search only: the iteration budget is split into this
    #: many epochs, and at each epoch boundary the full order (current
    #: head + frozen tail) is re-packed once to ground the epoch's
    #: incumbent in the *true* objective — the returned plan is the
    #: true-best over epoch boundaries plus the surrogate-best head.
    window_epochs: int = 4

    def __post_init__(self) -> None:
        if self.window is not None and self.window < 2:
            raise ValueError("window must be at least 2 (or None)")
        if self.late_pivot_p is not None and not (
            0.0 < self.late_pivot_p <= 1.0
        ):
            raise ValueError("late_pivot_p must be in (0, 1] (or None)")
        if self.window_epochs < 1:
            raise ValueError("window_epochs must be at least 1")

    def iterations_for(self, n: int) -> int:
        return min(
            self.base_iterations + self.per_job_iterations * n,
            self.max_iterations,
        )


class AnnealingOptimizer(BaseScheduler):
    """Simulated-annealing list scheduler (OR-Tools substitute).

    Parameters
    ----------
    seed:
        RNG seed for the annealer (plan search is stochastic; execution
        of a fixed plan is deterministic).
    config:
        :class:`AnnealingConfig` hyperparameters.
    """

    name = "ortools_like"

    def __init__(
        self,
        seed: int | np.random.SeedSequence = 0,
        config: Optional[AnnealingConfig] = None,
    ) -> None:
        super().__init__()
        self._seed = seed
        self.config = config or AnnealingConfig()
        self._rng = np.random.default_rng(seed)
        self._planned_ids: set[int] = set()
        #: Jobs this plan already started; one of them reappearing in
        #: the queue means it was killed and requeued (disruptions) —
        #: the plan is stale and must be rebuilt.
        self._consumed: set[int] = set()
        self._plan: list[PackedJob] = []
        self._plan_pos = 0
        self._stats: list[PlanStatistics] = []

    def reset(self) -> None:
        super().reset()
        self._rng = np.random.default_rng(self._seed)
        self._planned_ids = set()
        self._consumed = set()
        self._plan = []
        self._plan_pos = 0
        self._stats = []

    # -- planning ---------------------------------------------------------
    def _objective(self, placements: list[PackedJob], now: float) -> float:
        n = len(placements)
        if n == 0:
            return 0.0
        return plan_makespan(placements, now) + (
            self.config.flow_time_weight * plan_total_completion(placements) / n
        )

    def _sample_move(self, m: int) -> Optional[tuple[int, int]]:
        """Draw one swap move over ``range(m)`` as ``(lo, hi)``.

        Uniform position pairs by default (``None`` on an i == j draw,
        matching the legacy skip); with ``late_pivot_p`` the lower
        position sits a Geometric(p) distance from the end of the
        order, so the re-packed suffix averages ~1/p jobs.
        """
        p = self.config.late_pivot_p
        if p is None:
            i, j = self._rng.integers(0, m, size=2)
            if i == j:
                return None
            return (int(i), int(j)) if i < j else (int(j), int(i))
        lo = m - 1 - int(self._rng.geometric(p))
        if lo < 0:
            lo = 0
        hi = lo + 1 + int(self._rng.integers(0, m - lo - 1))
        return lo, hi

    def _anneal_full(
        self,
        packer: IncrementalPacker,
        order: list,
        initial_obj: float,
        now: float,
        iterations: int,
    ) -> tuple[list, float, int]:
        """Legacy full-width annealing over the whole priority order.

        Byte-compatible with the pre-window engine: identical RNG call
        sequence, identical float comparisons, identical commits.
        """
        cur_order = list(order)
        best_order = order
        best_obj = cur_obj = initial_obj
        temp = max(best_obj * self.config.t0_fraction, 1e-9)
        accepted = 0
        for _ in range(iterations):
            move = self._sample_move(len(cur_order))
            if move is None:
                continue
            lo, hi = move
            cand = list(cur_order)
            cand[lo], cand[hi] = cand[hi], cand[lo]
            # The candidate shares the incumbent's prefix below the
            # lower swap position: only the suffix is re-packed.
            cand_placements = packer.pack_from(cand, lo)
            cand_obj = self._objective(cand_placements, now)
            delta = cand_obj - cur_obj
            if delta <= 0 or self._rng.random() < math.exp(-delta / temp):
                packer.commit(cand, lo, cand_placements)
                cur_order, cur_obj = cand, cand_obj
                accepted += 1
                if cur_obj < best_obj:
                    best_order, best_obj = cand, cur_obj
            temp *= self.config.cooling
        return best_order, best_obj, accepted

    def _anneal_windowed(
        self,
        packer: IncrementalPacker,
        order: list,
        placements: list[PackedJob],
        now: float,
        iterations: int,
    ) -> tuple[list, Optional[list[PackedJob]], int]:
        """Bounded-suffix annealing over the first ``window`` positions.

        The tail ``order[window:]`` is frozen as a fixed suffix, so an
        annealing move re-packs at most ``window`` placements —
        independent of queue length. Moves are scored by a head-only
        surrogate (makespan + flow over the head placements): the
        frozen tail contributes no gradient, and a compact head is what
        frees early gaps for the tail to fill. To keep the search
        honest against the *true* objective, the iteration budget is
        split into ``window_epochs`` epochs and the full order is
        re-packed once per epoch incumbent; the best full order seen at
        those groundings (or the final surrogate-best head) is
        returned, along with its already-computed full placements
        (``None`` when no grounding ran — the caller packs then).
        Total packing work per replanning event:
        O(iterations × window + epochs × queue).
        """
        cfg = self.config
        window = cfg.window
        fw = cfg.flow_time_weight
        tail_order = order[window:]

        def surrogate(head_placements: list[PackedJob]) -> float:
            head_max = max(p.end for p in head_placements)
            total = float(sum(p.end for p in head_placements))
            return (head_max - now) + fw * total / window

        cur_head = list(order[:window])
        best_head = cur_head
        best_obj = cur_obj = surrogate(placements[:window])
        temp = max(cur_obj * cfg.t0_fraction, 1e-9)
        accepted = 0
        # Groundings cost a full O(queue) pack each; cap them at one
        # per ~150 iterations so a small search budget is spent on
        # moves, not on re-realizing the tail.
        epochs = min(cfg.window_epochs, max(1, iterations // 150))
        true_best: Optional[tuple[list, list[PackedJob]]] = None
        true_best_obj = math.inf
        boundaries = {
            (e + 1) * iterations // epochs for e in range(epochs - 1)
        }
        for it in range(iterations):
            move = self._sample_move(window)
            if move is not None:
                lo, hi = move
                cand = list(cur_head)
                cand[lo], cand[hi] = cand[hi], cand[lo]
                # cand is head-only: pack_from re-packs cand[lo:] and
                # never touches the frozen tail.
                head_placements = packer.pack_from(cand, lo)
                cand_obj = surrogate(head_placements)
                delta = cand_obj - cur_obj
                if delta <= 0 or self._rng.random() < math.exp(
                    -delta / temp
                ):
                    packer.commit(cand, lo, head_placements)
                    cur_head, cur_obj = cand, cand_obj
                    accepted += 1
                    if cur_obj < best_obj:
                        best_head, best_obj = cand, cur_obj
                temp *= cfg.cooling
            if it + 1 in boundaries:
                # Epoch grounding: realize the tail under the current
                # head and score the true objective once.
                full = packer.pack(cur_head + tail_order)
                true_obj = self._objective(full, now)
                if true_obj < true_best_obj:
                    true_best = (list(cur_head), full)
                    true_best_obj = true_obj
        if true_best is not None:
            # Let the final surrogate-best head compete with the epoch
            # groundings on the true objective; either way the winning
            # placements are already computed — no caller re-pack.
            final_full = packer.pack(best_head + tail_order)
            if true_best_obj < self._objective(final_full, now):
                grounded_head, grounded_full = true_best
                return grounded_head + tail_order, grounded_full, accepted
            return best_head + tail_order, final_full, accepted
        return best_head + tail_order, None, accepted

    def _replan(self, view: SystemView) -> None:
        jobs = list(view.queued)
        n = len(jobs)
        if n == 0:
            self._plan = []
            self._plan_pos = 0
            self._planned_ids = set()
            return

        # Checkpoint-restarted jobs plan with their remaining runtime
        # (no-op mapping on undisrupted runs — bit-identical planning).
        jobs = effective_jobs(view, jobs)

        releases = [
            (run.expected_end, run.job.nodes, run.job.memory_gb)
            for run in view.running
        ]
        # Recovery awareness: announced maintenance drains enter the
        # packing profile as capacity notches — a negative release at
        # the drain start and a restoring one at its end — so the
        # annealer's earliest-fit search steers long jobs around the
        # window instead of placing work it would lose. Windows already
        # in progress are missing from free capacity; only their
        # restoration is modeled.
        mem_share = view.node_memory_share
        for d in view.upcoming_drains:
            d_mem = d.nodes * mem_share
            if d.start > view.now:
                releases.append((d.start, -d.nodes, -d_mem))
            releases.append((d.end, d.nodes, d_mem))

        # Jobs exceeding the profile's eventual capacity (nodes failed
        # and not repaired within the plan) are parked at +inf — tried
        # last, held until repairs — instead of crashing the packer.
        jobs, unpackable = split_unpackable(view, jobs, releases)
        n = len(jobs)
        if n == 0 and unpackable:
            self._plan = [PackedJob(j, math.inf) for j in unpackable]
            self._plan_pos = 0
            self._planned_ids = {j.job_id for j in unpackable}
            return
        packer = IncrementalPacker(
            now=view.now,
            free_nodes=view.free_nodes,
            free_memory_gb=view.free_memory_gb,
            releases=releases,
        )

        # Initial order: largest node-seconds first (LPT flavour), a
        # strong makespan heuristic the annealer then polishes. On
        # clusters with real failure domains, requeued jobs that no
        # healthy domain can currently host are demoted behind the
        # rest (spread-across-domains: don't race a restart back into
        # the failing rack); identity on flat topologies. The windowed
        # search freezes the tail, so those demotions stay put.
        order = sorted(jobs, key=lambda j: (-j.node_seconds, j.job_id))
        order = spread_requeue(view, order)
        placements = packer.pack(order)
        best_obj = initial_obj = self._objective(placements, view.now)
        iterations = self.config.iterations_for(n)

        window = self.config.window
        accepted = 0
        if window is not None and 2 <= window < n:
            best_order, final, accepted = self._anneal_windowed(
                packer, order, placements, view.now, iterations
            )
            if final is None:  # no epoch grounding packed the winner
                final = packer.pack(best_order)
            final_obj = self._objective(final, view.now)
            # The windowed search optimizes a frozen-tail surrogate;
            # re-packing the tail under the winning head can land
            # (slightly) elsewhere. Never regress past the heuristic
            # initial order, whose placements are already in hand.
            if final_obj > initial_obj:
                final, best_obj = placements, initial_obj
            else:
                best_obj = final_obj
        elif n >= 2:
            best_order, best_obj, accepted = self._anneal_full(
                packer, order, best_obj, view.now, iterations
            )
            final = packer.pack(best_order)
        else:
            final = placements
        # Execute in planned start-time order; capacity-starved jobs
        # (failed nodes) trail the plan until repairs let them fit.
        self._plan = sorted(final, key=lambda p: (p.start, p.job.job_id))
        self._plan.extend(PackedJob(j, math.inf) for j in unpackable)
        self._plan_pos = 0
        self._planned_ids = {p.job.job_id for p in self._plan}
        self._stats.append(
            PlanStatistics(
                time=view.now,
                queue_size=n,
                iterations=iterations,
                initial_objective=initial_obj,
                final_objective=best_obj,
                window=window,
                accepted_moves=accepted,
                jobs_packed=packer.stats.jobs_packed,
            )
        )

    # -- SchedulerProtocol -------------------------------------------------
    def decide(self, view: SystemView) -> Action:
        self._clear_meta()
        queued_ids = {j.job_id for j in view.queued}
        if queued_ids - self._planned_ids or not self._consumed.isdisjoint(
            queued_ids
        ):
            self._replan(view)
            self._consumed.clear()

        # Skip placements for jobs no longer queued (already started);
        # an index cursor replaces the old O(n) list.pop(0).
        plan, pos = self._plan, self._plan_pos
        while pos < len(plan) and plan[pos].job.job_id not in queued_ids:
            pos += 1
        self._plan_pos = pos

        if pos >= len(plan):
            return Delay
        head = plan[pos]
        job = view.queued_job(head.job.job_id)
        # drain_safe: even if the plan's head fits right now, don't
        # start it across an announced drain it might not survive —
        # the packed plan deliberately parked such jobs after the
        # window. Vacuously true on undisrupted runs.
        if job is not None and view.can_fit(job) and view.drain_safe(job):
            self._plan_pos = pos + 1
            self._consumed.add(job.job_id)
            self._set_meta(planned_start=head.start)
            return StartJob(job.job_id)
        return Delay

    def collect_extras(self) -> dict[str, Any]:
        packed = sum(s.jobs_packed for s in self._stats)
        accepted = sum(s.accepted_moves for s in self._stats)
        return {
            "replans": len(self._stats),
            "plan_stats": list(self._stats),
            "anneal_window": self.config.window,
            "packed_jobs": packed,
            "accepted_moves": accepted,
            "packed_jobs_per_accepted_move": (
                packed / accepted if accepted else float(packed)
            ),
        }
