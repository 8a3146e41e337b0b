"""Genetic-algorithm list scheduler.

The paper's related work (§1.1) cites Genetic Algorithms, Simulated
Annealing and PSO as the classical metaheuristics applied to HPC
scheduling, "primarily to optimize a single objective through iterative
search over job permutations". :mod:`repro.schedulers.optimizer`
implements the SA member of that family (doubling as the OR-Tools
stand-in); this module implements the GA member over the *identical*
packing model, so the two metaheuristics are directly comparable in
ablations (same objective, same schedule decoder, different search).

Representation: a chromosome is a job-priority permutation, decoded by
the serial schedule-generation scheme of
:mod:`repro.schedulers.packing`. Selection is k-tournament; crossover
is prefix-anchored order crossover; mutation swaps two positions.
Elitism preserves the best chromosome.

The copied parent-A slice is anchored at position 0, so every child
shares parent A's *prefix* up to the cut. Children are then decoded
through :meth:`~repro.schedulers.packing.IncrementalPacker.pack_from`
against the parent's retained pack state — the same suffix-only
re-pack the annealer exploits per move, applied generation-wide: each
evaluation packs only the genes after the cut (or after the first
mutated position) instead of the whole permutation.
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
from repro.schedulers.recovery import effective_jobs, split_unpackable
from repro.sim.actions import Action, Delay, StartJob
from repro.sim.job import Job
from repro.sim.simulator import SystemView


@dataclass
class GeneticConfig:
    """GA hyperparameters. Defaults are sized for ≤100-job queues."""

    population: int = 20
    generations: int = 15
    tournament_k: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.2
    elite: int = 2
    flow_time_weight: float = 1e-3

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if self.elite >= self.population:
            raise ValueError("elite must be smaller than the population")
        for name in ("crossover_rate", "mutation_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


def prefix_crossover(
    parent_a: list[int], parent_b: list[int], rng: np.random.Generator
) -> tuple[list[int], int]:
    """Prefix-anchored order crossover: copy parent A's prefix up to a
    random cut, fill the suffix with the remaining genes in parent B's
    relative order. Returns ``(child, cut)`` — the child is guaranteed
    to share A's first ``cut`` genes, which is what lets the decoder
    re-pack only the suffix against A's cached pack state."""
    n = len(parent_a)
    if n < 2:
        return list(parent_a), n
    cut = int(rng.integers(1, n))
    taken = set(parent_a[:cut])
    child = parent_a[:cut] + [g for g in parent_b if g not in taken]
    return child, cut


class GeneticOptimizer(BaseScheduler):
    """GA-driven list scheduler over the shared packing model.

    Online like :class:`~repro.schedulers.optimizer.AnnealingOptimizer`:
    plans over currently queued jobs, replans on arrivals, and executes
    placements in planned start-time order.
    """

    name = "genetic"

    def __init__(
        self,
        seed: int | np.random.SeedSequence = 0,
        config: Optional[GeneticConfig] = None,
    ) -> None:
        super().__init__()
        self._seed = seed
        self.config = config or GeneticConfig()
        self.reset()

    def reset(self) -> None:
        super().reset()
        self._rng = np.random.default_rng(self._seed)
        self._planned_ids: set[int] = set()
        #: Jobs this plan already started; one reappearing in the queue
        #: was killed and requeued (disruptions) — replan.
        self._consumed: set[int] = set()
        self._plan: list[PackedJob] = []
        self._plan_pos = 0
        self.generations_run = 0
        #: Aggregated packer work counters across planning events.
        self._pack_stats: dict[str, int] = {}

    # -- GA machinery --------------------------------------------------------
    def _fitness(self, placements: list[PackedJob], now: float) -> float:
        n = len(placements)
        if n == 0:
            return 0.0
        return plan_makespan(placements, now) + (
            self.config.flow_time_weight
            * plan_total_completion(placements)
            / n
        )

    def _packer(
        self, view: SystemView, *, prefix_n: int = 0
    ) -> IncrementalPacker:
        """One reusable packer per planning event: the release profile
        is built once and restored in O(k) per evaluation instead of
        being reconstructed for every chromosome.

        The evolution packer (``prefix_n`` = queue size) keeps sparse
        checkpoints per incumbent and retains two generations' worth of
        incumbents, so each child restores its parent's state at the
        cut in O(k) and packs only the suffix. The one-shot decode of
        the winning order (``prefix_n=0``) has no prefix to share;
        ``checkpoint_stride`` is set huge to skip checkpointing
        entirely (one full pack).
        """
        releases = [
            (run.expected_end, run.job.nodes, run.job.memory_gb)
            for run in view.running
        ]
        if prefix_n:
            stride = max(1, prefix_n // 16)
            retain = 2 * self.config.population
        else:
            stride, retain = 1 << 30, 0
        return IncrementalPacker(
            now=view.now,
            free_nodes=view.free_nodes,
            free_memory_gb=view.free_memory_gb,
            releases=releases,
            checkpoint_stride=stride,
            retain_incumbents=retain,
        )

    def _pack(self, order: list[Job], view: SystemView) -> list[PackedJob]:
        return self._packer(view).pack(order)

    def _seed_population(
        self, ids: list[int], by_id: dict[int, Job]
    ) -> list[list[int]]:
        """Strong heuristic orders (LPT, SPT) plus seeded shuffles."""
        lpt = sorted(ids, key=lambda jid: -by_id[jid].node_seconds)
        spt = sorted(ids, key=lambda jid: by_id[jid].walltime)
        population = [lpt, spt]
        while len(population) < self.config.population:
            perm = list(ids)
            self._rng.shuffle(perm)
            population.append(perm)
        return population

    def _evolve_subset(
        self, jobs: list[Job], view: SystemView
    ) -> list[Job]:
        # Checkpoint-restarted jobs plan with their remaining runtime
        # (no-op mapping on undisrupted runs).
        jobs = effective_jobs(view, jobs)
        by_id = {j.job_id: j for j in jobs}
        ids = [j.job_id for j in jobs]
        best = self._evolve_prefix(ids, by_id, view)
        return [by_id[jid] for jid in best]

    def _evolve_prefix(
        self, ids: list[int], by_id: dict[int, Job], view: SystemView
    ) -> list[int]:
        """Prefix-sharing GA: children share a parent's prefix up to
        the crossover cut (or the first mutated position) and are
        decoded via ``pack_from`` against the parent's retained pack
        state — every evaluation packs only the changed suffix.

        Population members are ``(chromosome, score, pack_key)``
        triples; ``pack_key`` addresses the member's retained incumbent
        inside the packer (two generations retained, FIFO-evicted, so
        memory stays bounded while parents of the *current* breeding
        step are always resident; an evicted parent just costs one cold
        full pack)."""
        cfg = self.config
        rng = self._rng
        n = len(ids)
        packer = self._packer(view, prefix_n=n)
        next_key = iter(range(1 << 62))

        def order_of(chromosome: list[int]) -> list[Job]:
            return [by_id[jid] for jid in chromosome]

        def pack_member(
            chromosome: list[int],
            parent_key: Optional[int],
            shared_prefix: int,
        ) -> tuple[float, int]:
            order = order_of(chromosome)
            if parent_key is not None and packer.load_incumbent(parent_key):
                placements = packer.pack_from(order, shared_prefix)
                packer.commit(order, shared_prefix, placements)
            else:
                placements = packer.pack(order)
            key = next(next_key)
            packer.save_incumbent(key)
            return self._fitness(placements, view.now), key

        members = []
        for chromosome in self._seed_population(ids, by_id):
            score, key = pack_member(chromosome, None, 0)
            members.append((chromosome, score, key))

        def tournament_index() -> int:
            contenders = rng.choice(
                len(members),
                size=min(cfg.tournament_k, len(members)),
                replace=False,
            )
            return min(contenders, key=lambda i: members[i][1])

        for _ in range(cfg.generations):
            self.generations_run += 1
            ranked = sorted(
                range(len(members)), key=lambda i: members[i][1]
            )
            # Elites carry their chromosome, score, and incumbent over
            # unchanged; re-saving the pack state under a fresh key
            # refreshes its retention recency (O(1), shared snapshots).
            next_members = []
            for i in ranked[: cfg.elite]:
                chromosome, score, key = members[i]
                if packer.load_incumbent(key):
                    key = next(next_key)
                    packer.save_incumbent(key)
                next_members.append((list(chromosome), score, key))
            while len(next_members) < cfg.population:
                if rng.random() < cfg.crossover_rate and n >= 2:
                    parent = tournament_index()
                    child, shared = prefix_crossover(
                        members[parent][0],
                        members[tournament_index()][0],
                        rng,
                    )
                else:
                    parent = tournament_index()
                    child, shared = list(members[parent][0]), n
                if rng.random() < cfg.mutation_rate and n >= 2:
                    i, j = rng.choice(n, size=2, replace=False)
                    child[i], child[j] = child[j], child[i]
                    shared = min(shared, int(min(i, j)))
                parent_key = members[parent][2]
                if shared >= n:
                    # Unchanged clone: the parent's score and pack
                    # state stand in verbatim — no packing at all.
                    next_members.append(
                        (child, members[parent][1], parent_key)
                    )
                    continue
                score, key = pack_member(child, parent_key, shared)
                next_members.append((child, score, key))
            members = next_members

        for stat, value in packer.stats.as_dict().items():
            self._pack_stats[stat] = self._pack_stats.get(stat, 0) + value
        best = min(range(len(members)), key=lambda i: members[i][1])
        return members[best][0]

    # -- SchedulerProtocol -------------------------------------------------
    def decide(self, view: SystemView) -> Action:
        queued_ids = {j.job_id for j in view.queued}
        if queued_ids - self._planned_ids or not self._consumed.isdisjoint(
            queued_ids
        ):
            self._consumed.clear()
            # Jobs exceeding the eventually-available capacity (nodes
            # failed and not yet repaired) cannot pack; plan them at
            # +inf so they wait for repairs instead of crashing the GA.
            plannable, unpackable = split_unpackable(
                view,
                list(view.queued),
                [
                    (run.expected_end, run.job.nodes, run.job.memory_gb)
                    for run in view.running
                ],
            )
            if plannable:
                order = self._evolve_subset(plannable, view)
                final = self._pack(order, view)
                self._plan = sorted(
                    final, key=lambda p: (p.start, p.job.job_id)
                )
            else:
                self._plan = []
            self._plan.extend(
                PackedJob(j, math.inf) for j in unpackable
            )
            self._plan_pos = 0
            self._planned_ids = set(queued_ids)

        # Index cursor instead of O(n) list.pop(0) per consumed entry.
        plan, pos = self._plan, self._plan_pos
        while pos < len(plan) and plan[pos].job.job_id not in queued_ids:
            pos += 1
        self._plan_pos = pos
        if pos >= len(plan):
            return Delay
        head = plan[pos]
        job = view.queued_job(head.job.job_id)
        if job is not None and view.can_fit(job):
            self._plan_pos = pos + 1
            self._consumed.add(job.job_id)
            return StartJob(job.job_id)
        return Delay

    def collect_extras(self) -> dict[str, Any]:
        extras: dict[str, Any] = {"generations": self.generations_run}
        if self._pack_stats:
            extras["pack_stats"] = dict(self._pack_stats)
        return extras
