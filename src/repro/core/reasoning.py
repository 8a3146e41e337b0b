"""The multiobjective reasoning policy behind the simulated LLMs.

This is the substitution heart: where the paper queries a cloud
reasoning model, we run a deterministic, seedable policy that produces
the same *kind* of decision the paper's traces show (Fig. 2):

* multiobjective scoring of every feasible queued job against the four
  prompt objectives (fairness, makespan, utilization, throughput);
* explicit natural-language reasoning about the top candidates and the
  trade-off that favours the winner;
* ``Delay`` with an explanation of the blocking condition when nothing
  fits (including the next expected completion, exactly like the
  t=1554 trace);
* occasional infeasible proposals (hallucinations) that exercise the
  constraint-feedback loop, after which the policy reads its own
  scratchpad feedback and avoids the rejected job;
* a closing ``Stop`` once every job has been scheduled.

The policy reads *only* the :class:`~repro.core.prompt.PromptContext`
(system view + scratchpad) — the same information the rendered prompt
carries — so swapping in a real API backend changes nothing upstream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.profiles import ModelProfile
from repro.core.prompt import PromptContext
from repro.sim.actions import (
    Action,
    BackfillJob,
    Delay,
    StartJob,
    Stop,
)
from repro.sim.job import Job

_JOB_ID_IN_ACTION = re.compile(r"job_id\s*=\s*(\d+)", re.IGNORECASE)


def _median(values: list[float]) -> float:
    """Middle of the sorted values, the mean of the middle two for an
    even count — what ``np.median`` computes, bit for bit."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2


@dataclass(frozen=True)
class JobScore:
    """Per-job multiobjective score decomposition."""

    job: Job
    fairness: float
    makespan: float
    utilization: float
    throughput: float
    total: float

    def dominant_objective(self) -> str:
        parts = {
            "fairness": self.fairness,
            "makespan": self.makespan,
            "utilization": self.utilization,
            "throughput": self.throughput,
        }
        return max(parts, key=parts.get)  # type: ignore[arg-type]


@dataclass(frozen=True)
class ReasoningStep:
    """One decision produced by the policy."""

    thought: str
    action: Action
    hallucinated: bool = False


@dataclass
class ReasoningPolicy:
    """Deterministic multiobjective decision policy for one model profile."""

    profile: ModelProfile
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0)
    )

    # -- scoring -----------------------------------------------------------
    def score_jobs(
        self, ctx: PromptContext, candidates: list[Job]
    ) -> list[JobScore]:
        """Score *candidates* against the four prompt objectives.

        Each component is normalized into [0, 1] over the candidate set
        so the profile weights are scale-free:

        * fairness — how long the job (and its user) has waited
          relative to the longest waiter;
        * makespan — node-seconds footprint (starting big work early
          shortens the tail, the LPT argument);
        * utilization — fraction of currently free nodes+memory the job
          would put to use;
        * throughput — shortness of the job relative to the candidate
          median (quick completions, like Job 9 in Fig. 2).

        Returns every candidate's score, best first.
        """
        return self._ranked(ctx, candidates, len(candidates))

    def _ranked(
        self, ctx: PromptContext, candidates: list[Job], limit: int
    ) -> list[JobScore]:
        """The *limit* best candidates' scores, best first.

        Plain floats throughout: the queues the paper studies are a
        handful deep, where a numpy call's fixed cost exceeds the whole
        loop, and IEEE doubles in the same order give the same bits.
        """
        view = ctx.view
        w = self.profile.weights
        n = len(candidates)
        if n == 0:
            return []

        now = view.now
        waits = [now - j.submit_time for j in candidates]
        max_wait = max(waits)
        user_waits = view.user_wait_times()
        max_user_wait = max(user_waits.values(), default=0.0)
        node_seconds = [j.node_seconds for j in candidates]
        max_ns = max(node_seconds)
        median_wt = max(_median([j.walltime for j in candidates]), 1e-9)

        free_nodes = max(view.free_nodes, 1)
        free_mem = max(view.free_memory_gb, 1e-9)

        # Easy-win bias: when most of the queue is feasible (low
        # contention), biased models inflate the throughput term.
        feasible_frac = n / max(len(view.queued), 1)
        throughput_weight = w.throughput * (
            1.0 + w.easy_win_bias * feasible_frac
        )
        # API-style run-to-run nondeterminism (§4): a small
        # seed-dependent perturbation that can flip near-ties. One
        # sized draw consumes the stream exactly as n scalar draws do.
        noise = (
            self.rng.normal(0.0, w.decision_noise, size=n).tolist()
            if w.decision_noise > 0
            else None
        )

        rows = []
        for i, job in enumerate(candidates):
            job_wait_score = waits[i] / max_wait if max_wait > 0 else 0.0
            user_score = (
                user_waits.get(job.user, 0.0) / max_user_wait
                if max_user_wait > 0
                else 0.0
            )
            fair = w.fairness * (0.6 * job_wait_score + 0.4 * user_score)
            make = w.makespan * (
                node_seconds[i] / max_ns if max_ns > 0 else 0.0
            )
            util = w.utilization * (
                0.5 * min(job.nodes / free_nodes, 1.0)
                + 0.5 * min(job.memory_gb / free_mem, 1.0)
            )
            short = throughput_weight * (
                1.0 / (1.0 + job.walltime / median_wt)
            )
            total = fair + make + util + short
            if noise is not None:
                total += noise[i]
            rows.append((-total, job.job_id, i, fair, make, util, short))
        rows.sort()
        return [
            JobScore(
                job=candidates[i],
                fairness=fair,
                makespan=make,
                utilization=util,
                throughput=short,
                total=-neg_total,
            )
            for neg_total, _, i, fair, make, util, short in rows[:limit]
        ]

    # -- scratchpad awareness ------------------------------------------------
    @staticmethod
    def recently_rejected_ids(ctx: PromptContext) -> set[int]:
        """Job ids the environment rejected at the current timestep.

        Read back from the scratchpad feedback — this is the §2.4
        correction loop: the policy consults its own memory rather
        than any privileged channel.
        """
        rejected: set[int] = set()
        for entry in ctx.scratchpad.recent_feedback(ctx.view.now):
            match = _JOB_ID_IN_ACTION.search(entry.action_text)
            if match:
                rejected.add(int(match.group(1)))
        return rejected

    # -- decisions ---------------------------------------------------------
    def decide(self, ctx: PromptContext) -> ReasoningStep:
        """Produce the next (Thought, Action) for this decision point."""
        view = ctx.view
        if view.all_jobs_scheduled:
            return ReasoningStep(thought=self._stop_thought(ctx), action=Stop)

        rejected = self.recently_rejected_ids(ctx)
        queued = (
            [j for j in view.queued if j.job_id not in rejected]
            if rejected
            else view.queued
        )
        # One pass, ``view.can_fit``'s arithmetic inlined.
        free_nodes = view.free_nodes
        free_memory = view.free_memory_gb + 1e-9
        feasible: list[Job] = []
        infeasible: list[Job] = []
        for j in queued:
            if j.nodes <= free_nodes and j.memory_gb <= free_memory:
                feasible.append(j)
            else:
                infeasible.append(j)

        # Occasional infeasible proposal (hallucination): pick the most
        # "attractive" blocked job, reasoning about fairness/utilization
        # while misreading the resource arithmetic — exactly the failure
        # mode the paper's Fig. 2 bottom-right trace shows.
        if (
            infeasible
            and self.rng.random() < self.profile.hallucination_rate
        ):
            target = max(
                infeasible, key=lambda j: (j.node_seconds, -j.job_id)
            )
            thought = self._hallucination_thought(ctx, target)
            return ReasoningStep(
                thought=thought,
                action=StartJob(target.job_id),
                hallucinated=True,
            )

        if not feasible:
            return ReasoningStep(
                thought=self._delay_thought(ctx), action=Delay
            )

        # Starvation protection: when some queued job has waited far
        # beyond the queue's typical walltime, reason like a reservation
        # backfiller — only run work that cannot push the starving job's
        # earliest start further back (the prompt's "avoid starving any
        # user" objective in action).
        protection = self._starvation_filter(ctx, queued, feasible)
        if protection is not None:
            starving, protected = protection
            if starving.job_id in {j.job_id for j in feasible}:
                thought = self._starvation_thought(ctx, starving, direct=True)
                head0 = view.queued[0]
                act: Action = (
                    StartJob(starving.job_id)
                    if starving.job_id == head0.job_id
                    else BackfillJob(starving.job_id)
                )
                return ReasoningStep(thought=thought, action=act)
            if not protected:
                thought = self._starvation_thought(ctx, starving, direct=False)
                return ReasoningStep(thought=thought, action=Delay)
            feasible = protected

        # The thought names the three best; nobody reads the rest.
        scores = self._ranked(ctx, feasible, 3)
        best = scores[0]
        head = view.queued[0]
        if best.job.job_id == head.job_id:
            action: Action = StartJob(best.job.job_id)
        else:
            # Picking a job out of arrival order = opportunistic backfill.
            action = BackfillJob(best.job.job_id)
        thought = self._decision_thought(ctx, scores, action)
        return ReasoningStep(thought=thought, action=action)

    # -- starvation protection ------------------------------------------------
    def _starvation_filter(
        self,
        ctx: PromptContext,
        queued: Sequence[Job],
        feasible: list[Job],
    ) -> Optional[tuple[Job, list[Job]]]:
        """Detect a starving job and compute the backfill-safe subset.

        Returns ``None`` when nothing is starving; otherwise
        ``(starving_job, jobs_safe_to_run_now)`` where safe jobs either
        finish (by walltime) before the starving job's earliest start
        or fit into resources it will not need then.
        """
        from repro.schedulers.fcfs import head_reservation

        view = ctx.view
        if not queued:
            return None
        starving = max(queued, key=lambda j: (view.now - j.submit_time, j.job_id))
        wait = view.now - starving.submit_time
        median_wt = _median([j.walltime for j in queued])
        threshold = self.profile.weights.starvation_patience * max(
            median_wt, 300.0
        )
        if wait <= threshold:
            return None
        shadow, extra_nodes, extra_mem = head_reservation(
            starving, view.running, view
        )
        protected = [
            j
            for j in feasible
            if j.job_id != starving.job_id
            and (
                view.now + j.walltime <= shadow + 1e-9
                or (j.nodes <= extra_nodes and j.memory_gb <= extra_mem + 1e-9)
            )
        ]
        if starving.job_id in {j.job_id for j in feasible}:
            return starving, feasible
        return starving, protected

    # -- thought rendering ---------------------------------------------------
    def _state_summary(self, ctx: PromptContext) -> str:
        view = ctx.view
        return (
            f"I need to analyze the current system state and job queue to "
            f"make an optimal scheduling decision. At t={view.now:g} the "
            f"system has {view.free_nodes} of {view.total_nodes} nodes and "
            f"{view.free_memory_gb:g} of {view.total_memory_gb:g} GB memory "
            f"available, with {len(view.running)} running and "
            f"{len(view.queued)} waiting jobs."
        )

    def _decision_thought(
        self,
        ctx: PromptContext,
        scores: list[JobScore],
        action: Action,
    ) -> str:
        view = ctx.view
        lines = [self._state_summary(ctx)]
        lines.append("Looking at the job queue, I notice:")
        for s in scores[:3]:
            j = s.job
            wait = view.now - j.submit_time
            lines.append(
                f"  Job {j.job_id} ({j.nodes} nodes, {j.memory_gb:g} GB, "
                f"walltime={j.walltime:g}) — strongest on "
                f"{s.dominant_objective()}; user {j.user} has waited "
                f"{wait:g}s."
            )
        best = scores[0]
        dominant = best.dominant_objective()
        rationale = {
            "fairness": (
                "it has been waiting longest and starting it minimizes "
                "variance in user wait times without starving anyone"
            ),
            "makespan": (
                "committing its large footprint now shortens the overall "
                "schedule tail while other jobs can pack around it"
            ),
            "utilization": (
                "it puts the largest share of currently idle nodes and "
                "memory to work, avoiding wasted capacity"
            ),
            "throughput": (
                "it is short and will complete quickly, freeing resources "
                "for the remaining queue and raising jobs completed per "
                "unit time"
            ),
        }[dominant]
        verb = (
            "backfill" if action.kind.value == "BackfillJob" else "start"
        )
        lines.append(
            f"Balancing fairness, makespan, utilization and throughput, "
            f"the best choice is to {verb} Job {best.job.job_id} because "
            f"{rationale}. Trade-offs are acceptable: no other candidate "
            f"dominates it on the remaining objectives."
        )
        return "\n".join(lines)

    def _delay_thought(self, ctx: PromptContext) -> str:
        view = ctx.view
        lines = [self._state_summary(ctx)]
        blockers = sorted(
            view.queued, key=lambda j: (j.nodes, j.memory_gb), reverse=True
        )
        if blockers:
            j = blockers[0]
            lines.append(
                f"All eligible jobs currently require more nodes or memory "
                f"than is available (e.g. Job {j.job_id} needs {j.nodes} "
                f"nodes / {j.memory_gb:g} GB; available: {view.free_nodes} "
                f"nodes / {view.free_memory_gb:g} GB)."
            )
        if view.next_completion_time is not None:
            lines.append(
                f"The next likely completion is at t="
                f"{view.next_completion_time:g}, which will release "
                f"resources. Since I cannot start any new jobs now, I "
                f"should wait until then."
            )
        else:
            lines.append(
                "No running job will release resources before new arrivals; "
                "waiting is the only feasible action."
            )
        return "\n".join(lines)

    def _hallucination_thought(self, ctx: PromptContext, job: Job) -> str:
        view = ctx.view
        return (
            f"{self._state_summary(ctx)}\n"
            f"I identified Job {job.job_id} ({job.nodes} nodes, "
            f"{job.memory_gb:g} GB) as the job that would maximize "
            f"utilization and fairness — user {job.user} has not had jobs "
            f"run recently. Starting it now should achieve the best "
            f"balance across objectives."
        )

    def _starvation_thought(
        self, ctx: PromptContext, starving: Job, *, direct: bool
    ) -> str:
        view = ctx.view
        wait = view.now - starving.submit_time
        head = (
            f"{self._state_summary(ctx)}\n"
            f"Fairness check: Job {starving.job_id} (user {starving.user}, "
            f"{starving.nodes} nodes / {starving.memory_gb:g} GB) has been "
            f"waiting {wait:g}s — far longer than the rest of the queue. "
            f"Avoiding starvation now outweighs marginal throughput gains."
        )
        if direct:
            return (
                head
                + f"\nIt fits the currently available resources, so the "
                f"right move is to run Job {starving.job_id} immediately."
            )
        return (
            head
            + "\nIt does not fit yet, and every remaining candidate would "
            "push its earliest start further back, so I will hold "
            "resources for it and wait for running jobs to finish."
        )

    def _stop_thought(self, ctx: PromptContext) -> str:
        view = ctx.view
        running = ", ".join(
            f"Job {r.job.job_id}" for r in view.running
        ) or "none"
        return (
            f"Looking at the waiting jobs queue, there are no eligible jobs "
            f"waiting to be scheduled and no further arrivals are expected. "
            f"Reviewing the decision history, all jobs have been scheduled "
            f"already (still running: {running}). Since every job has been "
            f"assigned a start time, the appropriate action is to stop the "
            f"scheduling process."
        )
