"""Plan-ahead (batched) ReAct agent — the §3.7.3 deployment mitigation.

The paper concludes that per-decision LLM latency makes real-time
deployment impractical and suggests batch/periodic operation instead.
This module implements that idea: at each *queried* decision point the
model plans a whole batch of placements (scored against a simulated
drain of the currently free resources), and the agent executes the
batch action-by-action without further LLM calls. One call now covers
up to ``batch_size`` placements, dividing call count — and therefore
total reasoning latency — by roughly the batch size, at the cost of
planning against slightly stale state (the batch is invalidated
whenever the environment rejects one of its actions or new jobs arrive
mid-batch).

Use :func:`create_batched_llm_scheduler` as a drop-in replacement for
:func:`repro.core.agent.create_llm_scheduler`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional

import numpy as np

from repro.core.backends import LLMCallRecord
from repro.core.constraints import render_feedback
from repro.core.grammar import action_tag
from repro.core.profiles import ModelProfile, get_profile
from repro.core.prompt import PromptBuilder, estimate_tokens
from repro.core.reasoning import ReasoningPolicy
from repro.core.scratchpad import Scratchpad
from repro.schedulers.base import BaseScheduler
from repro.sim.actions import Action, Delay, Stop
from repro.sim.constraints import Violation
from repro.sim.simulator import SystemView


class BatchedReActAgent(BaseScheduler):
    """ReAct agent that plans several placements per LLM call.

    Parameters
    ----------
    profile:
        Model profile (weights + latency model).
    batch_size:
        Maximum placements planned per call. ``1`` degenerates to the
        per-decision agent's call pattern.
    delay_cooldown_s:
        Periodic-scheduling mode (§3.7.3's "periodic resource
        optimization"): after the model decides to Delay, further
        decision points within this many (virtual) seconds return
        Delay *without* a new LLM call — the saturated cluster is not
        re-analyzed on every completion event. ``0`` disables it.
        New arrivals always break the cooldown.
    seed:
        RNG seed.
    """

    emits_stop = True

    def __init__(
        self,
        profile: ModelProfile,
        *,
        batch_size: int = 4,
        delay_cooldown_s: float = 0.0,
        seed: int | np.random.SeedSequence = 0,
        scratchpad_window: Optional[int] = 12,
    ) -> None:
        super().__init__()
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if delay_cooldown_s < 0:
            raise ValueError("delay_cooldown_s must be non-negative")
        self.profile = profile
        self.batch_size = batch_size
        self.delay_cooldown_s = delay_cooldown_s
        self.name = f"{profile.name}-batch{batch_size}"
        self._seed = seed
        self._window = scratchpad_window
        self.prompt_builder = PromptBuilder()
        self.reset()

    def reset(self) -> None:
        super().reset()
        seq = np.random.SeedSequence(
            self._seed
            if isinstance(self._seed, int)
            else self._seed.entropy  # type: ignore[arg-type]
        )
        policy_seed, latency_seed = seq.spawn(2)
        self.policy = ReasoningPolicy(
            self.profile, np.random.default_rng(policy_seed)
        )
        self._latency_rng = np.random.default_rng(latency_seed)
        self.prompt_builder.reset()
        self.scratchpad = Scratchpad(window=self._window)
        self.calls: list[LLMCallRecord] = []
        self._pending: list[tuple[Action, str]] = []
        self._batch_queue_ids: frozenset[int] = frozenset()
        self._delay_until: float = -1.0
        self._delay_queue_ids: frozenset[int] = frozenset()

    # -- planning -----------------------------------------------------------
    def _plan_batch(self, view: SystemView) -> list[tuple[Action, str]]:
        """One reasoning pass producing up to ``batch_size`` actions.

        The policy is applied repeatedly against a *simulated drain* of
        the view: each chosen job is removed from the queue and its
        resources subtracted, so later picks in the batch respect the
        earlier ones. Stops at the first Delay/Stop.
        """
        batch: list[tuple[Action, str]] = []
        current = view
        for _ in range(self.batch_size):
            ctx = self.prompt_builder.build(current, self.scratchpad)
            step = self.policy.decide(ctx)
            batch.append((step.action, step.thought))
            if not step.action.places_job:
                break
            job = current.queued_job(step.action.job_id)  # type: ignore[arg-type]
            if job is None or not current.can_fit(job):
                break  # hallucinated pick: let the simulator reject it
            current = replace(
                current,
                queued=tuple(
                    j for j in current.queued if j.job_id != job.job_id
                ),
                free_nodes=current.free_nodes - job.nodes,
                free_memory_gb=current.free_memory_gb - job.memory_gb,
            )
            if not current.queued:
                break
        return batch

    # -- SchedulerProtocol -------------------------------------------------
    def decide(self, view: SystemView) -> Action:
        queue_ids = frozenset(j.job_id for j in view.queued)
        # Periodic mode: inside the delay cooldown, with no new
        # arrivals, stay silent instead of re-querying the model.
        # Liveness guard: only while jobs are still running — their
        # completions are the future events that will wake us again;
        # with an idle cluster we must act now.
        if (
            view.now < self._delay_until
            and queue_ids <= self._delay_queue_ids
            and not self._pending
            and view.running
        ):
            self._set_meta(thought="(delay cooldown)", batched=True)
            return Delay
        # Invalidate a stale batch when the queue changed beyond our own
        # placements (new arrivals) — the plan no longer reflects state.
        if self._pending and not (
            queue_ids <= self._batch_queue_ids
        ):
            self._pending = []

        if not self._pending:
            batch = self._plan_batch(view)
            self._batch_queue_ids = queue_ids
            prompt = self.prompt_builder.build(view, self.scratchpad)
            latency = self.profile.latency.sample(
                self._latency_rng,
                queue_len=len(view.queued),
                heterogeneity=0.5,
            )
            # One call record covers the whole batch; tag by its first
            # action (the §3.7.1 accounting still sees placements).
            first_action = batch[0][0]
            self.calls.append(
                LLMCallRecord(
                    time=view.now,
                    latency_s=latency,
                    input_tokens=estimate_tokens(prompt.prompt_text),
                    output_tokens=sum(
                        estimate_tokens(t) for _, t in batch
                    ),
                    action_tag=action_tag(first_action),
                    queue_len=len(view.queued),
                    model=self.name,
                )
            )
            self._pending = batch

        action, thought = self._pending.pop(0)
        if action.kind is Delay.kind and self.delay_cooldown_s > 0:
            self._delay_until = view.now + self.delay_cooldown_s
            self._delay_queue_ids = queue_ids
        self.scratchpad.append(
            time=view.now, thought=thought, action_text=action.render()
        )
        self._set_meta(
            thought=thought,
            batched=True,
            remaining_in_batch=len(self._pending),
        )
        return action

    def on_rejection(
        self,
        action: Action,
        violations: tuple[Violation, ...],
        view: SystemView,
    ) -> None:
        self.scratchpad.attach_feedback(
            render_feedback(action, violations, view)
        )
        if self.calls:
            self.calls[-1].accepted = False
        # The rest of the plan was built on a wrong premise.
        self._pending = []

    def collect_extras(self) -> dict[str, Any]:
        return {
            "llm_calls": list(self.calls),
            "model": self.name,
            "batch_size": self.batch_size,
            "scratchpad_entries": len(self.scratchpad),
            **self.prompt_builder.counts(),
        }


def create_batched_llm_scheduler(
    model: str | ModelProfile = "claude-3.7-sim",
    *,
    batch_size: int = 4,
    delay_cooldown_s: float = 0.0,
    seed: int | np.random.SeedSequence = 0,
) -> BatchedReActAgent:
    """Build a plan-ahead agent for a named (or custom) profile."""
    profile = get_profile(model) if isinstance(model, str) else model
    return BatchedReActAgent(
        profile,
        batch_size=batch_size,
        delay_cooldown_s=delay_cooldown_s,
        seed=seed,
    )
