"""LLM backends: the pluggable model layer.

:class:`LLMBackend` is the seam where the paper plugs OpenAI's O4-Mini
and Anthropic's Claude 3.7 via cloud APIs (§3.3). In this offline
reproduction the implementation is
:class:`SimulatedReasoningBackend` — the deterministic reasoning policy
of :mod:`repro.core.reasoning` plus the profile's virtual latency
model. Any object with the protocol's ``name``, ``reset()`` and
``complete(prompt, context)`` drives the agent unchanged.

Latency is *virtual*: a sampled number recorded for overhead analysis
(Figs. 5/6), never a real sleep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Protocol, runtime_checkable

import numpy as np

from repro.core.grammar import action_tag, render_reply
from repro.core.profiles import ModelProfile
from repro.core.prompt import PromptContext, estimate_tokens
from repro.core.reasoning import ReasoningPolicy, ReasoningStep


@dataclass(frozen=True)
class LLMReply:
    """One model completion with its (virtual) cost."""

    text: str
    latency_s: float
    input_tokens: int
    output_tokens: int


@dataclass
class LLMCallRecord:
    """Bookkeeping for one LLM call, the unit of overhead analysis.

    ``accepted`` is finalized by the agent after constraint checking;
    §3.7.1 restricts overhead statistics to accepted ``start_job`` /
    ``backfill_job`` calls.
    """

    time: float
    latency_s: float
    input_tokens: int
    output_tokens: int
    action_tag: str
    queue_len: int
    model: str
    accepted: bool = True

    @property
    def is_placement(self) -> bool:
        return self.action_tag in ("start_job", "backfill_job")


@runtime_checkable
class LLMBackend(Protocol):
    """Protocol for model backends."""

    name: str

    def complete(self, prompt: str, context: PromptContext) -> LLMReply:
        """Produce a ReAct reply for *prompt*.

        *context* is the structured companion of the rendered prompt;
        simulated backends use it directly, real-API backends would
        ignore it and send *prompt* over the wire.
        """
        ...

    def reset(self) -> None:
        """Reset per-run state (RNG streams, counters)."""
        ...


class SimulatedReasoningBackend:
    """Deterministic stand-in for a cloud reasoning model.

    Couples a :class:`~repro.core.reasoning.ReasoningPolicy`
    (decisions + thought text) with the profile's
    :class:`~repro.core.profiles.LatencyModel` (virtual per-call
    latency). Fully reproducible under a fixed seed.

    Parameters
    ----------
    profile:
        The model profile (weights, latency, hallucination rate).
    seed:
        Seed for both the policy and latency RNG streams.
    batch_size:
        Most actions one reply plans (§3.7.3 batch operation). Above 1
        the backend is named ``<profile>-batch<k>`` and each call
        plans ahead against a simulated drain of the free resources.
    """

    def __init__(
        self,
        profile: ModelProfile,
        seed: int | np.random.SeedSequence = 0,
        *,
        batch_size: int = 1,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.profile = profile
        self.batch_size = batch_size
        self.name = (
            profile.name if batch_size == 1
            else f"{profile.name}-batch{batch_size}"
        )
        self._seed = seed
        self.reset()

    def reset(self) -> None:
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
        #: (queued tuple, its heterogeneity) of the last call: the views
        #: of one queue state share one tuple, so a decision loop over a
        #: stable queue computes it once. The strong reference keeps the
        #: tuple's identity from being reused by another queue.
        self._heterogeneity: tuple[Optional[tuple], float] = (None, 0.0)

    def complete(self, prompt: str, context: PromptContext) -> LLMReply:
        steps = self._plan(context)
        text = render_reply(
            "\n".join(step.thought for step in steps),
            *(step.action for step in steps),
        )
        queued = context.view.queued
        memo_queue, heterogeneity = self._heterogeneity
        if memo_queue is not queued:
            heterogeneity = _queue_heterogeneity(context)
            self._heterogeneity = (queued, heterogeneity)
        latency = self.profile.latency.sample(
            self._latency_rng,
            queue_len=len(queued),
            heterogeneity=heterogeneity,
        )
        return LLMReply(
            text=text,
            latency_s=latency,
            input_tokens=estimate_tokens(prompt),
            output_tokens=min(
                estimate_tokens(text), self.profile.max_tokens
            ),
        )

    def _plan(self, context: PromptContext) -> list[ReasoningStep]:
        """Up to ``batch_size`` policy steps from one prompt.

        Each later step is decided against a simulated drain of the
        view: the job just picked leaves the queue and its resources
        leave the free pool, so later picks respect earlier ones. The
        plan ends at the first Delay/Stop, at a pick that does not fit
        (the simulator rejects it), or when the queue is drained. The
        policy reads only ``view`` and ``scratchpad``, so no prompt is
        rendered for a drained view.
        """
        steps = [self.policy.decide(context)]
        while len(steps) < self.batch_size and steps[-1].action.places_job:
            view = context.view
            job = view.queued_job(steps[-1].action.job_id)  # type: ignore[arg-type]
            if job is None or not view.can_fit(job):
                break
            view = replace(
                view,
                queued=tuple(j for j in view.queued if j.job_id != job.job_id),
                free_nodes=view.free_nodes - job.nodes,
                free_memory_gb=view.free_memory_gb - job.memory_gb,
            )
            if not view.queued:
                break
            context = replace(context, view=view)
            steps.append(self.policy.decide(context))
        return steps


def _queue_heterogeneity(context: PromptContext) -> float:
    """Heterogeneity of the *current queue* feeding the latency model."""
    from repro.workloads.generator import workload_heterogeneity

    return workload_heterogeneity(context.view.queued)


def make_call_record(
    *,
    time: float,
    reply: LLMReply,
    action,
    queue_len: int,
    model: str,
) -> LLMCallRecord:
    """Build the call record for one completed backend call."""
    return LLMCallRecord(
        time=time,
        latency_s=reply.latency_s,
        input_tokens=reply.input_tokens,
        output_tokens=reply.output_tokens,
        action_tag=action_tag(action),
        queue_len=queue_len,
        model=model,
    )
