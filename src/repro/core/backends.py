"""LLM backends: the pluggable model layer.

:class:`LLMBackend` is the seam where the paper plugs OpenAI's O4-Mini
and Anthropic's Claude 3.7 via cloud APIs (§3.3). In this offline
reproduction the default implementation is
:class:`SimulatedReasoningBackend` — the deterministic reasoning policy
of :mod:`repro.core.reasoning` plus the profile's virtual latency
model. :class:`ScriptedBackend` replays canned replies (used by tests
to exercise the agent against arbitrary, including malformed, model
output).

Latency is *virtual*: a sampled number recorded for overhead analysis
(Figs. 5/6), never a real sleep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.grammar import action_tag, render_reply
from repro.core.profiles import ModelProfile
from repro.core.prompt import PromptContext, estimate_tokens
from repro.core.reasoning import ReasoningPolicy


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
    """

    def __init__(
        self,
        profile: ModelProfile,
        seed: int | np.random.SeedSequence = 0,
    ) -> None:
        self.profile = profile
        self.name = profile.name
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

    def complete(self, prompt: str, context: PromptContext) -> LLMReply:
        step = self.policy.decide(context)
        text = render_reply(step.thought, step.action)
        heterogeneity = _queue_heterogeneity(context)
        latency = self.profile.latency.sample(
            self._latency_rng,
            queue_len=len(context.view.queued),
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


def _queue_heterogeneity(context: PromptContext) -> float:
    """Heterogeneity of the *current queue* feeding the latency model."""
    from repro.workloads.generator import workload_heterogeneity

    return workload_heterogeneity(context.view.queued)


@dataclass
class ScriptedBackend:
    """Replays a fixed sequence of reply texts (testing utility).

    After the script is exhausted it keeps returning the final reply
    (or raises if ``strict``).
    """

    replies: Sequence[str]
    latency_s: float = 1.0
    name: str = "scripted"
    strict: bool = False
    _cursor: int = field(default=0, init=False)

    def reset(self) -> None:
        self._cursor = 0

    def complete(self, prompt: str, context: PromptContext) -> LLMReply:
        if self._cursor >= len(self.replies):
            if self.strict:
                raise RuntimeError("scripted backend exhausted")
            index = len(self.replies) - 1
        else:
            index = self._cursor
        self._cursor += 1
        text = self.replies[index]
        return LLMReply(
            text=text,
            latency_s=self.latency_s,
            input_tokens=estimate_tokens(prompt),
            output_tokens=estimate_tokens(text),
        )


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
