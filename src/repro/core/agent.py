"""The ReAct scheduling agent — Algorithm 1 of the paper.

At every decision point the agent:

1. constructs the §3.4 prompt from the system view + scratchpad;
2. queries the LLM backend for a (Thought, Action) reply;
3. parses the action (unparseable replies become ``Delay`` with
   corrective feedback);
4. returns the action to the simulator, which validates it;
5. on rejection, renders the violations as natural-language feedback
   into the scratchpad so the *next* prompt carries the correction.

Every backend call is logged as an
:class:`~repro.core.backends.LLMCallRecord` for the overhead analysis
(Figs. 5/6); latencies are virtual.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.core.backends import (
    LLMBackend,
    LLMCallRecord,
    SimulatedReasoningBackend,
    make_call_record,
)
from repro.core.constraints import render_feedback, render_parse_feedback
from repro.core.grammar import ActionParseError, parse_reply
from repro.core.profiles import ModelProfile, get_profile
from repro.core.prompt import PromptBuilder
from repro.core.scratchpad import Scratchpad
from repro.schedulers.base import BaseScheduler
from repro.sim.actions import Action, Delay
from repro.sim.constraints import Violation
from repro.sim.simulator import SystemView


class ReActSchedulingAgent(BaseScheduler):
    """LLM-driven scheduler implementing the paper's decision loop.

    Parameters
    ----------
    backend:
        Any :class:`~repro.core.backends.LLMBackend`; the scheduler's
        ``name`` defaults to the backend's model name.
    scratchpad_window:
        How many recent scratchpad entries each prompt includes
        (``None`` = all; the paper's scratchpad is unbounded but
        context windows are not).
    name:
        Override the scheduler name used in results.
    """

    emits_stop = True

    def __init__(
        self,
        backend: LLMBackend,
        *,
        scratchpad_window: Optional[int] = 12,
        name: Optional[str] = None,
    ) -> None:
        super().__init__()
        self.backend = backend
        self.name = name if name is not None else backend.name
        self._window = scratchpad_window
        self.prompt_builder = PromptBuilder()
        self.scratchpad = Scratchpad(window=scratchpad_window)
        self.calls: list[LLMCallRecord] = []

    # -- SchedulerProtocol -------------------------------------------------
    def reset(self) -> None:
        super().reset()
        self.backend.reset()
        self.prompt_builder.reset()
        self.scratchpad = Scratchpad(window=self._window)
        self.calls = []

    def decide(self, view: SystemView) -> Action:
        context = self.prompt_builder.build(view, self.scratchpad)
        reply = self.backend.complete(context.prompt_text, context)
        try:
            parsed = parse_reply(reply.text)
            thought, action = parsed.thought, parsed.action
            parse_feedback = ""
        except ActionParseError as exc:
            thought, action = reply.text.strip(), Delay
            parse_feedback = render_parse_feedback(exc)

        entry_action_text = (
            action.render() if not parse_feedback else "(unparseable reply)"
        )
        self.scratchpad.append(
            time=view.now,
            thought=thought,
            action_text=entry_action_text,
            feedback=parse_feedback,
        )
        record = make_call_record(
            time=view.now,
            reply=reply,
            action=action,
            queue_len=len(view.queued),
            model=self.backend.name,
        )
        if parse_feedback:
            record.accepted = False
        self.calls.append(record)
        self._set_meta(
            thought=thought,
            latency_s=reply.latency_s,
            model=self.backend.name,
        )
        return action

    def on_rejection(
        self,
        action: Action,
        violations: tuple[Violation, ...],
        view: SystemView,
    ) -> None:
        feedback = render_feedback(action, violations, view)
        self.scratchpad.attach_feedback(feedback)
        if self.calls:
            self.calls[-1].accepted = False

    def collect_extras(self) -> dict[str, Any]:
        return {
            "llm_calls": list(self.calls),
            "model": self.backend.name,
            "scratchpad_entries": len(self.scratchpad),
            "scratchpad_text": self.scratchpad.render(),
            **self.prompt_builder.counts(),
        }

    # -- overhead convenience -------------------------------------------------
    @property
    def total_elapsed_s(self) -> float:
        """Total virtual scheduling time: sum of accepted placement-call
        latencies (the paper's §3.7.1 accounting)."""
        return sum(
            c.latency_s for c in self.calls if c.accepted and c.is_placement
        )


def create_llm_scheduler(
    model: str | ModelProfile = "claude-3.7-sim",
    seed: int | np.random.SeedSequence = 0,
    *,
    scratchpad_window: Optional[int] = 12,
    hallucination_rate: Optional[float] = None,
) -> ReActSchedulingAgent:
    """Build a ReAct agent for a named (or custom) model profile.

    Parameters
    ----------
    model:
        ``"claude-3.7-sim"``, ``"o4-mini-sim"`` or a custom
        :class:`~repro.core.profiles.ModelProfile`.
    seed:
        Backend RNG seed (controls both policy tie-breaking /
        hallucinations and latency draws).
    hallucination_rate:
        Override the profile's infeasible-proposal rate (ablations; 0
        disables the constraint-feedback path entirely).
    """
    profile = get_profile(model) if isinstance(model, str) else model
    if hallucination_rate is not None:
        profile = profile.with_hallucination_rate(hallucination_rate)
    backend = SimulatedReasoningBackend(profile, seed=seed)
    return ReActSchedulingAgent(
        backend, scratchpad_window=scratchpad_window
    )
