"""The ReAct scheduling agent — Algorithm 1 of the paper.

At every decision point the agent:

1. constructs the §3.4 prompt from the system view + scratchpad;
2. queries the LLM backend for a (Thought, Action) reply;
3. parses the action (unparseable replies become ``Delay`` with
   corrective feedback);
4. returns the action to the simulator, which validates it;
5. on rejection, renders the violations as natural-language feedback
   into the scratchpad so the *next* prompt carries the correction.

A reply may plan several actions (``Action: StartJob(job_id=3);
StartJob(job_id=5); Delay``): the agent executes the plan's actions at
the following decision points without querying the backend, the
§3.7.3 batch operation that divides call count by roughly the plan
length.

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
    delay_cooldown_s:
        Periodic operation (§3.7.3's "periodic resource
        optimization"): after a Delay, decision points within this
        many (virtual) seconds return Delay without a backend call,
        unless a job arrived since. ``0`` disables it.
    name:
        Override the scheduler name used in results.
    """

    emits_stop = True

    def __init__(
        self,
        backend: LLMBackend,
        *,
        scratchpad_window: Optional[int] = 12,
        delay_cooldown_s: float = 0.0,
        name: Optional[str] = None,
    ) -> None:
        super().__init__()
        if delay_cooldown_s < 0:
            raise ValueError("delay_cooldown_s must be non-negative")
        self.backend = backend
        self.delay_cooldown_s = delay_cooldown_s
        self.name = name if name is not None else backend.name
        self._window = scratchpad_window
        self.prompt_builder = PromptBuilder()
        self.reset()

    # -- SchedulerProtocol -------------------------------------------------
    def reset(self) -> None:
        super().reset()
        self.backend.reset()
        self.prompt_builder.reset()
        self.scratchpad = Scratchpad(window=self._window)
        self.calls: list[LLMCallRecord] = []
        # The rest of the last reply's plan, and the queue it was made for.
        self._pending: list[Action] = []
        self._plan_queue_ids: frozenset[int] = frozenset()
        self._delay_until = -1.0
        self._delay_queue_ids: frozenset[int] = frozenset()

    def decide(self, view: SystemView) -> Action:
        if not self._pending and self._cooling_down(view):
            self._set_meta(
                thought="(delay cooldown)",
                latency_s=0.0,
                model=self.backend.name,
            )
            return Delay
        if self._pending and any(
            job.job_id not in self._plan_queue_ids for job in view.queued
        ):
            # A job arrived that the plan did not see: replan.
            self._pending = []
        if self._pending:
            action, thought, latency = self._pending.pop(0), "", 0.0
            self.scratchpad.append(
                time=view.now, thought="", action_text=action.render()
            )
        else:
            action, thought, latency = self._query(view)
        if action.kind is Delay.kind and self.delay_cooldown_s > 0:
            self._delay_until = view.now + self.delay_cooldown_s
            self._delay_queue_ids = frozenset(j.job_id for j in view.queued)
        self._set_meta(
            thought=thought, latency_s=latency, model=self.backend.name
        )
        return action

    def _cooling_down(self, view: SystemView) -> bool:
        """Inside a Delay's cooldown with no new arrival. Only while jobs
        run: their completions are the events that wake the agent
        again, so an idle cluster is always asked."""
        return (
            view.now < self._delay_until
            and bool(view.running)
            and all(j.job_id in self._delay_queue_ids for j in view.queued)
        )

    def _query(self, view: SystemView) -> tuple[Action, str, float]:
        """One backend call: log it, keep the rest of its plan, and
        return its first action with the reply's thought and latency."""
        context = self.prompt_builder.build(view, self.scratchpad)
        reply = self.backend.complete(context.prompt_text, context)
        try:
            parsed = parse_reply(reply.text)
            thought, action = parsed.thought, parsed.action
            parse_feedback = ""
        except ActionParseError as exc:
            thought, action = reply.text.strip(), Delay
            parse_feedback = render_parse_feedback(exc)
        else:
            if parsed.rest:
                self._pending = list(parsed.rest)
                self._plan_queue_ids = frozenset(j.job_id for j in view.queued)

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
        return action, thought, reply.latency_s

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
        # The rest of the plan was built on a wrong premise.
        self._pending = []

    def collect_extras(self) -> dict[str, Any]:
        return {
            "llm_calls": list(self.calls),
            "model": self.backend.name,
            "scratchpad_entries": len(self.scratchpad),
            "scratchpad_text": self.scratchpad.render(),
            **self.prompt_builder.counts(),
        }


def create_llm_scheduler(
    model: str | ModelProfile = "claude-3.7-sim",
    seed: int | np.random.SeedSequence = 0,
    *,
    scratchpad_window: Optional[int] = 12,
    hallucination_rate: Optional[float] = None,
    batch_size: int = 1,
    delay_cooldown_s: float = 0.0,
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
    batch_size:
        Most actions one reply plans (§3.7.3 plan-ahead mode; the
        agent is then named ``<model>-batch<k>``).
    delay_cooldown_s:
        Periodic mode: seconds a Delay holds without a new call.
    """
    profile = get_profile(model) if isinstance(model, str) else model
    if hallucination_rate is not None:
        profile = profile.with_hallucination_rate(hallucination_rate)
    backend = SimulatedReasoningBackend(
        profile, seed=seed, batch_size=batch_size
    )
    return ReActSchedulingAgent(
        backend,
        scratchpad_window=scratchpad_window,
        delay_cooldown_s=delay_cooldown_s,
    )
