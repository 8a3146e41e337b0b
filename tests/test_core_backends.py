"""Unit tests for LLM backends."""

import pytest

from repro.core.backends import SimulatedReasoningBackend, make_call_record
from repro.core.grammar import parse_reply
from repro.core.profiles import CLAUDE_37_SIM, O4_MINI_SIM
from repro.core.prompt import PromptBuilder
from repro.core.scratchpad import Scratchpad
from repro.sim.actions import Delay, StartJob
from repro.sim.simulator import SystemView

from tests.conftest import make_job
from tests.scripted_backend import ScriptedBackend


def ctx_with_queue(jobs=(), now=0.0):
    view = SystemView(
        now=now,
        queued=tuple(jobs),
        running=(),
        completed_ids=(),
        free_nodes=8,
        free_memory_gb=64.0,
        total_nodes=8,
        total_memory_gb=64.0,
        pending_arrivals=0,
        next_arrival_time=None,
        next_completion_time=None,
    )
    return PromptBuilder().build(view, Scratchpad())


class TestSimulatedBackend:
    def test_reply_is_parseable_react(self):
        backend = SimulatedReasoningBackend(CLAUDE_37_SIM, seed=0)
        ctx = ctx_with_queue([make_job(1, nodes=2)])
        reply = backend.complete(ctx.prompt_text, ctx)
        parsed = parse_reply(reply.text)
        assert parsed.action == StartJob(1)
        assert parsed.thought

    def test_latency_positive_and_tokens_counted(self):
        backend = SimulatedReasoningBackend(CLAUDE_37_SIM, seed=0)
        ctx = ctx_with_queue([make_job(1, nodes=2)])
        reply = backend.complete(ctx.prompt_text, ctx)
        assert reply.latency_s > 0
        assert reply.input_tokens > 100
        assert 0 < reply.output_tokens <= CLAUDE_37_SIM.max_tokens

    def test_deterministic_under_seed(self):
        ctx = ctx_with_queue([make_job(1, nodes=2), make_job(2, nodes=4)])
        a = SimulatedReasoningBackend(O4_MINI_SIM, seed=3)
        b = SimulatedReasoningBackend(O4_MINI_SIM, seed=3)
        ra = a.complete(ctx.prompt_text, ctx)
        rb = b.complete(ctx.prompt_text, ctx)
        assert ra.text == rb.text
        assert ra.latency_s == rb.latency_s

    def test_reset_restores_streams(self):
        ctx = ctx_with_queue([make_job(1, nodes=2)])
        backend = SimulatedReasoningBackend(O4_MINI_SIM, seed=5)
        first = backend.complete(ctx.prompt_text, ctx)
        backend.complete(ctx.prompt_text, ctx)
        backend.reset()
        again = backend.complete(ctx.prompt_text, ctx)
        assert first.latency_s == again.latency_s
        assert first.text == again.text

    def test_name_matches_profile(self):
        assert SimulatedReasoningBackend(CLAUDE_37_SIM).name == "claude-3.7-sim"


class TestScriptedBackend:
    def test_plays_in_order(self):
        backend = ScriptedBackend(["Thought: a\nAction: Delay", "Thought: b\nAction: Stop"])
        ctx = ctx_with_queue()
        assert "a" in backend.complete("p", ctx).text
        assert "b" in backend.complete("p", ctx).text

    def test_repeats_last_when_exhausted(self):
        backend = ScriptedBackend(["Thought: x\nAction: Delay"])
        ctx = ctx_with_queue()
        backend.complete("p", ctx)
        assert "x" in backend.complete("p", ctx).text

    def test_strict_raises_when_exhausted(self):
        backend = ScriptedBackend(["Thought: x\nAction: Delay"], strict=True)
        ctx = ctx_with_queue()
        backend.complete("p", ctx)
        with pytest.raises(RuntimeError, match="exhausted"):
            backend.complete("p", ctx)

    def test_reset_rewinds(self):
        backend = ScriptedBackend(["Thought: 1\nAction: Delay", "Thought: 2\nAction: Delay"])
        ctx = ctx_with_queue()
        backend.complete("p", ctx)
        backend.reset()
        assert "1" in backend.complete("p", ctx).text


class TestCallRecords:
    def test_make_call_record_tags(self):
        from repro.core.backends import LLMReply

        reply = LLMReply("Thought: t\nAction: Delay", 2.5, 100, 10)
        record = make_call_record(
            time=5.0, reply=reply, action=Delay, queue_len=3, model="m"
        )
        assert record.action_tag == "delay"
        assert not record.is_placement
        assert record.accepted  # provisional

    def test_placement_detection(self):
        from repro.core.backends import LLMReply

        reply = LLMReply("x", 1.0, 1, 1)
        rec = make_call_record(
            time=0.0, reply=reply, action=StartJob(1), queue_len=1, model="m"
        )
        assert rec.is_placement
