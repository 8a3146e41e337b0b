"""Integration tests for the ReAct scheduling agent (Algorithm 1)."""


from repro.core.agent import ReActSchedulingAgent, create_llm_scheduler
from repro.core.backends import ScriptedBackend
from repro.experiments.runner import OverheadSummary
from repro.sim.actions import ActionKind

from tests.conftest import make_job, run_sim


class TestEndToEnd:
    def test_schedules_full_workload(self):
        jobs = [make_job(i, submit=i * 2.0, duration=20.0, nodes=2) for i in range(1, 8)]
        agent = create_llm_scheduler("claude-3.7-sim", seed=0)
        result = run_sim(jobs, agent, nodes=8, memory=64.0)
        assert len(result.records) == 7

    def test_emits_final_stop(self):
        jobs = [make_job(1, duration=10.0), make_job(2, duration=5.0)]
        agent = create_llm_scheduler("claude-3.7-sim", seed=0)
        result = run_sim(jobs, agent, nodes=8, memory=64.0)
        stops = [d for d in result.decisions if d.action.kind is ActionKind.STOP]
        assert len(stops) == 1
        assert stops[0].accepted

    def test_llm_calls_recorded(self):
        jobs = [make_job(i, duration=10.0, nodes=4) for i in range(1, 5)]
        agent = create_llm_scheduler("claude-3.7-sim", seed=0)
        result = run_sim(jobs, agent, nodes=8, memory=64.0)
        calls = result.extras["llm_calls"]
        assert len(calls) == len(result.decisions)
        placements = [c for c in calls if c.accepted and c.is_placement]
        assert len(placements) == 4

    def test_thought_in_decision_meta(self):
        jobs = [make_job(1)]
        agent = create_llm_scheduler("claude-3.7-sim", seed=0)
        result = run_sim(jobs, agent)
        assert "thought" in result.decisions[0].meta
        assert result.decisions[0].meta["latency_s"] > 0

    def test_deterministic_under_seed(self):
        jobs = [make_job(i, duration=15.0, nodes=3) for i in range(1, 10)]
        a = run_sim(jobs, create_llm_scheduler("o4-mini-sim", seed=4), nodes=8, memory=64.0)
        b = run_sim(jobs, create_llm_scheduler("o4-mini-sim", seed=4), nodes=8, memory=64.0)
        assert {r.job.job_id: r.start_time for r in a.records} == {
            r.job.job_id: r.start_time for r in b.records
        }

    def test_reset_between_runs(self):
        jobs = [make_job(i, duration=15.0, nodes=3) for i in range(1, 6)]
        agent = create_llm_scheduler("claude-3.7-sim", seed=2)
        first = run_sim(jobs, agent, nodes=8, memory=64.0)
        second = run_sim(jobs, agent, nodes=8, memory=64.0)
        assert len(first.extras["llm_calls"]) == len(second.extras["llm_calls"])


class TestConstraintFeedbackLoop:
    def test_rejection_appends_feedback(self):
        jobs = [
            make_job(1, duration=100.0, nodes=8),
            make_job(2, submit=1.0, duration=10.0, nodes=8),
        ]
        agent = create_llm_scheduler(
            "claude-3.7-sim", seed=1, hallucination_rate=1.0
        )
        result = run_sim(jobs, agent, nodes=8, memory=64.0)
        rejected = result.rejected_decisions
        assert rejected
        feedback_entries = [
            e for e in agent.scratchpad.entries if e.feedback
        ]
        assert feedback_entries
        assert "cannot be started" in feedback_entries[0].feedback

    def test_rejected_calls_marked_not_accepted(self):
        jobs = [
            make_job(1, duration=100.0, nodes=8),
            make_job(2, submit=1.0, duration=10.0, nodes=8),
        ]
        agent = create_llm_scheduler(
            "claude-3.7-sim", seed=1, hallucination_rate=1.0
        )
        result = run_sim(jobs, agent, nodes=8, memory=64.0)
        calls = result.extras["llm_calls"]
        assert any(not c.accepted for c in calls)
        # Overhead accounting excludes rejected calls.
        overhead = OverheadSummary.from_result(result)
        assert overhead.elapsed_s < sum(c.latency_s for c in calls)

    def test_run_completes_despite_hallucinations(self):
        jobs = [make_job(i, submit=i * 1.0, duration=30.0, nodes=4) for i in range(1, 8)]
        agent = create_llm_scheduler(
            "o4-mini-sim", seed=0, hallucination_rate=0.5
        )
        result = run_sim(jobs, agent, nodes=8, memory=64.0)
        assert len(result.records) == 7


class TestMalformedReplies:
    def test_unparseable_reply_becomes_delay_with_feedback(self):
        backend = ScriptedBackend(
            [
                "I think we should start job one maybe?",  # no Action line
                "Thought: ok\nAction: StartJob(job_id=1)",
                "Thought: next\nAction: StartJob(job_id=2)",
                "Thought: done\nAction: Stop",
            ]
        )
        agent = ReActSchedulingAgent(backend)
        jobs = [make_job(1, duration=10.0), make_job(2, submit=1.0, duration=10.0)]
        result = run_sim(jobs, agent, nodes=8, memory=64.0)
        assert len(result.records) == 2
        # The garbage reply surfaced as a corrective feedback entry.
        feedback = [e.feedback for e in agent.scratchpad.entries if e.feedback]
        assert any("could not be parsed" in f for f in feedback)

    def test_parse_failure_call_not_accepted(self):
        backend = ScriptedBackend(
            [
                "gibberish",
                "Thought: ok\nAction: StartJob(job_id=1)",
                "Thought: next\nAction: StartJob(job_id=2)",
                "Thought: done\nAction: Stop",
            ]
        )
        agent = ReActSchedulingAgent(backend)
        jobs = [make_job(1, duration=10.0), make_job(2, submit=1.0, duration=5.0)]
        run_sim(jobs, agent, nodes=8, memory=64.0)
        assert agent.calls[0].accepted is False


class TestConfiguration:
    def test_scratchpad_window_configurable(self):
        agent = create_llm_scheduler("claude-3.7-sim", scratchpad_window=3)
        assert agent.scratchpad.window == 3

    def test_name_defaults_to_model(self):
        agent = create_llm_scheduler("o4-mini-sim")
        assert agent.name == "o4-mini-sim"

    def test_name_override(self):
        backend = ScriptedBackend(["Thought: x\nAction: Delay"])
        agent = ReActSchedulingAgent(backend, name="my-agent")
        assert agent.name == "my-agent"

    def test_collect_extras_keys(self):
        jobs = [make_job(1)]
        agent = create_llm_scheduler("claude-3.7-sim", seed=0)
        result = run_sim(jobs, agent)
        assert {"llm_calls", "model", "scratchpad_entries", "scratchpad_text"} <= set(
            result.extras
        )
