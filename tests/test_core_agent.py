"""Integration tests for the ReAct scheduling agent (Algorithm 1)."""


from repro.core.agent import ReActSchedulingAgent, create_llm_scheduler
from tests.scripted_backend import ScriptedBackend
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


class TestScriptedPlans:
    """Multi-action replies: the agent runs a plan's actions at the next
    decision points without a call, and drops the rest of it when an
    action is rejected or a job arrives that the plan did not see."""

    def test_plan_runs_without_further_calls(self):
        backend = ScriptedBackend(
            [
                "Thought: both\n"
                "Action: StartJob(job_id=1); Delay; StartJob(job_id=2)",
                "Thought: done\nAction: Stop",
            ],
            strict=True,
        )
        agent = ReActSchedulingAgent(backend)
        jobs = [
            make_job(1, duration=10.0, nodes=8),
            make_job(2, duration=10.0, nodes=8),
        ]
        result = run_sim(jobs, agent, nodes=8, memory=64.0)
        assert {r.job.job_id: r.start_time for r in result.records} == {
            1: 0.0, 2: 10.0,
        }
        assert len(agent.calls) == 2
        # One scratchpad entry per executed action; the thought goes
        # with the first.
        assert [(e.time, e.action_text) for e in agent.scratchpad] == [
            (0.0, "StartJob(job_id=1)"),
            (0.0, "Delay"),
            (10.0, "StartJob(job_id=2)"),
            (10.0, "Stop"),
        ]
        assert [e.thought for e in agent.scratchpad][:3] == ["both", "", ""]

    def test_malformed_plan_becomes_delay_with_parse_feedback(self):
        backend = ScriptedBackend(
            [
                "Thought: plan\n"
                "Action: StartJob(job_id=1); Launch(job_id=2); Delay",
                "Thought: ok\nAction: StartJob(job_id=1); StartJob(job_id=2)",
                "Thought: done\nAction: Stop",
            ],
            strict=True,
        )
        agent = ReActSchedulingAgent(backend)
        jobs = [
            make_job(1, duration=10.0),
            make_job(2, submit=1.0, duration=10.0),
        ]
        result = run_sim(jobs, agent, nodes=8, memory=64.0)
        assert len(result.records) == 2
        first = agent.scratchpad.entries[0]
        assert first.action_text == "(unparseable reply)"
        assert "could not be parsed" in first.feedback
        assert "Launch(job_id=2)" in first.feedback
        assert agent.calls[0].accepted is False
        # Nothing of the malformed plan ran: the next call's plan did.
        assert [e.action_text for e in agent.scratchpad][1:] == [
            "StartJob(job_id=1)", "StartJob(job_id=2)", "Stop",
        ]

    def test_rejection_mid_plan_drops_the_rest(self):
        backend = ScriptedBackend(
            [
                "Thought: greedy\n"
                "Action: StartJob(job_id=1); StartJob(job_id=2); Stop",
                "Thought: full\nAction: Delay",
                "Thought: room now\nAction: StartJob(job_id=2)",
                "Thought: done\nAction: Stop",
            ],
            strict=True,
        )
        agent = ReActSchedulingAgent(backend)
        jobs = [
            make_job(1, duration=100.0, nodes=8),
            make_job(2, duration=10.0, nodes=8),
        ]
        result = run_sim(jobs, agent, nodes=8, memory=64.0)
        assert [e.action_text for e in agent.scratchpad] == [
            "StartJob(job_id=1)",
            "StartJob(job_id=2)",
            "Delay",
            "StartJob(job_id=2)",
            "Stop",
        ]
        # The feedback goes with the rejected action, not the plan's
        # first; the plan's call is the one marked rejected.
        assert "cannot be started" in agent.scratchpad.entries[1].feedback
        assert not agent.scratchpad.entries[0].feedback
        assert [c.accepted for c in agent.calls] == [False, True, True, True]
        assert {r.job.job_id: r.start_time for r in result.records} == {
            1: 0.0, 2: 100.0,
        }

    def test_new_arrival_drops_the_rest(self):
        backend = ScriptedBackend(
            [
                "Thought: one now\n"
                "Action: StartJob(job_id=1); Delay; StartJob(job_id=2)",
                "Thought: newcomer\nAction: StartJob(job_id=3)",
                "Thought: then two\nAction: StartJob(job_id=2)",
                "Thought: done\nAction: Stop",
            ],
            strict=True,
        )
        agent = ReActSchedulingAgent(backend)
        jobs = [
            make_job(1, duration=100.0, nodes=2),
            make_job(2, duration=100.0, nodes=2),
            make_job(3, submit=5.0, duration=100.0, nodes=2),
        ]
        result = run_sim(jobs, agent, nodes=8, memory=64.0)
        assert len(agent.calls) == 4
        assert [(e.time, e.action_text) for e in agent.scratchpad][:4] == [
            (0.0, "StartJob(job_id=1)"),
            (0.0, "Delay"),
            (5.0, "StartJob(job_id=3)"),
            (5.0, "StartJob(job_id=2)"),
        ]
        assert {r.job.job_id: r.start_time for r in result.records} == {
            1: 0.0, 2: 5.0, 3: 5.0,
        }


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
