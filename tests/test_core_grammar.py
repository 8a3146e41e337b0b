"""Unit tests for the ReAct text grammar."""

import pytest

from repro.core.grammar import (
    ActionParseError,
    action_tag,
    parse_action,
    parse_reply,
    render_reply,
)
from repro.sim.actions import BackfillJob, Delay, StartJob, Stop


class TestParseAction:
    def test_canonical_start(self):
        assert parse_action("StartJob(job_id=9)") == StartJob(9)

    def test_canonical_backfill(self):
        assert parse_action("BackfillJob(job_id=40)") == BackfillJob(40)

    def test_delay(self):
        assert parse_action("Delay") == Delay

    def test_stop(self):
        assert parse_action("Stop") == Stop

    def test_case_insensitive(self):
        assert parse_action("startjob(JOB_ID=3)") == StartJob(3)
        assert parse_action("DELAY") == Delay

    def test_bare_integer_argument(self):
        assert parse_action("StartJob(7)") == StartJob(7)

    def test_jobid_without_underscore(self):
        assert parse_action("StartJob(jobid=5)") == StartJob(5)

    def test_whitespace_tolerated(self):
        assert parse_action("  StartJob ( job_id = 12 )  ") == StartJob(12)

    def test_delay_with_parens_or_period(self):
        assert parse_action("Delay()") == Delay
        assert parse_action("Delay.") == Delay

    def test_garbage_rejected(self):
        with pytest.raises(ActionParseError, match="unrecognized action"):
            parse_action("LaunchRocket(job_id=1)")

    def test_missing_id_rejected(self):
        with pytest.raises(ActionParseError):
            parse_action("StartJob()")


class TestParseReply:
    def test_canonical_reply(self):
        reply = parse_reply("Thought: pick the short job\nAction: StartJob(job_id=9)")
        assert reply.thought == "pick the short job"
        assert reply.action == StartJob(9)
        assert reply.rest == ()

    def test_multiline_thought(self):
        text = (
            "Thought: line one\nline two\nline three\n"
            "Action: Delay"
        )
        reply = parse_reply(text)
        assert reply.thought == "line one\nline two\nline three"
        assert reply.action == Delay

    def test_last_action_line_wins(self):
        text = (
            "Thought: I considered Action: StartJob(job_id=1)\n"
            "Action: StartJob(job_id=1)\n"
            "Hmm, actually...\n"
            "Action: Delay"
        )
        assert parse_reply(text).action == Delay

    def test_last_action_line_wins_over_an_earlier_plan(self):
        text = (
            "Thought: first idea\n"
            "Action: StartJob(job_id=1); StartJob(job_id=2)\n"
            "On reflection, the cluster is full.\n"
            "Action: Delay"
        )
        reply = parse_reply(text)
        assert reply.action == Delay
        assert reply.rest == ()

    @pytest.mark.parametrize(
        "plan",
        [
            "StartJob(job_id=3); LaunchRocket(job_id=4); Delay",
            "StartJob(job_id=3);",
        ],
    )
    def test_plan_with_one_bad_element_raises(self, plan):
        with pytest.raises(ActionParseError, match="unrecognized action"):
            parse_reply(f"Thought: x\nAction: {plan}")

    def test_reply_without_thought_marker(self):
        reply = parse_reply("just some musings\nAction: Stop")
        assert reply.action == Stop
        assert "musings" in reply.thought

    def test_no_action_line_raises(self):
        with pytest.raises(ActionParseError, match="no 'Action:'"):
            parse_reply("Thought: hmm, tough one")

    def test_malformed_action_raises(self):
        with pytest.raises(ActionParseError):
            parse_reply("Thought: x\nAction: DoTheThing")


class TestRenderRoundTrip:
    @pytest.mark.parametrize(
        "action",
        [StartJob(1), BackfillJob(22), Delay, Stop],
    )
    def test_round_trip(self, action):
        text = render_reply("some reasoning", action)
        parsed = parse_reply(text)
        assert parsed.action == action
        assert parsed.thought == "some reasoning"


    def test_plan_round_trip(self):
        text = render_reply("pack three", StartJob(3), BackfillJob(5), Delay)
        assert text.splitlines()[-1] == (
            "Action: StartJob(job_id=3); BackfillJob(job_id=5); Delay"
        )
        parsed = parse_reply(text)
        assert parsed.thought == "pack three"
        assert parsed.action == StartJob(3)
        assert parsed.rest == (BackfillJob(5), Delay)


class TestActionTag:
    def test_tags(self):
        assert action_tag(StartJob(1)) == "start_job"
        assert action_tag(BackfillJob(1)) == "backfill_job"
        assert action_tag(Delay) == "delay"
        assert action_tag(Stop) == "stop"
