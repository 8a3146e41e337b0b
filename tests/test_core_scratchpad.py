"""Unit tests for the scratchpad memory."""

import pytest

from repro.core.scratchpad import Scratchpad


class TestAppendAndRender:
    def test_empty_renders_placeholder(self):
        assert Scratchpad().render() == "(nothing yet)"

    def test_entry_rendering(self):
        pad = Scratchpad()
        pad.append(0.0, "reasoning here", "StartJob(job_id=1)")
        text = pad.render()
        assert "[t=0] Thought: reasoning here" in text
        assert "[t=0] Action: StartJob(job_id=1)" in text

    def test_feedback_rendered(self):
        pad = Scratchpad()
        pad.append(5.0, "", "StartJob(job_id=2)", feedback="not enough nodes")
        assert "Feedback: not enough nodes" in pad.render()

    def test_thought_truncated_to_first_line(self):
        pad = Scratchpad()
        pad.append(0.0, "first line\nsecond line", "Delay")
        text = pad.render()
        assert "first line" in text
        assert "second line" not in text

    def test_window_limits_rendering(self):
        pad = Scratchpad(window=3)
        for i in range(10):
            pad.append(float(i), f"thought {i}", "Delay")
        text = pad.render()
        assert "(7 earlier entries omitted)" in text
        assert "thought 9" in text
        assert "thought 5" not in text

    def test_unbounded_window(self):
        pad = Scratchpad(window=None)
        for i in range(10):
            pad.append(float(i), f"thought {i}", "Delay")
        text = pad.render()
        assert "omitted" not in text
        assert "thought 0" in text

    def test_full_history_retained_despite_window(self):
        pad = Scratchpad(window=2)
        for i in range(5):
            pad.append(float(i), "", "Delay")
        assert len(pad) == 5


class TestFeedback:
    def test_attach_feedback_to_last(self):
        pad = Scratchpad()
        pad.append(0.0, "t", "StartJob(job_id=1)")
        pad.attach_feedback("rejected")
        assert pad.entries[-1].feedback == "rejected"

    def test_attach_feedback_empty_raises(self):
        with pytest.raises(RuntimeError):
            Scratchpad().attach_feedback("x")

    def test_recent_feedback_filters_by_time(self):
        pad = Scratchpad()
        pad.append(0.0, "", "StartJob(job_id=1)", feedback="old")
        pad.append(10.0, "", "StartJob(job_id=2)", feedback="new")
        pad.append(10.0, "", "Delay")
        recent = pad.recent_feedback(10.0)
        assert len(recent) == 1
        assert recent[0].feedback == "new"


class TestMisc:
    def test_iter(self):
        pad = Scratchpad()
        pad.append(0.0, "", "Delay")
        pad.append(1.0, "", "Stop")
        assert [e.action_text for e in pad] == ["Delay", "Stop"]
