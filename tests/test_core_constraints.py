"""Unit tests for natural-language feedback rendering."""


from repro.core.constraints import render_feedback, render_parse_feedback
from repro.core.grammar import ActionParseError
from repro.sim.actions import StartJob, Stop
from repro.sim.constraints import Violation, ViolationKind
from repro.sim.simulator import SystemView

from tests.conftest import make_job


def view_with_queue(jobs, free_nodes=2, free_mem=576.0):
    return SystemView(
        now=1554.0,
        queued=tuple(jobs),
        running=(),
        completed_ids=(),
        free_nodes=free_nodes,
        free_memory_gb=free_mem,
        total_nodes=256,
        total_memory_gb=2048.0,
        pending_arrivals=0,
        next_arrival_time=None,
        next_completion_time=None,
    )


class TestResourceFeedback:
    def test_fig2_style_message(self):
        """Matches the paper's Fig. 2 feedback format."""
        job = make_job(32, nodes=256, memory=8.0)
        view = view_with_queue([job], free_nodes=238, free_mem=576.0)
        violations = (
            Violation(ViolationKind.INSUFFICIENT_NODES, 32, "..."),
        )
        text = render_feedback(StartJob(32), violations, view)
        assert text == (
            "Job 32 cannot be started — requires 256 Nodes, 8 GB; "
            "available: 238 Nodes, 576 GB."
        )

    def test_memory_violation_same_shape(self):
        job = make_job(5, nodes=1, memory=1024.0)
        view = view_with_queue([job], free_nodes=100, free_mem=512.0)
        violations = (
            Violation(ViolationKind.INSUFFICIENT_MEMORY, 5, "..."),
        )
        text = render_feedback(StartJob(5), violations, view)
        assert "Job 5 cannot be started" in text
        assert "1024 GB" in text


class TestOtherFeedback:
    def test_not_queued(self):
        view = view_with_queue([])
        violations = (Violation(ViolationKind.NOT_QUEUED, 77, "gone"),)
        text = render_feedback(StartJob(77), violations, view)
        assert "Job 77 is not in the waiting queue" in text

    def test_premature_stop(self):
        view = view_with_queue([make_job(1)])
        violations = (Violation(ViolationKind.PREMATURE_STOP, detail="jobs remain"),)
        text = render_feedback(Stop, violations, view)
        assert "Stop rejected" in text
        assert "continue scheduling" in text

    def test_no_violations_empty_feedback(self):
        view = view_with_queue([])
        assert render_feedback(StartJob(1), (), view) == ""

    def test_generic_fallback(self):
        # A capacity violation for a job the view's queue does not hold
        # has no job to describe, so it falls through to the details.
        view = view_with_queue([])
        violations = (
            Violation(ViolationKind.INSUFFICIENT_NODES, 4, "needs 8 nodes"),
        )
        text = render_feedback(StartJob(4), violations, view)
        assert text == "Action StartJob(job_id=4) rejected — needs 8 nodes."


class TestParseFeedback:
    def test_mentions_format(self):
        text = render_parse_feedback(ActionParseError("bad action"))
        assert "could not be parsed" in text
        assert "StartJob(job_id=X)" in text
