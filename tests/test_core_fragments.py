"""The prompt builder's rendered fragments, the scratchpad's tail scan
and the plain-float heterogeneity: reuse must never change a character,
must never cross from one workload to another, and must actually
happen; the loops must give numpy's bits.

The cells are the ones ``test_core_transcript.py`` pins; that file
checks the text against a recording, this one checks the long-lived
builder against a fresh one on every decision and counts the work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.agent import create_llm_scheduler
from repro.core.prompt import PromptBuilder
from repro.core.scratchpad import Scratchpad
from repro.sim.simulator import CompletedLog, RunningJob
from repro.workloads.generator import generate_workload, workload_heterogeneity

from tests.conftest import make_job
from tests.replay_backend import RecordingBackend
from tests.test_core_prompt import view_with
from tests.test_core_transcript import CELLS, run_agent


def _snapshot(pad: Scratchpad) -> Scratchpad:
    """*pad* as it is now (entries are frozen, the list is not)."""
    return Scratchpad(window=pad.window, entries=list(pad.entries))


@dataclass
class CheckedBuilder(PromptBuilder):
    """Compares every prompt it builds with a fresh builder's."""

    built: int = 0

    def build(self, view, scratchpad):
        context = super().build(view, scratchpad)
        fresh = PromptBuilder(preamble=self.preamble).build(view, scratchpad)
        assert context.prompt_text == fresh.prompt_text
        self.built += 1
        return context


@dataclass
class RevisitingBuilder(PromptBuilder):
    """After each prompt, builds the previous decision's again."""

    previous: tuple = ()
    revisited: int = 0

    def build(self, view, scratchpad):
        context = super().build(view, scratchpad)
        if self.previous:
            old_view, old_pad, old_text = self.previous
            again = super().build(old_view, old_pad)
            assert again.prompt_text == old_text
            self.revisited += 1
        self.previous = (view, _snapshot(scratchpad), context.prompt_text)
        return context


@dataclass
class ShownBuilder(PromptBuilder):
    """Records the (job, instant) pairs, queue depths and completed
    ids it was shown."""

    shown: set = field(default_factory=set)
    depths: list = field(default_factory=list)
    completed: int = 0

    def build(self, view, scratchpad):
        self.shown.update((job.job_id, view.now) for job in view.queued)
        self.depths.append(len(view.queued))
        self.completed = max(self.completed, len(view.completed_ids))
        return super().build(view, scratchpad)


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.label)
def test_long_lived_builder_matches_a_fresh_one_on_every_decision(cell):
    agent = cell.agent()
    builder = agent.prompt_builder = CheckedBuilder()
    result = run_agent(cell.jobs(), agent)
    assert builder.built >= len(result.extras["llm_calls"]) > 0


@pytest.mark.parametrize(
    "cell",
    [
        cell
        for cell in CELLS
        if cell.label
        in (
            "long_job_dominant/20/o4-mini-sim",
            "bursty_idle/150@0/claude-3.7-sim",
            "heterogeneous_mix/40/claude-3.7-sim/halluc0.3",
            "heterogeneous_mix/40/claude-3.7-sim/batch4",
        )
    ],
    ids=lambda cell: cell.label,
)
def test_a_retained_older_view_renders_as_it_first_did(cell):
    agent = cell.agent()
    builder = agent.prompt_builder = RevisitingBuilder()
    run_agent(cell.jobs(), agent)
    assert builder.revisited > 0


def _taped_agent():
    agent = create_llm_scheduler("claude-3.7-sim", seed=4)
    agent.backend = RecordingBackend(agent.backend)
    return agent


def _taped_run(agent, jobs):
    """One run's tape (``reset`` starts a new one) and scratchpad."""
    result = run_agent(jobs, agent)
    return list(agent.backend.tape), result.extras["scratchpad_text"]


def test_one_agent_over_two_workloads_that_share_job_ids():
    first = generate_workload("heterogeneous_mix", 30, seed=1)
    second = generate_workload("long_job_dominant", 30, seed=2)
    assert {j.job_id for j in first} == {j.job_id for j in second}

    reused = _taped_agent()
    assert _taped_run(reused, first) != _taped_run(reused, second)
    assert _taped_run(reused, second) == _taped_run(_taped_agent(), second)


def test_a_line_is_served_to_the_object_it_was_rendered_from_only():
    """No reset between the two views: same ids, same instant, other jobs."""
    builder = PromptBuilder()
    small = make_job(1, nodes=2, memory=8.0)
    large = make_job(1, nodes=64, memory=512.0)
    ran_small, ran_large = RunningJob(small, 0.0), RunningJob(large, 0.0)
    for job, run in ((small, ran_small), (large, ran_large), (small, ran_small)):
        view = view_with(now=5.0, queued=(job,), running=(run,))
        assert (
            builder.build(view, Scratchpad()).prompt_text
            == PromptBuilder().build(view, Scratchpad()).prompt_text
        )
    assert builder.counts()["prompt_lines_reused"] == 0


def test_completed_text_follows_the_log_it_was_joined_from():
    builder = PromptBuilder()
    log = [3, 1]
    other_log = [9, 8, 7]

    def completed_line(ids) -> str:
        view = view_with(completed_ids=ids)
        text = builder.build(view, Scratchpad()).prompt_text
        assert text == PromptBuilder().build(view, Scratchpad()).prompt_text
        return text.split("Completed Jobs:\n")[1].splitlines()[0]

    early = CompletedLog(log)
    assert completed_line(early) == "- 3, 1"
    log.extend([4, 2])
    assert completed_line(CompletedLog(log)) == "- 3, 1, 4, 2"
    assert builder.counts()["prompt_completed_ids_rendered"] == 4
    # A shorter snapshot, another run's log and a hand-built tuple all
    # start from nothing.
    assert completed_line(early) == "- 3, 1"
    assert completed_line(CompletedLog(other_log)) == "- 9, 8, 7"
    assert completed_line((5, 6)) == "- 5, 6"


def test_sixty_jobs_at_zero_render_each_line_once_per_instant():
    """The count behind the speed: work done, which repeats exactly."""
    jobs = generate_workload(
        "heterogeneous_mix", 60, seed=0, arrival_mode="zero"
    )

    def counted_run():
        agent = create_llm_scheduler("claude-3.7-sim", seed=0)
        builder = agent.prompt_builder = ShownBuilder()
        result = run_agent(jobs, agent)
        return builder, result.extras

    builder, extras = counted_run()
    rendered = extras["prompt_lines_rendered"]
    assert rendered == len(builder.shown)
    assert rendered + extras["prompt_lines_reused"] == sum(builder.depths)
    assert extras["prompt_lines_reused"] > 0
    assert rendered < sum(builder.depths)
    assert extras["prompt_completed_ids_rendered"] == builder.completed > 0
    again, extras_again = counted_run()
    assert (again.shown, again.depths) == (builder.shown, builder.depths)
    assert all(
        extras_again[name] == extras[name]
        for name in extras
        if name.startswith("prompt_")
    )


@pytest.mark.parametrize("batch_size", [1, 4])
def test_both_modes_report_the_counts(batch_size):
    jobs = generate_workload("resource_sparse", 10, seed=0)
    agent = create_llm_scheduler("o4-mini-sim", seed=0, batch_size=batch_size)
    extras = run_agent(jobs, agent).extras
    assert extras["prompt_lines_rendered"] > 0
    assert {"prompt_lines_reused", "prompt_completed_ids_rendered"} <= set(
        extras
    )


# -- scratchpad -----------------------------------------------------------

entry_times = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False).map(
        lambda t: round(t, 1)
    ),
    max_size=40,
).map(sorted)


@given(
    times=entry_times,
    with_feedback=st.lists(st.booleans(), min_size=40, max_size=40),
    since=st.floats(min_value=-1.0, max_value=51.0, allow_nan=False),
)
def test_tail_scan_equals_the_full_scan_on_clock_ordered_histories(
    times, with_feedback, since
):
    pad = Scratchpad()
    for t, fed in zip(times, with_feedback):
        pad.append(t, "", "Delay", "rejected" if fed else "")
    assert pad.recent_feedback(since) == [
        e for e in pad.entries if e.feedback and e.time >= since
    ]


def test_append_refuses_a_time_before_the_last_entry():
    pad = Scratchpad()
    pad.append(5.0, "", "Delay")
    pad.append(5.0, "", "Delay")  # the same instant is the common case
    with pytest.raises(ValueError, match="clock order"):
        pad.append(4.0, "", "Delay")
    assert len(pad) == 2


def test_an_entry_with_new_feedback_renders_afresh():
    pad = Scratchpad()
    pad.append(1.0, "thought", "StartJob(job_id=3)")
    before = pad.render()
    pad.attach_feedback("does not fit")
    assert pad.render() == before + "\nFeedback: does not fit"


# -- the latency model's input ---------------------------------------------


def _numpy_heterogeneity(jobs) -> float:
    """``workload_heterogeneity`` as it was written until PR 17 — the
    reference the plain-float loop has to match bit for bit."""
    if len(jobs) < 2:
        return 0.0
    arr = np.array([[j.duration, j.nodes, j.memory_gb] for j in jobs])
    means = arr.mean(axis=0)
    stds = arr.std(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        cvs = np.where(means > 0, stds / means, 0.0)
    return float(np.clip(cvs.mean() / 0.8, 0.0, 1.0))


job_lists = st.lists(
    st.builds(
        make_job,
        duration=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
        nodes=st.integers(min_value=1, max_value=4096),
        memory=st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        ),
    ),
    max_size=60,
)


@given(jobs=job_lists)
def test_heterogeneity_equals_the_numpy_reductions_bit_for_bit(jobs):
    assert workload_heterogeneity(jobs) == _numpy_heterogeneity(jobs)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_heterogeneity_of_the_smallest_lists(n):
    jobs = [make_job(i, duration=50.0 * (i + 1), nodes=i + 1) for i in range(n)]
    assert workload_heterogeneity(jobs) == _numpy_heterogeneity(jobs)
    assert (workload_heterogeneity(jobs) > 0) == (n == 2)


def test_heterogeneity_skips_a_column_whose_mean_is_zero():
    jobs = [make_job(i, duration=10.0 + i, memory=0.0) for i in range(9)]
    assert workload_heterogeneity(jobs) == _numpy_heterogeneity(jobs) > 0


def test_heterogeneity_of_five_thousand_jobs():
    jobs = generate_workload("heterogeneous_mix", 5000, seed=3)
    assert workload_heterogeneity(jobs) == _numpy_heterogeneity(jobs)
    assert workload_heterogeneity(tuple(jobs)) == _numpy_heterogeneity(jobs)
