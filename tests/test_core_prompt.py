"""Unit tests for prompt construction."""


from repro.core.prompt import PromptBuilder, estimate_tokens
from repro.core.scratchpad import Scratchpad
from repro.sim.simulator import RunningJob, SystemView

from tests.conftest import make_job


def view_with(**overrides):
    defaults = dict(
        now=0.0,
        queued=(),
        running=(),
        completed_ids=(),
        free_nodes=256,
        free_memory_gb=2048.0,
        total_nodes=256,
        total_memory_gb=2048.0,
        pending_arrivals=0,
        next_arrival_time=None,
        next_completion_time=None,
    )
    defaults.update(overrides)
    return SystemView(**defaults)


class TestPromptStructure:
    def test_empty_state_prompt(self):
        ctx = PromptBuilder().build(view_with(), Scratchpad())
        text = ctx.prompt_text
        assert "expert HPC resource manager" in text
        assert "System capacity: 256 nodes, 2048 GB memory" in text
        assert "Current time: 0" in text
        assert "Available Nodes: 256" in text
        assert "Available Memory: 2048 GB" in text
        assert "Running Jobs:\nNone" in text
        assert "Completed Jobs:\nNone" in text
        assert "Waiting Jobs (eligible to schedule):\nNone" in text
        assert "(nothing yet)" in text

    def test_objectives_block_present(self):
        text = PromptBuilder().build(view_with(), Scratchpad()).prompt_text
        assert "Fairness: Minimize variance in user wait times" in text
        assert "Do not exceed 256 Nodes or 2048 GB memory" in text
        assert "Trade-offs are allowed" in text

    def test_output_format_block(self):
        text = PromptBuilder().build(view_with(), Scratchpad()).prompt_text
        assert "StartJob(job_id=X)" in text
        assert "BackfillJob(job_id=Y)" in text
        assert "Thought: <your reasoning>" in text
        assert "Action: <your action>" in text

    def test_queued_jobs_listed_with_wait(self):
        job = make_job(7, submit=0.0, nodes=16, memory=32.0, user="user_3")
        ctx = PromptBuilder().build(
            view_with(now=50.0, queued=(job,)), Scratchpad()
        )
        assert "Job 7: 16 nodes, 32 GB" in ctx.prompt_text
        assert "user=user_3" in ctx.prompt_text
        assert "waiting=50s" in ctx.prompt_text

    def test_running_jobs_listed(self):
        run = RunningJob(make_job(3, nodes=8, memory=16.0), 5.0)
        ctx = PromptBuilder().build(view_with(running=(run,)), Scratchpad())
        assert "Job 3: 8 nodes, 16 GB, started t=5" in ctx.prompt_text

    def test_completed_ids_listed(self):
        ctx = PromptBuilder().build(
            view_with(completed_ids=(1, 2, 3)), Scratchpad()
        )
        assert "- 1, 2, 3" in ctx.prompt_text

    def test_scratchpad_embedded(self):
        pad = Scratchpad()
        pad.append(1.0, "my earlier reasoning", "Delay")
        ctx = PromptBuilder().build(view_with(), pad)
        assert "# Scratchpad (Decision History)" in ctx.prompt_text
        assert "my earlier reasoning" in ctx.prompt_text

    def test_capacity_parameterized(self):
        view = view_with(
            total_nodes=560,
            total_memory_gb=560 * 512.0,
            free_nodes=560,
            free_memory_gb=560 * 512.0,
        )
        text = PromptBuilder().build(view, Scratchpad()).prompt_text
        assert "System capacity: 560 nodes" in text
        assert "Do not exceed 560 Nodes" in text

    def test_context_carries_view(self):
        view = view_with(now=12.5)
        ctx = PromptBuilder().build(view, Scratchpad())
        assert ctx.view is view


class TestTokenEstimate:
    def test_minimum_one(self):
        assert estimate_tokens("") == 1

    def test_scales_with_length(self):
        assert estimate_tokens("x" * 400) == 100
