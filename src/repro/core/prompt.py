"""Prompt construction (paper §3.4).

Renders the exact prompt structure the paper shows: role preamble,
system capacity, current time, available resources, running/completed/
waiting job listings, the scratchpad, the multiobjective goal
statement with trade-off guidance, and the required output format.

Backends receive both the rendered text (what a real API would see)
and a structured :class:`PromptContext` (so the simulated reasoner
does not have to re-parse its own rendering; a real-API backend would
ignore the context).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.scratchpad import Scratchpad
from repro.sim.job import Job
from repro.sim.simulator import CompletedLog, RunningJob, SystemView

#: The objective block, verbatim from the paper's prompt example.
OBJECTIVES_BLOCK = """\
Your scheduling objectives are:
You must balance all of the following:
- Fairness: Minimize variance in user wait times. Avoid starving any user.
- Makespan: Minimize total time to finish all jobs.
- Utilization: Maximize Node & memory usage over time (avoid idle resources).
- Throughput: Maximize the number of jobs completed per unit time.
- Feasibility: Do not exceed {nodes} Nodes or {memory:g} GB memory at any time.

Trade-offs are allowed. Do not over-optimize one metric at the expense of others.
For example:
- Prioritizing a long-waiting job improves fairness, but may slightly hurt makespan.
- Choosing short jobs improves throughput, but may increase wait time for large jobs."""

#: The instruction/output block, verbatim structure from the paper.
DECIDE_BLOCK = """\
Decide:
(1) Which job should be started now (if any)?
(2) Justify your decision in thought.
(3) Return only one of:
- StartJob(job_id=X)
- BackfillJob(job_id=Y)
- Delay
- Stop (when all jobs have been scheduled)

Output format:
Thought: <your reasoning>
Action: <your action>"""


@dataclass(frozen=True)
class PromptContext:
    """Structured companion to the rendered prompt text."""

    view: SystemView
    scratchpad: Scratchpad
    prompt_text: str

    @property
    def now(self) -> float:
        return self.view.now


@dataclass
class _Fragments:
    """Prompt text a :class:`PromptBuilder` has already rendered.

    Every entry keeps the object it was rendered from and is served
    only to that same object (``is``), so two workloads that reuse job
    ids can never see each other's lines.
    """

    #: job id -> (job, its waiting line up to ``waiting=``).
    job_prefix: dict[int, tuple[Job, str]] = field(default_factory=dict)
    #: The clock value ``waiting`` was rendered for.
    instant: Optional[float] = None
    #: job id -> (job, its finished waiting line at ``instant``).
    waiting: dict[int, tuple[Job, str]] = field(default_factory=dict)
    #: job id -> (running job, its line).
    running: dict[int, tuple[RunningJob, str]] = field(default_factory=dict)
    #: The completion-log snapshot ``completed_text`` joins.
    completed: Optional[CompletedLog] = None
    completed_text: str = ""
    lines_rendered: int = 0
    lines_reused: int = 0
    completed_ids_rendered: int = 0


@dataclass
class PromptBuilder:
    """Builds §3.4-style prompts from a system view + scratchpad.

    A builder that lives as long as its agent renders each fragment
    once per thing that can change it: a waiting job's fields never do,
    its ``waiting=`` only when the clock moves, a running job's line
    never, and the completed list only grows. A fresh builder gives the
    same text for the same view; :meth:`reset` forgets everything.
    """

    preamble: str = (
        "You are an expert HPC resource manager, and your task is to "
        "schedule jobs in a high-performance computing (HPC) environment. "
        "Use the current system state, job queue, scratchpad (decision "
        "history), and fairness indicators to make well-balanced decisions."
    )
    _fragments: _Fragments = field(
        default_factory=_Fragments, init=False, repr=False, compare=False
    )

    def reset(self) -> None:
        """Drop every rendered fragment and zero the counts (a new run)."""
        self._fragments = _Fragments()

    def counts(self) -> dict[str, int]:
        """Waiting-job lines rendered and reused, and completed ids
        stringified, since the last :meth:`reset` — work done, not time
        taken, so the numbers repeat exactly."""
        frag = self._fragments
        return {
            "prompt_lines_rendered": frag.lines_rendered,
            "prompt_lines_reused": frag.lines_reused,
            "prompt_completed_ids_rendered": frag.completed_ids_rendered,
        }

    def build(self, view: SystemView, scratchpad: Scratchpad) -> PromptContext:
        """Render the full prompt for one decision point."""
        lines: list[str] = [self.preamble, ""]
        lines.append(
            f"System capacity: {view.total_nodes} nodes, "
            f"{view.total_memory_gb:g} GB memory"
        )
        lines.append(f"Current time: {view.now:g}")
        lines.append(f"Available Nodes: {view.free_nodes}")
        lines.append(f"Available Memory: {view.free_memory_gb:g} GB")

        lines.append("Running Jobs:")
        if view.running:
            lines.extend(self._running_lines(view))
        else:
            lines.append("None")

        lines.append("Completed Jobs:")
        if view.completed_ids:
            lines.append(f"- {self._completed_text(view.completed_ids)}")
        else:
            lines.append("None")

        lines.append("Waiting Jobs (eligible to schedule):")
        if view.queued:
            lines.extend(self._waiting_lines(view))
        else:
            lines.append("None")

        if view.blocked_jobs:
            lines.append(
                f"Jobs held by unmet dependencies (not yet eligible): "
                f"{view.blocked_jobs}"
            )

        lines.append("")
        lines.append("# Scratchpad (Decision History)")
        lines.append(scratchpad.render())
        lines.append("")
        lines.append(
            OBJECTIVES_BLOCK.format(
                nodes=view.total_nodes, memory=view.total_memory_gb
            )
        )
        lines.append("")
        lines.append(DECIDE_BLOCK)

        return PromptContext(
            view=view, scratchpad=scratchpad, prompt_text="\n".join(lines)
        )

    def _running_lines(self, view: SystemView) -> list[str]:
        known = self._fragments.running
        lines = []
        for run in sorted(view.running, key=lambda r: r.job.job_id):
            job = run.job
            entry = known.get(job.job_id)
            if entry is None or entry[0] is not run:
                entry = known[job.job_id] = (
                    run,
                    f"- Job {job.job_id}: {job.nodes} nodes, "
                    f"{job.memory_gb:g} GB, started t={run.start_time:g}, "
                    f"user={job.user}",
                )
            lines.append(entry[1])
        return lines

    def _completed_text(self, ids: Sequence[int]) -> str:
        """``ids`` joined; a :class:`CompletedLog` that extends the one
        joined last time only has its new ids stringified."""
        frag = self._fragments
        if not isinstance(ids, CompletedLog):
            return ", ".join(map(str, ids))
        new = None if frag.completed is None else ids.since(frag.completed)
        if new is None:
            new, text = list(ids), ""
        else:
            text = frag.completed_text
        if new:
            joined = ", ".join(map(str, new))
            text = f"{text}, {joined}" if text else joined
            frag.completed_ids_rendered += len(new)
        frag.completed, frag.completed_text = ids, text
        return text

    def _waiting_lines(self, view: SystemView) -> list[str]:
        frag = self._fragments
        now = view.now
        if now != frag.instant:
            # The queue only loses jobs while the clock stands still, so
            # the lines of one instant are all the reuse there is.
            frag.instant, frag.waiting = now, {}
        finished, prefixes = frag.waiting, frag.job_prefix
        lines = []
        rendered = 0
        for job in view.queued:
            job_id = job.job_id
            entry = finished.get(job_id)
            if entry is None or entry[0] is not job:
                prefix = prefixes.get(job_id)
                if prefix is None or prefix[0] is not job:
                    prefix = prefixes[job_id] = (
                        job,
                        f"- Job {job_id}: {job.nodes} nodes, "
                        f"{job.memory_gb:g} GB, walltime={job.walltime:g}, "
                        f"user={job.user}, waiting=",
                    )
                entry = finished[job_id] = (
                    job,
                    f"{prefix[1]}{now - job.submit_time:g}s",
                )
                rendered += 1
            lines.append(entry[1])
        frag.lines_rendered += rendered
        frag.lines_reused += len(lines) - rendered
        return lines


def estimate_tokens(text: str) -> int:
    """Cheap token estimate (≈4 chars/token) for overhead accounting."""
    return max(1, len(text) // 4)
