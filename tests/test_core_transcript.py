"""The agent's transcript, pinned: every prompt, reply, virtual latency
and token count of a fixed set of cells, as hashes recorded before the
code under ``src/repro/core/`` was last reworked.

``schedule_digest`` hashes records, decisions and metrics only, so a
drifted prompt or latency draw is invisible to every other tier-1
test. Here each cell's simulated backend is wrapped in
:class:`~tests.replay_backend.RecordingBackend` and the tape is hashed
together with the final scratchpad text.

Regenerate (only after a *deliberate* change of prompt or policy)::

    PYTHONPATH=src python tests/test_core_transcript.py > tests/data/agent_tapes.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from repro.core.agent import ReActSchedulingAgent, create_llm_scheduler
from repro.metrics.objectives import compute_metrics
from repro.schedulers.base import BaseScheduler
from repro.service.protocol import schedule_digest
from repro.sim.cluster import ResourcePool
from repro.sim.job import Job
from repro.sim.schedule import ScheduleResult
from repro.sim.simulator import HPCSimulator
from repro.workloads.generator import generate_workload
from repro.workloads.scenarios import PAPER_SCENARIOS

from tests.replay_backend import RecordingBackend, ReplayBackend

TAPES = Path(__file__).parent / "data" / "agent_tapes.json"
MODELS = ("claude-3.7-sim", "o4-mini-sim")


@dataclass(frozen=True)
class Cell:
    """One pinned run: a workload and the agent that schedules it."""

    label: str
    jobs: Callable[[], list[Job]]
    agent: Callable[[], ReActSchedulingAgent]


def _cells() -> list[Cell]:
    cells = [
        Cell(
            f"{scenario}/20/{model}",
            lambda s=scenario: generate_workload(s, 20, seed=0),
            lambda m=model: create_llm_scheduler(m, seed=0),
        )
        for scenario in PAPER_SCENARIOS
        for model in MODELS
    ]
    # perfbench's agent_react cells: everything queued at t=0.
    cells += [
        Cell(
            f"{scenario}/150@0/{model}",
            lambda s=scenario: generate_workload(
                s, 150, seed=0, arrival_mode="zero"
            ),
            lambda m=model: create_llm_scheduler(m, seed=0),
        )
        for scenario in ("heterogeneous_mix", "bursty_idle")
        for model in MODELS
    ]
    # The rejection / feedback path, taken often.
    cells.append(
        Cell(
            "heterogeneous_mix/40/claude-3.7-sim/halluc0.3",
            lambda: generate_workload("heterogeneous_mix", 40, seed=1),
            lambda: create_llm_scheduler(
                "claude-3.7-sim", seed=3, hallucination_rate=0.3
            ),
        )
    )
    # Plan-ahead mode: multi-action replies, and plans dropped on a
    # rejection or an arrival.
    cells.append(
        Cell(
            "heterogeneous_mix/40/claude-3.7-sim/batch4",
            lambda: generate_workload("heterogeneous_mix", 40, seed=2),
            lambda: create_llm_scheduler(
                "claude-3.7-sim", batch_size=4, seed=5
            ),
        )
    )
    return cells


CELLS = _cells()


def run_agent(jobs: list[Job], agent: BaseScheduler) -> ScheduleResult:
    result = HPCSimulator(
        jobs=list(jobs), scheduler=agent, cluster=ResourcePool()
    ).run()
    result.verify_capacity()
    return result


def _sha(payload) -> str:
    blob = json.dumps(payload, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def transcript(cell: Cell) -> dict:
    """Hashes of everything the agent said and was told in *cell*."""
    agent = cell.agent()
    recorder = agent.backend = RecordingBackend(agent.backend)
    result = run_agent(cell.jobs(), agent)
    tape = [
        [
            call.prompt_fingerprint,
            call.text,
            call.latency_s.hex(),
            call.input_tokens,
            call.output_tokens,
        ]
        for call in recorder.tape
    ]
    return {
        "calls": len(result.extras["llm_calls"]),
        "rejected": sum(
            not call.accepted for call in result.extras["llm_calls"]
        ),
        "tape": _sha(tape),
        "scratchpad": _sha(result.extras["scratchpad_text"]),
    }


def test_every_pinned_cell_is_still_defined():
    assert sorted(json.loads(TAPES.read_text())) == sorted(
        cell.label for cell in CELLS
    )


def test_the_feedback_path_is_pinned():
    cell = json.loads(TAPES.read_text())[
        "heterogeneous_mix/40/claude-3.7-sim/halluc0.3"
    ]
    assert cell["rejected"] >= 5


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.label)
def test_transcript_matches_the_recording(cell):
    assert transcript(cell) == json.loads(TAPES.read_text())[cell.label]


def _digest(result: ScheduleResult) -> str:
    return schedule_digest(result, compute_metrics(result).as_dict())


def test_a_batched_run_replays_from_its_tape():
    """Plans travel in the reply text, so a tape of a plan-ahead run
    replays it with every prompt checked against the recording."""
    (cell,) = [c for c in CELLS if c.label.endswith("/batch4")]
    agent = cell.agent()
    recorder = agent.backend = RecordingBackend(agent.backend)
    recorded = run_agent(cell.jobs(), agent)
    replay = ReplayBackend(recorder.tape, verify_prompts=True)
    replayed = run_agent(cell.jobs(), ReActSchedulingAgent(replay))
    assert len(replayed.extras["llm_calls"]) == len(recorder.tape)
    assert _digest(replayed) == _digest(recorded)


if __name__ == "__main__":
    json.dump(
        {cell.label: transcript(cell) for cell in CELLS},
        sys.stdout,
        indent=1,
        sort_keys=True,
    )
    sys.stdout.write("\n")
