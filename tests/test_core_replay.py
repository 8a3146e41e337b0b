"""Tests for the record/replay backend."""

import pytest

from repro.core.agent import ReActSchedulingAgent
from repro.core.backends import SimulatedReasoningBackend
from repro.core.profiles import CLAUDE_37_SIM
from repro.workloads.generator import generate_workload

from tests.conftest import run_sim
from tests.replay_backend import (
    RecordingBackend,
    ReplayBackend,
    ReplayMismatch,
    load_replay,
)


def record_session(jobs, seed=0):
    recorder = RecordingBackend(SimulatedReasoningBackend(CLAUDE_37_SIM, seed=seed))
    agent = ReActSchedulingAgent(recorder)
    result = run_sim(jobs, agent, nodes=256, memory=2048.0)
    return recorder, result


class TestRecording:
    def test_tape_length_matches_calls(self):
        jobs = generate_workload("resource_sparse", 8, seed=1)
        recorder, result = record_session(jobs)
        assert len(recorder.tape) == len(result.extras["llm_calls"])

    def test_save_and_load(self, tmp_path):
        jobs = generate_workload("resource_sparse", 6, seed=1)
        recorder, _ = record_session(jobs)
        path = tmp_path / "tape.json"
        recorder.save(path)
        replay = load_replay(path)
        assert replay.name == "claude-3.7-sim"
        assert len(replay.calls) == len(recorder.tape)


class TestReplay:
    def test_replay_reproduces_schedule(self, tmp_path):
        jobs = generate_workload("heterogeneous_mix", 10, seed=4)
        recorder, original = record_session(jobs, seed=2)
        path = tmp_path / "tape.json"
        recorder.save(path)

        replay_agent = ReActSchedulingAgent(load_replay(path))
        replayed = run_sim(jobs, replay_agent, nodes=256, memory=2048.0)
        assert {r.job.job_id: r.start_time for r in original.records} == {
            r.job.job_id: r.start_time for r in replayed.records
        }
        # Virtual latencies replay exactly too.
        orig = [c.latency_s for c in original.extras["llm_calls"]]
        redo = [c.latency_s for c in replayed.extras["llm_calls"]]
        assert orig == redo

    def test_prompt_mismatch_detected(self):
        jobs_a = generate_workload("resource_sparse", 6, seed=1)
        jobs_b = generate_workload("resource_sparse", 6, seed=2)
        recorder, _ = record_session(jobs_a)
        replay_agent = ReActSchedulingAgent(
            ReplayBackend(recorder.tape, verify_prompts=True)
        )
        with pytest.raises(ReplayMismatch, match="prompt mismatch"):
            run_sim(jobs_b, replay_agent, nodes=256, memory=2048.0)

    def test_unverified_replay_ignores_prompts(self):
        jobs_a = generate_workload("resource_sparse", 6, seed=1)
        recorder, _ = record_session(jobs_a)
        backend = ReplayBackend(recorder.tape, verify_prompts=False)
        reply = backend.complete("any prompt", None)
        assert reply.text == recorder.tape[0].text

    def test_tape_exhaustion(self):
        backend = ReplayBackend([], verify_prompts=False)
        with pytest.raises(ReplayMismatch, match="exhausted"):
            backend.complete("p", None)

    def test_reset_rewinds_tape(self):
        jobs = generate_workload("resource_sparse", 5, seed=1)
        recorder, _ = record_session(jobs)
        backend = ReplayBackend(recorder.tape, verify_prompts=False)
        first = backend.complete("p", None)
        backend.reset()
        assert backend.complete("p", None).text == first.text
