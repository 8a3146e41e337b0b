"""Unit tests for schedule records and results."""

import numpy as np
import pytest

from repro.sim.actions import Delay, StartJob
from repro.sim.constraints import Violation, ViolationKind
from repro.sim.schedule import DecisionRecord, JobRecord, ScheduleResult

from tests.conftest import make_job


def record(job_id=1, *, submit=0.0, start=10.0, dur=5.0, nodes=2, mem=8.0, user="u0"):
    job = make_job(job_id, submit=submit, duration=dur, nodes=nodes, memory=mem, user=user)
    return JobRecord(job, start, start + dur)


class TestJobRecord:
    def test_wait_and_turnaround(self):
        rec = record(submit=5.0, start=15.0, dur=10.0)
        assert rec.wait_time == 10.0
        assert result_with([rec]).to_arrays()["turnaround"][0] == 20.0

    def test_start_before_submit_rejected(self):
        job = make_job(1, submit=100.0)
        with pytest.raises(ValueError, match="before"):
            JobRecord(job, 50.0, 150.0)

    def test_end_before_start_rejected(self):
        job = make_job(1)
        with pytest.raises(ValueError, match="ended before"):
            JobRecord(job, 10.0, 5.0)


def result_with(records, nodes=256, mem=2048.0):
    return ScheduleResult(
        records=records,
        decisions=[],
        total_nodes=nodes,
        total_memory_gb=mem,
        scheduler_name="test",
    )


class TestScheduleResult:
    def test_makespan_from_earliest_submit(self):
        res = result_with([
            record(1, submit=10.0, start=10.0, dur=5.0),
            record(2, submit=0.0, start=0.0, dur=30.0),
        ])
        assert res.makespan == 30.0

    def test_empty_result(self):
        res = result_with([])
        assert res.makespan == 0.0
        assert res.n_jobs == 0
        assert res.max_concurrent_usage() == (0.0, 0.0)

    def test_to_arrays_contents(self):
        res = result_with([record(1, start=10.0, dur=5.0, nodes=3, mem=12.0)])
        arrays = res.to_arrays()
        assert arrays["start"][0] == 10.0
        assert arrays["nodes"][0] == 3
        assert arrays["wait"][0] == 10.0
        assert arrays["turnaround"][0] == 15.0
        assert arrays["user"][0] == "u0"
        assert arrays["job_id"].dtype == np.int64

    def test_record_for(self):
        res = result_with([record(1), record(2)])
        assert res.record_for(2).job.job_id == 2
        with pytest.raises(KeyError):
            res.record_for(3)

    def test_accepted_placements_filter(self):
        res = result_with([])
        res.decisions.extend([
            DecisionRecord(0.0, StartJob(1), accepted=True),
            DecisionRecord(0.0, Delay, accepted=True),
            DecisionRecord(
                0.0,
                StartJob(2),
                accepted=False,
                violations=(Violation(ViolationKind.NOT_QUEUED, 2),),
            ),
        ])
        assert len(res.accepted_placements) == 1
        assert len(res.rejected_decisions) == 1


class TestCapacityVerification:
    def test_peak_usage_overlapping(self):
        res = result_with([
            record(1, start=0.0, dur=10.0, nodes=4),
            record(2, start=5.0, dur=10.0, nodes=4),
            record(3, start=20.0, dur=5.0, nodes=4),
        ])
        peak_nodes, _ = res.max_concurrent_usage()
        assert peak_nodes == 8.0

    def test_back_to_back_not_concurrent(self):
        # Job 2 starts exactly when job 1 ends: half-open intervals.
        res = result_with([
            record(1, start=0.0, dur=10.0, nodes=4),
            record(2, start=10.0, dur=10.0, nodes=4),
        ])
        peak_nodes, _ = res.max_concurrent_usage()
        assert peak_nodes == 4.0

    def test_verify_capacity_passes(self):
        res = result_with(
            [record(1, nodes=4), record(2, nodes=4)], nodes=8, mem=64.0
        )
        res.verify_capacity()

    def test_verify_capacity_detects_violation(self):
        res = result_with(
            [
                record(1, start=0.0, dur=10.0, nodes=6),
                record(2, start=5.0, dur=10.0, nodes=6),
            ],
            nodes=8,
            mem=64.0,
        )
        with pytest.raises(AssertionError, match="node capacity"):
            res.verify_capacity()

    def test_verify_memory_violation(self):
        res = result_with(
            [
                record(1, start=0.0, dur=10.0, nodes=1, mem=40.0),
                record(2, start=0.0, dur=10.0, nodes=1, mem=40.0),
            ],
            nodes=8,
            mem=64.0,
        )
        with pytest.raises(AssertionError, match="memory capacity"):
            res.verify_capacity()
