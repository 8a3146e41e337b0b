"""Unit tests for FCFS and EASY backfilling."""

import pytest

from repro.schedulers.fcfs import (
    EasyBackfillScheduler,
    FCFSScheduler,
    head_reservation,
)
from repro.sim.actions import ActionKind

from tests.conftest import make_job, run_sim


class TestStrictFCFS:
    def test_arrival_order_preserved(self):
        jobs = [
            make_job(1, submit=0.0, duration=10.0, nodes=8),
            make_job(2, submit=1.0, duration=1.0, nodes=1),
            make_job(3, submit=2.0, duration=1.0, nodes=1),
        ]
        result = run_sim(jobs, FCFSScheduler(), nodes=8, memory=64.0)
        starts = {r.job.job_id: r.start_time for r in result.records}
        # Strict FCFS: 2 and 3 wait behind 1 even though they'd fit... they
        # don't fit (job 1 holds all 8 nodes), but the point is ordering.
        assert starts[1] == 0.0
        assert starts[2] == 10.0
        assert starts[3] == 10.0

    def test_head_blocking_wastes_resources(self):
        # Head job 2 needs the full cluster; small job 3 fits now but
        # strict FCFS will not jump the queue — the convoy effect the
        # paper's Adversarial scenario targets.
        jobs = [
            make_job(1, submit=0.0, duration=100.0, nodes=4),
            make_job(2, submit=1.0, duration=10.0, nodes=8),
            make_job(3, submit=2.0, duration=5.0, nodes=1),
        ]
        result = run_sim(jobs, FCFSScheduler(), nodes=8, memory=64.0)
        starts = {r.job.job_id: r.start_time for r in result.records}
        assert starts[2] == 100.0
        assert starts[3] == 110.0  # waited behind the blocked head

    def test_no_queue_delays(self):
        jobs = [make_job(1, submit=5.0, duration=1.0)]
        result = run_sim(jobs, FCFSScheduler())
        assert result.record_for(1).start_time == 5.0


class TestHeadReservation:
    def test_reservation_accumulates_releases(self):
        from repro.sim.simulator import RunningJob, SystemView

        head = make_job(10, nodes=6, memory=8.0)
        running = (
            RunningJob(make_job(1, nodes=4, duration=50.0), 0.0),
            RunningJob(make_job(2, nodes=2, duration=20.0), 0.0),
        )
        view = SystemView(
            now=10.0, queued=(head,), running=running, completed_ids=(),
            free_nodes=2, free_memory_gb=48.0, total_nodes=8,
            total_memory_gb=64.0, pending_arrivals=0,
            next_arrival_time=None, next_completion_time=20.0,
        )
        shadow, extra_nodes, extra_mem = head_reservation(head, running, view)
        # Job 2 releases 2 nodes at t=20 (4 free, not enough); job 1
        # releases 4 more at t=50 → 8 free ≥ 6 → shadow = 50.
        assert shadow == 50.0
        assert extra_nodes == 2
        assert extra_mem == pytest.approx(64.0 - 8.0)


class TestEasyBackfill:
    def test_backfills_short_job_behind_blocked_head(self):
        jobs = [
            make_job(1, submit=0.0, duration=100.0, nodes=6),
            make_job(2, submit=1.0, duration=50.0, nodes=8),   # blocked head
            make_job(3, submit=2.0, duration=10.0, nodes=2),   # backfillable
        ]
        result = run_sim(jobs, EasyBackfillScheduler(), nodes=8, memory=64.0)
        starts = {r.job.job_id: r.start_time for r in result.records}
        assert starts[3] == 2.0       # ran ahead of the head
        assert starts[2] == 100.0     # head not delayed

    def test_never_delays_head_reservation(self):
        # Candidate job 3 fits now but its walltime (200) would run past
        # the head's shadow time (100) while using nodes the head needs.
        jobs = [
            make_job(1, submit=0.0, duration=100.0, nodes=6),
            make_job(2, submit=1.0, duration=50.0, nodes=8),
            make_job(3, submit=2.0, duration=200.0, nodes=2),
        ]
        result = run_sim(jobs, EasyBackfillScheduler(), nodes=8, memory=64.0)
        starts = {r.job.job_id: r.start_time for r in result.records}
        assert starts[2] == 100.0     # head reservation held
        assert starts[3] >= 100.0     # candidate was *not* backfilled early

    def test_backfills_into_reservation_extras(self):
        # Head needs 6 of 8 nodes at its shadow time; a long 1-node job
        # fits into the 2-node extra indefinitely.
        jobs = [
            make_job(1, submit=0.0, duration=100.0, nodes=6),
            make_job(2, submit=1.0, duration=50.0, nodes=6),
            make_job(3, submit=2.0, duration=500.0, nodes=2),
        ]
        result = run_sim(jobs, EasyBackfillScheduler(), nodes=8, memory=64.0)
        starts = {r.job.job_id: r.start_time for r in result.records}
        assert starts[3] == 2.0
        assert starts[2] == 100.0

    def test_backfill_decisions_tagged(self):
        jobs = [
            make_job(1, submit=0.0, duration=100.0, nodes=6),
            make_job(2, submit=1.0, duration=50.0, nodes=8),
            make_job(3, submit=2.0, duration=10.0, nodes=2),
        ]
        result = run_sim(jobs, EasyBackfillScheduler(), nodes=8, memory=64.0)
        kinds = [d.action.kind for d in result.accepted_placements]
        assert ActionKind.BACKFILL in kinds

    def test_decision_after_a_backfill_carries_no_stale_meta(self):
        """The reservation a backfill reports belongs to that decision
        only: the ``Delay`` and the ``StartJob`` recorded after it have
        empty ``meta``. (``schedule_digest`` and the pinned regression
        digests hash a decision's time, action and verdict, never its
        ``meta``, so clearing it moves no pin.)"""
        jobs = [
            make_job(1, submit=0.0, duration=100.0, nodes=6),
            make_job(2, submit=1.0, duration=50.0, nodes=8),
            make_job(3, submit=2.0, duration=10.0, nodes=2),
        ]
        result = run_sim(jobs, EasyBackfillScheduler(), nodes=8, memory=64.0)
        kinds = [d.action.kind for d in result.decisions]
        at = kinds.index(ActionKind.BACKFILL)
        assert result.decisions[at].meta == {
            "shadow_time": 100.0, "reserved_job": 2,
        }
        assert kinds[at + 1] is ActionKind.DELAY
        assert ActionKind.START in kinds[at + 1:]
        assert all(d.meta == {} for d in result.decisions[at + 1:])

    def test_equals_fcfs_without_contention(self):
        jobs = [make_job(i, submit=float(i), duration=5.0, nodes=1) for i in range(1, 6)]
        a = run_sim(jobs, FCFSScheduler(), nodes=8, memory=64.0)
        b = run_sim(jobs, EasyBackfillScheduler(), nodes=8, memory=64.0)
        sa = {r.job.job_id: r.start_time for r in a.records}
        sb = {r.job.job_id: r.start_time for r in b.records}
        assert sa == sb
