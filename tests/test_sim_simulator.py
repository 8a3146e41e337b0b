"""Integration-level tests of the discrete event engine."""

import pytest

from repro.schedulers.base import BaseScheduler
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.heuristics import FirstFitScheduler
from repro.sim.actions import Delay, StartJob, Stop
from repro.sim.cluster import ResourcePool
from repro.sim.schedule import ScheduleResult
from repro.sim.simulator import (
    CompletedLog,
    HPCSimulator,
    SimulationError,
    SystemView,
    simulate,
)

from tests.conftest import make_job, run_sim


class TestBasicExecution:
    def test_single_job_runs_immediately(self):
        result = run_sim([make_job(1, duration=10.0)], FCFSScheduler())
        rec = result.record_for(1)
        assert rec.start_time == 0.0
        assert rec.end_time == 10.0

    def test_all_jobs_complete_exactly_once(self):
        jobs = [make_job(i, submit=i * 5.0, duration=30.0) for i in range(1, 6)]
        result = run_sim(jobs, FCFSScheduler())
        assert sorted(r.job.job_id for r in result.records) == [1, 2, 3, 4, 5]

    def test_sequential_when_cluster_full(self):
        jobs = [
            make_job(1, nodes=8, duration=100.0),
            make_job(2, nodes=8, duration=50.0),
        ]
        result = run_sim(jobs, FCFSScheduler(), nodes=8, memory=64.0)
        assert result.record_for(1).start_time == 0.0
        assert result.record_for(2).start_time == 100.0

    def test_parallel_when_resources_allow(self):
        jobs = [
            make_job(1, nodes=4, duration=100.0),
            make_job(2, nodes=4, duration=50.0),
        ]
        result = run_sim(jobs, FCFSScheduler(), nodes=8, memory=64.0)
        assert result.record_for(1).start_time == 0.0
        assert result.record_for(2).start_time == 0.0

    def test_job_not_started_before_submission(self):
        jobs = [make_job(1, submit=42.0, duration=10.0)]
        result = run_sim(jobs, FCFSScheduler())
        assert result.record_for(1).start_time == 42.0

    def test_resources_released_at_completion(self):
        # Job 2 (8 nodes) must wait for job 1 (5 nodes) even though it
        # arrives while job 1 runs; it starts exactly at the release.
        jobs = [
            make_job(1, nodes=5, duration=60.0),
            make_job(2, submit=10.0, nodes=8, duration=10.0),
        ]
        result = run_sim(jobs, FCFSScheduler(), nodes=8, memory=64.0)
        assert result.record_for(2).start_time == 60.0

    def test_memory_constraint_serializes(self):
        jobs = [
            make_job(1, nodes=1, memory=60.0, duration=30.0),
            make_job(2, nodes=1, memory=60.0, duration=30.0),
        ]
        result = run_sim(jobs, FCFSScheduler(), nodes=8, memory=64.0)
        assert result.record_for(2).start_time == 30.0


class TestDecisionRecords:
    def test_every_start_recorded(self):
        jobs = [make_job(i, duration=10.0) for i in range(1, 4)]
        result = run_sim(jobs, FCFSScheduler(), nodes=8, memory=64.0)
        placements = result.accepted_placements
        assert len(placements) == 3

    def test_delay_recorded_when_blocked(self):
        jobs = [
            make_job(1, nodes=8, duration=100.0),
            make_job(2, nodes=8, duration=10.0),
        ]
        result = run_sim(jobs, FCFSScheduler(), nodes=8, memory=64.0)
        delays = [
            d for d in result.decisions if d.action.kind.value == "Delay"
        ]
        assert delays

    def test_scheduler_name_propagates(self):
        result = run_sim([make_job(1)], FCFSScheduler())
        assert result.scheduler_name == "fcfs"


class TestRetryAndForcedDelay:
    class StubbornScheduler(FCFSScheduler):
        """Always proposes the same infeasible job."""

        name = "stubborn"

        def decide(self, view):
            # Job 2 needs the whole cluster while job 1 runs.
            if view.queued:
                return StartJob(view.queued[0].job_id)
            return Delay

    def test_forced_delay_after_retries(self):
        jobs = [
            make_job(1, nodes=8, duration=50.0),
            make_job(2, submit=1.0, nodes=8, duration=10.0),
        ]
        sim = HPCSimulator(
            jobs=jobs,
            scheduler=self.StubbornScheduler(),
            cluster=ResourcePool(total_nodes=8, total_memory_gb=64.0),
            max_retries=2,
        )
        result = sim.run()
        rejected = result.rejected_decisions
        assert rejected  # infeasible proposals were recorded
        assert len(result.records) == 2  # and the run still completed

    def test_retry_indices_increment(self):
        jobs = [
            make_job(1, nodes=8, duration=50.0),
            make_job(2, submit=1.0, nodes=8, duration=10.0),
        ]
        sim = HPCSimulator(
            jobs=jobs,
            scheduler=self.StubbornScheduler(),
            cluster=ResourcePool(total_nodes=8, total_memory_gb=64.0),
            max_retries=2,
        )
        result = sim.run()
        retries = [d.retry_index for d in result.rejected_decisions]
        assert max(retries) >= 1


class TestErrorConditions:
    def test_oversize_job_rejected_at_init(self):
        with pytest.raises(SimulationError, match="exceeds total cluster"):
            HPCSimulator(
                jobs=[make_job(1, nodes=1000)],
                scheduler=FCFSScheduler(),
                cluster=ResourcePool(total_nodes=8, total_memory_gb=64.0),
            )

    def test_deadlock_detected(self):
        class AlwaysDelay(FCFSScheduler):
            name = "always_delay"

            def decide(self, view):
                return Delay

        sim = HPCSimulator(
            jobs=[make_job(1)],
            scheduler=AlwaysDelay(),
            cluster=ResourcePool(total_nodes=8, total_memory_gb=64.0),
        )
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run()

    def test_decision_budget_guard(self):
        class Spinner(FCFSScheduler):
            """Alternates infeasible proposals forever via retries."""

            name = "spinner"

            def decide(self, view):
                if view.queued:
                    return StartJob(view.queued[-1].job_id)
                return Delay

        jobs = [
            make_job(1, nodes=8, duration=1e6),
            make_job(2, submit=1.0, nodes=8, duration=10.0),
        ]
        sim = HPCSimulator(
            jobs=jobs,
            scheduler=Spinner(),
            cluster=ResourcePool(total_nodes=8, total_memory_gb=64.0),
            max_retries=10**9,
            max_decisions=50,
        )
        with pytest.raises(SimulationError, match="decision budget"):
            sim.run()


class TestSystemView:
    captured: list = []

    def test_view_contents(self):
        outer = self

        class Capture(FCFSScheduler):
            def decide(self, view):
                outer.captured.append(view)
                return super().decide(view)

        self.captured.clear()
        jobs = [
            make_job(1, nodes=2, duration=100.0),
            make_job(2, submit=10.0, nodes=2, duration=20.0),
        ]
        run_sim(jobs, Capture(), nodes=8, memory=64.0)
        first = self.captured[0]
        assert first.now == 0.0
        assert first.free_nodes == 8
        assert first.pending_arrivals == 1
        assert first.next_arrival_time == 10.0
        second = self.captured[1]
        assert second.now == 10.0
        assert second.free_nodes == 6
        assert second.next_completion_time == 100.0

    def test_feasible_jobs_helper(self):
        view = SystemView(
            now=0.0,
            queued=(make_job(1, nodes=4), make_job(2, nodes=16)),
            running=(),
            completed_ids=(),
            free_nodes=8,
            free_memory_gb=64.0,
            total_nodes=8,
            total_memory_gb=64.0,
            pending_arrivals=0,
            next_arrival_time=None,
            next_completion_time=None,
        )
        assert [j.job_id for j in view.feasible_jobs()] == [1]
        assert view.queued_job(2).job_id == 2
        assert view.queued_job(3) is None
        assert view.all_jobs_scheduled is False

    def test_user_wait_times(self):
        view = SystemView(
            now=100.0,
            queued=(
                make_job(1, submit=0.0, user="alice"),
                make_job(2, submit=50.0, user="alice"),
                make_job(3, submit=90.0, user="bob"),
            ),
            running=(),
            completed_ids=(),
            free_nodes=8,
            free_memory_gb=64.0,
            total_nodes=8,
            total_memory_gb=64.0,
            pending_arrivals=0,
            next_arrival_time=None,
            next_completion_time=None,
        )
        waits = view.user_wait_times()
        assert waits["alice"] == pytest.approx(150.0)
        assert waits["bob"] == pytest.approx(10.0)


class TestCompletedLog:
    def test_sequence_semantics(self):
        log = CompletedLog([3, 1, 4, 1, 5])
        assert len(log) == 5
        assert list(log) == [3, 1, 4, 1, 5]
        assert log[0] == 3
        assert log[-1] == 5
        assert log[1:3] == (1, 4)
        assert 4 in log
        assert log == (3, 1, 4, 1, 5)
        assert log == [3, 1, 4, 1, 5]
        with pytest.raises(IndexError):
            log[5]

    def test_snapshot_is_isolated_from_appends(self):
        backing = [1, 2]
        snap = CompletedLog(backing, 2)
        backing.append(3)
        later = CompletedLog(backing)
        # The earlier snapshot still sees exactly two entries even
        # though it shares the grown backing list (zero-copy).
        assert tuple(snap) == (1, 2)
        assert tuple(later) == (1, 2, 3)
        assert snap != later

    def test_simulator_views_carry_live_completed_ids(self):
        seen: list[tuple[int, ...]] = []

        class Capture(FCFSScheduler):
            def decide(self, view):
                seen.append(tuple(view.completed_ids))
                return super().decide(view)

        jobs = [
            make_job(1, duration=10.0, nodes=8),
            make_job(2, submit=1.0, duration=10.0, nodes=8),
            make_job(3, submit=2.0, duration=10.0, nodes=8),
        ]
        run_sim(jobs, Capture(), nodes=8, memory=64.0)
        assert seen[0] == ()
        assert seen[-1] == (1, 2)  # two completions before job 3 starts

    def test_queued_job_index_matches_scan(self):
        jobs = tuple(make_job(i, nodes=1) for i in range(1, 6))
        view = SystemView(
            now=0.0,
            queued=jobs,
            running=(),
            completed_ids=(),
            free_nodes=8,
            free_memory_gb=64.0,
            total_nodes=8,
            total_memory_gb=64.0,
            pending_arrivals=0,
            next_arrival_time=None,
            next_completion_time=None,
        )
        for job in jobs:
            assert view.queued_job(job.job_id) is job
        assert view.queued_job(99) is None

    def test_view_reused_across_retries(self):
        views: list[SystemView] = []

        class AlwaysInvalid(FCFSScheduler):
            name = "always_invalid"

            def decide(self, view):
                views.append(view)
                if len(views) < 3:
                    return StartJob(999)  # rejected: unknown job
                return super().decide(view)

        run_sim([make_job(1, nodes=1)], AlwaysInvalid(), nodes=8, memory=64.0)
        # State cannot change between rejection retries, so the
        # simulator hands out the identical snapshot object.
        assert views[0] is views[1] is views[2]


class TestEmitsStop:
    def test_final_stop_query(self):
        class Stopper(FirstFitScheduler):
            name = "stopper"
            emits_stop = True

            def decide(self, view):
                if view.all_jobs_scheduled:
                    return Stop
                return super().decide(view)

        result = run_sim(
            [make_job(1, duration=10.0), make_job(2, duration=5.0)],
            Stopper(),
            nodes=8,
            memory=64.0,
        )
        stops = [
            d for d in result.decisions if d.action.kind.value == "Stop"
        ]
        assert len(stops) == 1
        assert stops[0].accepted


class TestSimulateHelper:
    def test_simulate_wrapper(self):
        result = simulate([make_job(1)], FCFSScheduler())
        assert isinstance(result, ScheduleResult)
        assert result.n_jobs == 1

    def test_empty_workload(self):
        result = simulate([], FCFSScheduler())
        assert result.n_jobs == 0
        assert result.makespan == 0.0

    def test_enforce_walltime_passthrough(self):
        job = make_job(1, duration=100.0, walltime=40.0)
        result = simulate([job], FCFSScheduler(), enforce_walltime=True)
        rec = result.record_for(1)
        assert rec.killed
        assert rec.end_time == 40.0

    def test_max_decisions_passthrough(self):
        jobs = [make_job(i) for i in range(1, 6)]
        with pytest.raises(SimulationError, match="decision budget"):
            simulate(jobs, FCFSScheduler(), max_decisions=2)


class DelayingScheduler(BaseScheduler):
    """Always delays for *n* decisions before behaving like first-fit."""

    name = "delaying"

    def __init__(self, delays: int = 0):
        super().__init__()
        self.delays = delays
        self._count = 0

    def reset(self) -> None:
        super().reset()
        self._count = 0

    def decide(self, view):
        if self._count < self.delays:
            self._count += 1
            return Delay
        for job in view.queued:
            if view.can_fit(job):
                return StartJob(job.job_id)
        return Delay


class TestDelayingScheduler:
    def test_initial_delays_shift_start(self):
        # Delays consume decision points but time only advances at
        # events, so with no competing events the job still starts at 0
        # after the scheduler stops delaying... unless no events exist,
        # which would deadlock — use two jobs so completions provide
        # events.
        jobs = [
            make_job(1, duration=10.0),
            make_job(2, submit=5.0, duration=10.0),
        ]
        result = run_sim(jobs, DelayingScheduler(delays=1), nodes=8, memory=64.0)
        assert result.record_for(1).start_time == 5.0  # delayed to next event
