"""Unit tests for the disruption subsystem: trace models/generators,
cluster capacity state, kill/requeue semantics and restart policies."""

import math

import numpy as np
import pytest

from repro.schedulers.base import BaseScheduler
from repro.schedulers.fcfs import EasyBackfillScheduler, FCFSScheduler
from repro.schedulers.optimizer import AnnealingOptimizer
from repro.sim.actions import Delay, StartJob
from repro.sim.cluster import ResourcePool
from repro.sim.disruptions import (
    DISRUPTION_PRESETS,
    DisruptionSpec,
    DisruptionTrace,
    DomainFailure,
    DrainWindow,
    NodeFailure,
    disruption_signature,
    estimate_horizon,
    exponential_failures,
    normalize_restart_policy,
    periodic_drains,
    weibull_failures,
)
from repro.sim.job import Job
from repro.sim.simulator import HPCSimulator, simulate

from tests.node_reference import NodeLevelCluster


def make_jobs(specs):
    """specs: list of (job_id, submit, duration, nodes, mem)."""
    return [
        Job(job_id=j, submit_time=s, duration=d, nodes=n, memory_gb=m)
        for (j, s, d, n, m) in specs
    ]


# ---------------------------------------------------------------------------
# Models & generators
# ---------------------------------------------------------------------------

class TestTraceModels:
    def test_empty_trace_is_falsy(self):
        assert not DisruptionTrace()
        assert DisruptionTrace(
            failures=(NodeFailure(1.0, 0, 2.0),)
        )

    def test_failure_validation(self):
        with pytest.raises(ValueError, match="repair_time"):
            NodeFailure(time=5.0, node=0, repair_time=5.0)
        with pytest.raises(ValueError, match="finite"):
            NodeFailure(time=float("nan"), node=0, repair_time=1.0)

    @pytest.mark.parametrize("repair_time", [math.inf, math.nan])
    def test_repair_time_must_be_finite(self, repair_time):
        # A repair at t = inf would let the engine start jobs at inf.
        with pytest.raises(ValueError, match="repair_time must be finite"):
            NodeFailure(time=5.0, node=0, repair_time=repair_time)
        with pytest.raises(ValueError, match="repair_time must be finite"):
            DomainFailure(time=5.0, nodes=(0, 1), repair_time=repair_time)

    def test_drain_validation(self):
        with pytest.raises(ValueError, match="end after"):
            DrainWindow(start=5.0, end=5.0, nodes=4)
        with pytest.raises(ValueError, match=">= 1 node"):
            DrainWindow(start=0.0, end=10.0, nodes=0)
        with pytest.raises(ValueError, match="announced after"):
            DrainWindow(start=5.0, end=10.0, nodes=1, announce_time=7.0)

    def test_drain_announce_defaults_to_start(self):
        d = DrainWindow(start=5.0, end=10.0, nodes=2)
        assert d.announce_time == 5.0
        early = DrainWindow(start=5.0, end=10.0, nodes=2, announce_time=-3.0)
        assert early.announce_time == 5.0
        assert DrainWindow(
            start=5.0, end=10.0, nodes=2, announce_time=-math.inf
        ).announce_time == 5.0

    @pytest.mark.parametrize("announce_time", [math.nan, math.inf])
    def test_drain_announce_rejects_nan_and_inf(self, announce_time):
        # NaN once slipped past the negative-sentinel test and was
        # clamped to 0: a drain announced at t = 0.
        with pytest.raises(ValueError, match="NaN or \\+inf"):
            DrainWindow(
                start=5.0, end=10.0, nodes=1, announce_time=announce_time
            )

    def test_trace_sorts_and_rejects_overlapping_node_failures(self):
        a = NodeFailure(10.0, 3, 20.0)
        b = NodeFailure(5.0, 3, 9.0)
        trace = DisruptionTrace(failures=(a, b))
        assert trace.failures == (b, a)
        with pytest.raises(ValueError, match="before its previous repair"):
            DisruptionTrace(
                failures=(NodeFailure(5.0, 3, 12.0), NodeFailure(10.0, 3, 20.0))
            )

    def test_overlapping_failures_on_distinct_nodes_ok(self):
        DisruptionTrace(
            failures=(NodeFailure(5.0, 1, 12.0), NodeFailure(6.0, 2, 13.0))
        )


class TestGenerators:
    def test_exponential_deterministic(self):
        kw = dict(n_nodes=64, horizon=100_000.0, mtbf=20_000.0, mttr=500.0)
        a = exponential_failures(seed=7, **kw)
        b = exponential_failures(seed=7, **kw)
        assert a == b
        assert a != exponential_failures(seed=8, **kw)

    def test_exponential_respects_horizon_and_node_range(self):
        failures = exponential_failures(
            n_nodes=16, horizon=50_000.0, mtbf=10_000.0, mttr=100.0, seed=0
        )
        assert failures  # dense enough to produce some
        for f in failures:
            assert 0 <= f.node < 16
            assert f.time < 50_000.0
            assert f.repair_time > f.time

    def test_per_node_streams_independent_of_pool_size(self):
        """Node i's failures are identical whether the cluster has 8
        or 64 nodes — streams are spawned per node."""
        small = exponential_failures(
            n_nodes=8, horizon=80_000.0, mtbf=15_000.0, mttr=300.0, seed=3
        )
        big = exponential_failures(
            n_nodes=64, horizon=80_000.0, mtbf=15_000.0, mttr=300.0, seed=3
        )
        small_by_node = [f for f in small if f.node < 8]
        big_by_node = [f for f in big if f.node < 8]
        assert small_by_node == big_by_node

    def test_weibull_deterministic_and_valid(self):
        a = weibull_failures(
            n_nodes=32, horizon=60_000.0, mtbf=10_000.0, mttr=400.0,
            shape=1.5, seed=1,
        )
        b = weibull_failures(
            n_nodes=32, horizon=60_000.0, mtbf=10_000.0, mttr=400.0,
            shape=1.5, seed=1,
        )
        assert a == b
        DisruptionTrace(failures=a)  # validates non-overlap per node

    def test_periodic_drains(self):
        drains = periodic_drains(
            first_start=1000.0, every=5000.0, duration=600.0, nodes=8,
            horizon=12_000.0, announce_lead=500.0,
        )
        assert [d.start for d in drains] == [1000.0, 6000.0, 11_000.0]
        assert all(d.end - d.start == 600.0 for d in drains)
        assert all(d.announce_time == d.start - 500.0 for d in drains)

    def test_estimate_horizon_monotone_and_positive(self):
        jobs = make_jobs([(1, 0.0, 100.0, 4, 8.0), (2, 50.0, 200.0, 2, 4.0)])
        h = estimate_horizon(jobs, total_nodes=8)
        assert h > 250.0
        assert estimate_horizon([], 8) == 1.0


class TestSpec:
    def test_empty_spec_falsy_signature_none(self):
        spec = DisruptionSpec()
        assert not spec
        assert spec.signature() == "none"
        assert disruption_signature(spec) == "none"
        assert disruption_signature(None) == "none"

    def test_signature_includes_policy(self):
        spec = DisruptionSpec(mtbf=1000.0)
        sig = disruption_signature(spec, "checkpoint", 60.0)
        assert "policy=checkpoint" in sig and "ckpt=60" in sig
        assert disruption_signature(spec, "resubmit") != sig

    def test_build_produces_trace(self):
        spec = DisruptionSpec(mtbf=5_000.0, mttr=200.0, drain_every=20_000.0,
                              drain_nodes=4, drain_first=1_000.0)
        trace = spec.build(n_nodes=16, horizon=40_000.0)
        assert trace.failures and trace.drains
        again = spec.build(n_nodes=16, horizon=40_000.0)
        assert trace == again

    def test_drain_requires_nodes(self):
        with pytest.raises(ValueError, match="drain_nodes"):
            DisruptionSpec(drain_every=100.0)

    def test_spec_validates_eagerly(self):
        # Bad values must fail at construction (where the CLI's
        # friendly-error path catches them), not later inside build().
        with pytest.raises(ValueError, match="mtbf"):
            DisruptionSpec(mtbf=-5.0)
        with pytest.raises(ValueError, match="mttr"):
            DisruptionSpec(mtbf=100.0, mttr=0.0)
        with pytest.raises(ValueError, match="drain_duration"):
            DisruptionSpec(drain_every=100.0, drain_nodes=2,
                           drain_duration=0.0)
        with pytest.raises(ValueError, match="drain_every"):
            DisruptionSpec(drain_every=-1.0, drain_nodes=2)

    def test_ckpt_suffix_only_for_checkpointing_policies(self):
        # A resubmit run ignores the interval; appending it to the
        # signature would split physically identical cells.
        spec = DisruptionSpec(mtbf=1000.0)
        assert disruption_signature(
            spec, "resubmit", 300.0
        ) == disruption_signature(spec, "resubmit", None)
        assert "ckpt=300" in disruption_signature(spec, "checkpoint", 300.0)
        assert "ckpt=300" in disruption_signature(
            spec, "preempt-migrate", 300.0
        )

    def test_presets_build(self):
        for name, spec in DISRUPTION_PRESETS.items():
            trace = spec.build(n_nodes=256, horizon=100_000.0)
            if name == "none":
                assert not trace

    def test_normalize_restart_policy(self):
        assert normalize_restart_policy("preempt-migrate") == "preempt_migrate"
        assert normalize_restart_policy("CHECKPOINT") == "checkpoint"
        with pytest.raises(ValueError, match="unknown restart policy"):
            normalize_restart_policy("retry-harder")


# ---------------------------------------------------------------------------
# Cluster capacity state
# ---------------------------------------------------------------------------

class TestResourcePoolDisruptions:
    def test_slot_victim_maps_allocation_order(self):
        pool = ResourcePool(total_nodes=8, total_memory_gb=64.0)
        j1 = Job(job_id=1, submit_time=0, duration=10, nodes=3, memory_gb=6.0)
        j2 = Job(job_id=2, submit_time=0, duration=10, nodes=2, memory_gb=4.0)
        pool.allocate(j1)
        pool.allocate(j2)
        assert pool.slot_victim(0) == 1
        assert pool.slot_victim(2) == 1
        assert pool.slot_victim(3) == 2
        assert pool.slot_victim(4) == 2
        assert pool.slot_victim(5) is None  # idle
        assert pool.slot_victim(7) is None

    def test_mark_failed_shrinks_free_capacity(self):
        pool = ResourcePool(total_nodes=4, total_memory_gb=32.0)
        assert pool.mark_failed(0)
        assert pool.free_nodes == 3
        assert pool.free_memory_gb == pytest.approx(24.0)
        assert pool.offline_nodes == 1
        pool.mark_repaired(0)
        assert pool.free_nodes == 4
        assert pool.free_memory_gb == pytest.approx(32.0)
        assert pool.offline_nodes == 0

    def test_mark_failed_noop_when_everything_down(self):
        pool = ResourcePool(total_nodes=2, total_memory_gb=16.0)
        assert pool.mark_failed(0)
        assert pool.mark_failed(1)
        assert not pool.mark_failed(0)  # nothing left to take
        assert pool.offline_nodes == 2

    def test_drain_lifecycle(self):
        pool = ResourcePool(total_nodes=8, total_memory_gb=64.0)
        assert pool.drain_take_idle("drain:0")
        assert pool.drain_take_idle("drain:0")
        assert pool.free_nodes == 6
        pool.drain_release("drain:0")
        assert pool.free_nodes == 8
        assert pool.offline_nodes == 0

    def test_drain_victim_is_most_recent_allocation(self):
        pool = ResourcePool(total_nodes=8, total_memory_gb=64.0)
        j1 = Job(job_id=1, submit_time=0, duration=10, nodes=4, memory_gb=8.0)
        j2 = Job(job_id=2, submit_time=0, duration=10, nodes=4, memory_gb=8.0)
        pool.allocate(j1)
        pool.allocate(j2)
        assert pool.drain_victim() == 2
        pool.release(2)
        assert pool.drain_victim() == 1

    def test_reset_clears_disruption_state(self):
        pool = ResourcePool(total_nodes=4, total_memory_gb=32.0)
        pool.mark_failed(0)
        pool.drain_take_idle("drain:1")
        pool.reset()
        assert pool.free_nodes == 4
        assert pool.offline_nodes == 0


class TestNodeLevelClusterDisruptions:
    def test_victim_and_offline_excluded_from_placement(self):
        cluster = NodeLevelCluster(node_count=4, memory_per_node_gb=8.0)
        job = Job(job_id=1, submit_time=0, duration=10, nodes=2, memory_gb=4.0)
        cluster.allocate(job)
        owned = set(cluster.placement_of(1))
        victim_node = next(iter(owned))
        assert cluster.slot_victim(victim_node) == 1
        idle = next(i for i in range(4) if i not in owned)
        assert cluster.slot_victim(idle) is None
        cluster.release(1)
        assert cluster.mark_failed(victim_node)
        assert cluster.free_nodes == 3
        assert not cluster.mark_failed(victim_node)  # already down
        big = Job(job_id=2, submit_time=0, duration=10, nodes=4, memory_gb=8.0)
        assert not cluster.can_fit(big)
        cluster.mark_repaired(victim_node)
        assert cluster.can_fit(big)

    def test_mark_failed_requires_released_owner(self):
        from repro.sim.cluster import AllocationError

        cluster = NodeLevelCluster(node_count=4, memory_per_node_gb=8.0)
        job = Job(job_id=1, submit_time=0, duration=10, nodes=1, memory_gb=2.0)
        cluster.allocate(job)
        node = int(cluster.placement_of(1)[0])
        with pytest.raises(AllocationError, match="kill it first"):
            cluster.mark_failed(node)

    def test_drain_prefers_idle_top_nodes(self):
        cluster = NodeLevelCluster(node_count=4, memory_per_node_gb=8.0)
        job = Job(job_id=1, submit_time=0, duration=10, nodes=1, memory_gb=2.0)
        cluster.allocate(job)  # takes node 0 (first-fit)
        assert cluster.drain_take_idle("drain:0")
        assert cluster.offline_nodes == 1
        # Highest-index idle node was taken, not the occupied node 0.
        assert cluster.slot_victim(0) == 1
        assert cluster.drain_victim() == 1
        cluster.drain_release("drain:0")
        assert cluster.offline_nodes == 0


# ---------------------------------------------------------------------------
# Simulator semantics
# ---------------------------------------------------------------------------

class TestFailureSemantics:
    def test_failure_kills_running_job_and_requeues(self):
        # One job on 2 nodes of a 4-node cluster; node 0 (its slot)
        # fails mid-run.
        jobs = make_jobs([(1, 0.0, 100.0, 2, 4.0)])
        trace = DisruptionTrace(failures=(NodeFailure(30.0, 0, 60.0),))
        result = simulate(
            jobs, FCFSScheduler(),
            cluster=ResourcePool(total_nodes=4, total_memory_gb=32.0),
            disruptions=trace,
        )
        assert result.disrupted
        assert len(result.preemptions) == 1
        p = result.preemptions[0]
        assert p.job_id == 1 and p.reason == "failure"
        assert p.time == 30.0 and p.work_saved == 0.0
        assert p.work_lost == pytest.approx(30.0)
        assert p.restart_time == pytest.approx(30.0)  # refits on 3 nodes
        rec = result.record_for(1)
        # resubmit: full rerun from the kill.
        assert rec.start_time == pytest.approx(30.0)
        assert rec.end_time == pytest.approx(130.0)
        assert not rec.killed

    def test_failure_on_idle_node_only_shrinks_capacity(self):
        jobs = make_jobs([(1, 100.0, 50.0, 4, 8.0)])
        # Node fails before the job arrives; repair after it would
        # otherwise start — job must wait for repair (4 of 4 nodes).
        trace = DisruptionTrace(failures=(NodeFailure(10.0, 3, 200.0),))
        result = simulate(
            jobs, FCFSScheduler(),
            cluster=ResourcePool(total_nodes=4, total_memory_gb=32.0),
            disruptions=trace,
        )
        assert not result.preemptions
        rec = result.record_for(1)
        assert rec.start_time == pytest.approx(200.0)

    def test_checkpoint_restart_resumes_from_interval(self):
        jobs = make_jobs([(1, 0.0, 100.0, 2, 4.0)])
        trace = DisruptionTrace(failures=(NodeFailure(50.0, 0, 55.0),))
        result = simulate(
            jobs, FCFSScheduler(),
            cluster=ResourcePool(total_nodes=4, total_memory_gb=32.0),
            disruptions=trace,
            restart_policy="checkpoint",
            checkpoint_interval=20.0,
        )
        p = result.preemptions[0]
        # 50s elapsed, checkpoints at 20/40 → 40 saved, 10 lost.
        assert p.work_saved == pytest.approx(40.0)
        assert p.work_lost == pytest.approx(10.0)
        rec = result.record_for(1)
        # Restarts immediately on remaining 3 nodes? Needs 2 nodes — yes.
        assert rec.start_time == pytest.approx(50.0)
        assert rec.end_time == pytest.approx(50.0 + 60.0)

    @pytest.mark.parametrize("interval", [math.inf, math.nan])
    def test_checkpoint_interval_must_be_finite(self, interval):
        jobs = make_jobs([(1, 0.0, 10.0, 1, 1.0)])
        with pytest.raises(ValueError, match="checkpoint_interval must be"):
            HPCSimulator(
                jobs=jobs, scheduler=FCFSScheduler(),
                restart_policy="checkpoint", checkpoint_interval=interval,
            )

    def test_checkpoint_policy_requires_interval(self):
        jobs = make_jobs([(1, 0.0, 10.0, 1, 1.0)])
        with pytest.raises(ValueError, match="checkpoint_interval"):
            HPCSimulator(
                jobs=jobs, scheduler=FCFSScheduler(),
                restart_policy="checkpoint",
            )

    def test_repeated_failures_accumulate_checkpoint_progress(self):
        jobs = make_jobs([(1, 0.0, 100.0, 2, 4.0)])
        trace = DisruptionTrace(
            failures=(
                NodeFailure(40.0, 0, 45.0),
                NodeFailure(80.0, 1, 85.0),
            )
        )
        result = simulate(
            jobs, FCFSScheduler(),
            cluster=ResourcePool(total_nodes=4, total_memory_gb=32.0),
            disruptions=trace,
            restart_policy="checkpoint",
            checkpoint_interval=10.0,
        )
        # Attempt 1: 0→40, saved 40. Attempt 2 starts at 40 (remaining
        # 60), killed at 80 → 40 elapsed, saved 40, remaining 20.
        assert len(result.preemptions) == 2
        rec = result.record_for(1)
        assert rec.end_time == pytest.approx(100.0)
        assert rec.end_time - rec.start_time == pytest.approx(20.0)

    def test_node_level_cluster_failures(self):
        jobs = make_jobs([(1, 0.0, 100.0, 2, 4.0)])
        cluster = NodeLevelCluster(node_count=4, memory_per_node_gb=8.0)
        trace = DisruptionTrace(failures=(NodeFailure(30.0, 0, 500.0),))
        result = simulate(
            jobs, FCFSScheduler(), cluster=cluster, disruptions=trace,
        )
        # First-fit placed job 1 on nodes {0, 1}; node 0 dies.
        assert len(result.preemptions) == 1
        assert result.record_for(1).end_time == pytest.approx(130.0)

    def test_walltime_kill_flag_not_confused_with_restart(self):
        # Checkpoint-restarted job whose final attempt is shorter than
        # its original duration must NOT be marked walltime-killed.
        jobs = [
            Job(job_id=1, submit_time=0.0, duration=100.0, nodes=2,
                memory_gb=4.0, walltime=150.0)
        ]
        trace = DisruptionTrace(failures=(NodeFailure(50.0, 0, 55.0),))
        result = simulate(
            jobs, FCFSScheduler(),
            cluster=ResourcePool(total_nodes=4, total_memory_gb=32.0),
            disruptions=trace,
            restart_policy="checkpoint", checkpoint_interval=25.0,
            enforce_walltime=True,
        )
        rec = result.record_for(1)
        assert not rec.killed


class TestDrainSemantics:
    def test_drain_takes_idle_nodes_first(self):
        jobs = make_jobs([(1, 0.0, 100.0, 2, 4.0)])
        trace = DisruptionTrace(
            drains=(DrainWindow(start=10.0, end=50.0, nodes=2),)
        )
        result = simulate(
            jobs, FCFSScheduler(),
            cluster=ResourcePool(total_nodes=4, total_memory_gb=32.0),
            disruptions=trace,
        )
        # 2 idle nodes satisfy the drain; the running job survives.
        assert not result.preemptions
        assert result.record_for(1).end_time == pytest.approx(100.0)

    def test_drain_preempts_when_cluster_full(self):
        jobs = make_jobs(
            [(1, 0.0, 100.0, 2, 4.0), (2, 0.0, 100.0, 2, 4.0)]
        )
        trace = DisruptionTrace(
            drains=(DrainWindow(start=10.0, end=50.0, nodes=2),)
        )
        result = simulate(
            jobs, FCFSScheduler(),
            cluster=ResourcePool(total_nodes=4, total_memory_gb=32.0),
            disruptions=trace,
        )
        # Most recently started job (2) is evicted, restarts at drain
        # end (job 1 still holds the other 2 nodes).
        assert len(result.preemptions) == 1
        p = result.preemptions[0]
        assert p.job_id == 2 and p.reason == "drain"
        assert p.restart_time == pytest.approx(50.0)

    def test_preempt_migrate_checkpoints_at_announcement(self):
        jobs = make_jobs(
            [(1, 0.0, 100.0, 2, 4.0), (2, 0.0, 100.0, 2, 4.0)]
        )
        trace = DisruptionTrace(
            drains=(
                DrainWindow(start=40.0, end=80.0, nodes=2, announce_time=25.0),
            )
        )
        result = simulate(
            jobs, FCFSScheduler(),
            cluster=ResourcePool(total_nodes=4, total_memory_gb=32.0),
            disruptions=trace,
            restart_policy="preempt_migrate",
        )
        p = result.preemptions[0]
        # No periodic interval, but the announcement at t=25 snapshots
        # progress: only 40-25=15s of work is lost.
        assert p.work_saved == pytest.approx(25.0)
        assert p.work_lost == pytest.approx(15.0)

    def test_upcoming_drains_visible_from_announcement(self):
        seen = {}

        class Spy(BaseScheduler):
            name = "spy"

            def decide(self, view):
                seen[view.now] = view.upcoming_drains
                for job in view.queued:
                    if view.can_fit(job):
                        return StartJob(job.job_id)
                return Delay

        jobs = make_jobs([(1, 0.0, 10.0, 1, 1.0), (2, 30.0, 10.0, 1, 1.0)])
        trace = DisruptionTrace(
            drains=(
                DrainWindow(start=100.0, end=200.0, nodes=2,
                            announce_time=20.0),
            )
        )
        simulate(
            jobs, Spy(),
            cluster=ResourcePool(total_nodes=4, total_memory_gb=32.0),
            disruptions=trace,
        )
        assert seen[0.0] == ()  # before announcement
        assert len(seen[30.0]) == 1  # announced by then
        assert seen[30.0][0].start == 100.0

    def test_announcement_on_busy_cluster_queries_no_scheduler(self):
        """Queue empty, cluster busy, drain announced at t=50: the
        announcement is no decision point, and preempt_migrate's
        implicit checkpoint there still keeps the victim's first 50s."""
        jobs = make_jobs([(1, 0.0, 200.0, 3, 6.0)])
        trace = DisruptionTrace(
            drains=(
                DrainWindow(start=100.0, end=150.0, nodes=2,
                            announce_time=50.0),
            )
        )
        result = simulate(
            jobs, FCFSScheduler(),
            cluster=ResourcePool(total_nodes=4, total_memory_gb=32.0),
            disruptions=trace,
            restart_policy="preempt_migrate",
        )
        assert [d.time for d in result.decisions if d.time == 50.0] == []
        [p] = result.preemptions
        assert (p.job_id, p.reason, p.time) == (1, "drain", 100.0)
        assert p.work_saved == pytest.approx(50.0)
        assert p.work_lost == pytest.approx(50.0)
        rec = result.record_for(1)
        # Restarted after the drain with its saved 50s of progress.
        assert rec.start_time == pytest.approx(150.0)
        assert rec.end_time == pytest.approx(300.0)


class TestDecisionBudget:
    def test_default_budget_scales_with_disruption_churn(self):
        """A legitimate failure-heavy run needs far more decisions
        than 200·n + 1000: every kill forces a delay + restart. The
        default budget must scale with the trace instead of branding
        the scheduler as stuck (regression: found driving the CLI)."""
        jobs = make_jobs([(1, 0.0, 6000.0, 2, 4.0)])
        failures = tuple(
            NodeFailure(float(t), 0, float(t) + 1.0)
            for t in range(10, 10_010, 10)
        )
        result = simulate(
            jobs, FCFSScheduler(),
            cluster=ResourcePool(total_nodes=2, total_memory_gb=16.0),
            disruptions=DisruptionTrace(failures=failures),
            restart_policy="checkpoint", checkpoint_interval=5.0,
        )
        assert len(result.records) == 1
        # Enough churn that the legacy budget (1200) would have blown.
        assert len(result.decisions) > 1200

    def test_explicit_max_decisions_stays_hard(self):
        from repro.sim.simulator import SimulationError

        jobs = make_jobs([(1, 0.0, 6000.0, 2, 4.0)])
        failures = tuple(
            NodeFailure(float(t), 0, float(t) + 1.0)
            for t in range(10, 10_010, 10)
        )
        with pytest.raises(SimulationError, match="decision budget"):
            simulate(
                jobs, FCFSScheduler(),
                cluster=ResourcePool(total_nodes=2, total_memory_gb=16.0),
                disruptions=DisruptionTrace(failures=failures),
                restart_policy="checkpoint", checkpoint_interval=5.0,
                max_decisions=100,
            )


class TestStopReopens:
    def test_kill_after_stop_reopens_scheduling(self):
        """An emits_stop scheduler closes with Stop while a job still
        runs; a failure then requeues it — scheduling must re-open or
        the simulation would abort with 'stopped with jobs queued'."""

        class StoppingFirstFit(BaseScheduler):
            name = "stopping_first_fit"
            emits_stop = True

            def decide(self, view):
                for job in view.queued:
                    if view.can_fit(job):
                        return StartJob(job.job_id)
                if view.all_jobs_scheduled:
                    from repro.sim.actions import Stop

                    return Stop
                return Delay

        jobs = make_jobs([(1, 0.0, 100.0, 2, 4.0)])
        trace = DisruptionTrace(failures=(NodeFailure(30.0, 0, 40.0),))
        result = simulate(
            jobs, StoppingFirstFit(),
            cluster=ResourcePool(total_nodes=4, total_memory_gb=32.0),
            disruptions=trace,
        )
        assert len(result.records) == 1
        assert result.record_for(1).end_time > 100.0


class TestRecoveryAwareSchedulers:
    def test_easy_backfill_avoids_drain_straddle(self):
        # Head job's walltime spans the announced drain, and during the
        # drain the cluster (4-2=2 nodes) cannot hold it: EASY must
        # hold it back until the window passes.
        jobs = make_jobs([(1, 0.0, 100.0, 3, 6.0)])
        trace = DisruptionTrace(
            drains=(
                DrainWindow(start=50.0, end=120.0, nodes=2, announce_time=0.0),
            )
        )
        result = simulate(
            jobs, EasyBackfillScheduler(),
            cluster=ResourcePool(total_nodes=4, total_memory_gb=32.0),
            disruptions=trace,
        )
        assert not result.preemptions
        rec = result.record_for(1)
        assert rec.start_time == pytest.approx(120.0)

    def test_easy_backfills_short_jobs_around_drain_blocked_head(self):
        jobs = make_jobs(
            [(1, 0.0, 100.0, 3, 6.0), (2, 0.0, 20.0, 1, 1.0)]
        )
        trace = DisruptionTrace(
            drains=(
                DrainWindow(start=50.0, end=120.0, nodes=2, announce_time=0.0),
            )
        )
        result = simulate(
            jobs, EasyBackfillScheduler(),
            cluster=ResourcePool(total_nodes=4, total_memory_gb=32.0),
            disruptions=trace,
        )
        # The short job ran immediately even though the head waited.
        assert result.record_for(2).start_time == pytest.approx(0.0)
        assert result.record_for(1).start_time == pytest.approx(120.0)

    def test_easy_backfill_window_spans_to_drain_end_for_parked_head(self):
        # Head (3 nodes) is drain-parked until t=120. A 2-node/40s job
        # exceeds the head's leftovers (1 node) but finishes before the
        # head's drain-safe reservation — it must borrow the head's
        # nodes now instead of idling through the whole announce lead.
        jobs = make_jobs(
            [(1, 0.0, 100.0, 3, 6.0), (2, 0.0, 40.0, 2, 4.0)]
        )
        trace = DisruptionTrace(
            drains=(
                DrainWindow(start=50.0, end=120.0, nodes=2,
                            announce_time=0.0),
            )
        )
        result = simulate(
            jobs, EasyBackfillScheduler(),
            cluster=ResourcePool(total_nodes=4, total_memory_gb=32.0),
            disruptions=trace,
        )
        assert result.record_for(2).start_time == pytest.approx(0.0)
        assert result.record_for(1).start_time == pytest.approx(120.0)
        assert not result.preemptions

    def test_drain_safe_accounts_for_overlapping_windows(self):
        # Two announced 60-node drains overlap in time; each alone
        # leaves room for a 90-node job on 160 nodes, but jointly they
        # do not. The guard must see the 120-node peak and hold the
        # job back until both windows pass.
        jobs = make_jobs([(1, 0.0, 300.0, 90, 90.0)])
        trace = DisruptionTrace(
            drains=(
                DrainWindow(start=100.0, end=500.0, nodes=60,
                            announce_time=0.0),
                DrainWindow(start=150.0, end=550.0, nodes=60,
                            announce_time=0.0),
            )
        )
        result = simulate(
            jobs, EasyBackfillScheduler(),
            cluster=ResourcePool(total_nodes=160, total_memory_gb=1280.0),
            disruptions=trace,
        )
        # No eviction: the job waited out the joint 120-node peak.
        # (It starts at the first drain's end: the second window is in
        # progress then and already carved out of free capacity, and
        # the remaining 100 nodes genuinely hold the job.)
        assert not result.preemptions
        assert result.record_for(1).start_time == pytest.approx(500.0)

    def test_view_remaining_runtimes_is_a_stable_snapshot(self):
        retained = []

        class Retainer(BaseScheduler):
            name = "retainer"

            def decide(self, view):
                retained.append(view)
                for job in view.queued:
                    if view.can_fit(job):
                        return StartJob(job.job_id)
                return Delay

        jobs = make_jobs([(1, 0.0, 100.0, 2, 4.0)])
        trace = DisruptionTrace(
            failures=(
                NodeFailure(30.0, 0, 35.0),
                NodeFailure(60.0, 1, 65.0),
            )
        )
        simulate(
            jobs, Retainer(),
            cluster=ResourcePool(total_nodes=4, total_memory_gb=32.0),
            disruptions=trace,
            restart_policy="checkpoint", checkpoint_interval=10.0,
        )
        # Views captured at different kills must disagree about the
        # job's remaining runtime — i.e. each kept its own snapshot
        # instead of aliasing the simulator's live dict.
        values = {
            v.remaining_runtimes.get(1) for v in retained
        }
        assert len(values) >= 2

    def test_annealer_survives_failures_and_finishes(self):
        jobs = make_jobs(
            [(i, 0.0, 50.0 + 10 * i, 2, 4.0) for i in range(1, 7)]
        )
        trace = DisruptionTrace(
            failures=(NodeFailure(60.0, 0, 90.0), NodeFailure(130.0, 2, 160.0))
        )
        result = simulate(
            jobs, AnnealingOptimizer(seed=0),
            cluster=ResourcePool(total_nodes=8, total_memory_gb=64.0),
            disruptions=trace,
            restart_policy="checkpoint", checkpoint_interval=25.0,
        )
        assert len(result.records) == 6
        result.verify_capacity()

    def test_annealer_full_width_job_waits_for_repair(self):
        # A job needing every node cannot pack while any node is down;
        # it must start only after the repair, not crash the packer.
        jobs = make_jobs(
            [(1, 0.0, 30.0, 4, 8.0), (2, 0.0, 20.0, 1, 1.0)]
        )
        trace = DisruptionTrace(failures=(NodeFailure(5.0, 3, 100.0),))
        result = simulate(
            jobs, AnnealingOptimizer(seed=0),
            cluster=ResourcePool(total_nodes=4, total_memory_gb=32.0),
            disruptions=trace,
        )
        assert len(result.records) == 2
        assert result.record_for(1).start_time >= 100.0


class TestRunningIndex:
    """The simulator-maintained completion-ordered index and the
    copy-on-write running snapshot (perf satellites) must be
    observationally identical to re-sorting/rebuilding per decision."""

    def test_engine_index_matches_stable_sort(self):
        order_checks = []

        class Checker(BaseScheduler):
            name = "checker"

            def decide(self, view):
                if view.running:
                    by_index = view.running_by_walltime_end()
                    by_sort = tuple(
                        sorted(
                            view.running,
                            key=lambda r: r.start_time + r.job.walltime,
                        )
                    )
                    order_checks.append(by_index == by_sort)
                for job in view.queued:
                    if view.can_fit(job):
                        return StartJob(job.job_id)
                return Delay

        from repro.workloads.generator import generate_workload

        jobs = generate_workload("heterogeneous_mix", 40, seed=0)
        trace = DisruptionSpec(mtbf=40_000.0, mttr=400.0, seed=2).build(
            n_nodes=256, horizon=40_000.0
        )
        simulate(jobs, Checker(), disruptions=trace)
        assert order_checks and all(order_checks)

    def test_running_snapshot_reused_until_running_changes(self):
        snapshots = []

        class Capture(BaseScheduler):
            name = "capture"

            def decide(self, view):
                snapshots.append(view.running)
                for job in view.queued:
                    if view.can_fit(job):
                        return StartJob(job.job_id)
                return Delay

        jobs = make_jobs(
            [(1, 0.0, 100.0, 3, 6.0)]
            + [(i, float(i), 50.0, 2, 4.0) for i in range(2, 6)]
        )
        simulate(
            jobs, Capture(),
            cluster=ResourcePool(total_nodes=4, total_memory_gb=32.0),
        )
        # Consecutive decisions with an unchanged running set must share
        # the identical tuple object (copy-on-write), and tuples always
        # reflect the true running set.
        shared = sum(
            1
            for a, b in zip(snapshots, snapshots[1:])
            if a is b and a
        )
        assert shared > 0

    def test_hand_built_view_falls_back_to_sorting(self):
        from repro.sim.simulator import RunningJob, SystemView

        j1 = Job(job_id=1, submit_time=0, duration=50, nodes=1,
                 memory_gb=1.0, walltime=80.0)
        j2 = Job(job_id=2, submit_time=0, duration=50, nodes=1,
                 memory_gb=1.0, walltime=10.0)
        view = SystemView(
            now=0.0,
            queued=(),
            running=(RunningJob(j1, 0.0), RunningJob(j2, 0.0)),
            completed_ids=(),
            free_nodes=2,
            free_memory_gb=14.0,
            total_nodes=4,
            total_memory_gb=16.0,
            pending_arrivals=0,
            next_arrival_time=None,
            next_completion_time=50.0,
        )
        ordered = view.running_by_walltime_end()
        assert [r.job.job_id for r in ordered] == [2, 1]
        # Cached: second call returns the same tuple.
        assert view.running_by_walltime_end() is ordered


class TestDisruptedRunsStayValid:
    @pytest.mark.parametrize(
        "scheduler_name",
        ["fcfs", "fcfs_backfill", "sjf", "first_fit", "ortools_like"],
    )
    def test_hostile_regime_completes_all_jobs(self, scheduler_name):
        from repro.schedulers.registry import create_scheduler
        from repro.workloads.generator import generate_workload

        jobs = generate_workload("heterogeneous_mix", 30, seed=1)
        spec = DisruptionSpec(
            mtbf=30_000.0, mttr=500.0,
            drain_every=4_000.0, drain_duration=800.0, drain_nodes=64,
            drain_lead=1_000.0, drain_first=1_500.0,
        )
        trace = spec.build(n_nodes=256, horizon=30_000.0)
        assert trace
        result = simulate(
            jobs, create_scheduler(scheduler_name, seed=0),
            disruptions=trace,
            restart_policy="checkpoint", checkpoint_interval=300.0,
        )
        assert len(result.records) == 30
        result.verify_capacity()


class TestSpecValidation:
    """DisruptionSpec rejects bad values at construction time, so a
    malformed sweep cell fails in the CLI's friendly-error path and
    never inside a worker process."""

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"failure_model": "gamma"}, "unknown failure model"),
            ({"mtbf": 0.0}, "mtbf must be positive"),
            ({"mtbf": -10.0}, "mtbf must be positive"),
            ({"mttr": 0.0}, "mttr must be positive"),
            ({"weibull_shape": 0.0}, "weibull_shape must be positive"),
            ({"rack_mtbf": 0.0}, "rack_mtbf must be positive"),
            ({"rack_mtbf": 100.0, "correlation": 0.0},
             r"correlation must be in \(0, 1\]"),
            ({"rack_mtbf": 100.0, "correlation": 1.5},
             r"correlation must be in \(0, 1\]"),
            ({"correlation_level": "node"},
             "correlation_level must be 'rack' or 'switch'"),
            ({"drain_every": 100.0},
             "drain_every requires drain_nodes >= 1"),
            ({"drain_every": 0.0, "drain_nodes": 1},
             "drain_every must be positive"),
            ({"drain_every": 100.0, "drain_nodes": 1,
              "drain_duration": 0.0},
             "drain_duration must be positive"),
            ({"drain_every": 100.0, "drain_nodes": 1,
              "drain_lead": -1.0},
             "drain_lead must be non-negative"),
            ({"drain_every": 100.0, "drain_nodes": 1,
              "drain_first": -1.0},
             "drain_first must be non-negative"),
            # Non-finite values: NaN included, drains on or off.
            ({"mtbf": math.inf}, "mtbf must be positive and finite"),
            ({"mtbf": math.nan}, "mtbf must be positive and finite"),
            ({"mttr": math.inf}, "mttr must be positive and finite"),
            ({"mttr": math.nan}, "mttr must be positive and finite"),
            ({"weibull_shape": math.inf}, "weibull_shape must be positive"),
            ({"rack_mtbf": math.nan}, "rack_mtbf must be positive"),
            ({"drain_every": math.inf, "drain_nodes": 1},
             "drain_every must be positive and finite"),
            ({"drain_duration": math.nan},
             "drain_duration must be positive and finite"),
            ({"drain_lead": math.inf},
             "drain_lead must be non-negative and finite"),
            ({"drain_first": math.nan},
             "drain_first must be non-negative and finite"),
        ],
    )
    def test_bad_spec_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            DisruptionSpec(**kwargs)

    def test_unknown_preset_lists_available(self):
        from repro.sim.disruptions import get_disruption_preset

        with pytest.raises(KeyError, match="unknown disruption preset"):
            get_disruption_preset("not-a-preset")
        # The error enumerates what IS available.
        try:
            get_disruption_preset("not-a-preset")
        except KeyError as exc:
            for name in DISRUPTION_PRESETS:
                assert name in str(exc)
