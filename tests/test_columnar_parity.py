"""Columnar decision fast path (PR 10): parity, no-copy, and tuning.

1. **Columnar/facade byte-identity**: every registered scheduler whose
   class sets ``supports_columns`` must produce bit-for-bit identical
   records, decisions, preemptions, and extras whether its decision
   kernel runs on the queue snapshot's columns (:class:`QueueColumns`,
   the default) or on the ``Job``-facade path (the ``facade_only``
   fixture) — across clean, disrupted, correlated-topology, and
   drained/walltime regimes.
2. **Zero-copy contract**: engine-built views share one per-run set of
   master arrays (the same :class:`JobColumns` object across every
   decision), hand-built snapshots gather through the identity selector
   (columns *are* the masters), every exposed column is read-only, and
   the snapshot's ``fits_mask`` is ``can_fit`` elementwise.
3. **Queue churn parity**: a high-churn disrupted run (kills and
   requeues at every failure) is identical to the object oracle's.
"""

import numpy as np
import pytest

from repro.schedulers.base import BaseScheduler
from repro.schedulers.registry import available_schedulers, create_scheduler
from repro.sim.cluster import ResourcePool
from repro.sim.columns import (
    COLUMN_NAMES,
    JobColumns,
    QueueColumns,
    queue_columns_from_jobs,
)
from repro.sim.disruptions import DisruptionSpec, estimate_horizon
from repro.sim.simulator import simulate
from repro.sim.topology import ClusterTopology
from repro.workloads.generator import generate_workload

from tests.conftest import make_job
from tests.test_core_reasoning import make_view

SPEC = DisruptionSpec(
    mtbf=40_000.0,
    mttr=4_000.0,
    seed=7,
    drain_every=120_000.0,
    drain_nodes=24,
    drain_duration=10_000.0,
    drain_lead=5_000.0,
)
CORRELATED = DisruptionSpec(
    mtbf=60_000.0, mttr=3_000.0, rack_mtbf=200_000.0, seed=11
)
TOPOLOGY = ClusterTopology(n_nodes=256, rack_size=16, racks_per_switch=4)

def run_twins(name, scenario, n, facade_only, *, spec=None, topology=None,
              **sim_kw):
    """Run one cell columnar and facade; return both results."""
    jobs = generate_workload(scenario, n, seed=3)
    results = {}
    for columnar in (True, False):
        cluster = ResourcePool(topology=topology)
        trace = None
        if spec is not None:
            trace = spec.build(
                n_nodes=cluster.total_nodes,
                horizon=estimate_horizon(jobs, cluster.total_nodes),
                topology=topology,
            )
        sched = create_scheduler(name, seed=5)
        if not columnar:
            facade_only(sched)
        assert sched.supports_columns is columnar
        results[columnar] = simulate(
            list(jobs),
            sched,
            cluster=cluster,
            disruptions=trace,
            **sim_kw,
        )
    return results[True], results[False]


def assert_identical(a, b):
    assert a.records == b.records
    assert a.decisions == b.decisions
    assert a.preemptions == b.preemptions
    assert a.extras == b.extras


#: Registered policies with a columnar decision kernel, read off the
#: ``supports_columns`` class flag.
COLUMNAR_POLICIES = {
    n for n in available_schedulers() if create_scheduler(n).supports_columns
}

#: (scenario, n_jobs, spec, topology, sim kwargs) — the behavioural
#: regimes every columnar kernel must agree with its facade twin on.
REGIMES = [
    pytest.param("heterogeneous_mix", 120, None, None, {}, id="clean"),
    pytest.param(
        "checkpoint_stress",
        100,
        SPEC,
        None,
        {"restart_policy": "checkpoint", "checkpoint_interval": 900.0},
        id="disrupted-checkpoint",
    ),
    pytest.param(
        "rack_storm",
        100,
        CORRELATED,
        TOPOLOGY,
        {"restart_policy": "preempt_migrate", "checkpoint_interval": 1200.0},
        id="correlated-topology",
    ),
    pytest.param(
        "drain_window",
        80,
        SPEC,
        None,
        {"enforce_walltime": True},
        id="drained-walltime",
    ),
]


class TestColumnarFacadeParity:
    @pytest.mark.parametrize("name", sorted(COLUMNAR_POLICIES))
    @pytest.mark.parametrize("scenario,n,spec,topology,kw", REGIMES)
    def test_byte_identical(
        self, name, scenario, n, spec, topology, kw, facade_only
    ):
        a, b = run_twins(
            name,
            scenario,
            n,
            facade_only,
            spec=spec,
            topology=topology,
            **kw,
        )
        assert_identical(a, b)

    def test_registry_capability_flags(self, facade_only):
        for name in sorted(COLUMNAR_POLICIES):
            assert facade_only(create_scheduler(name)).supports_columns \
                is False
        # The planner sorts once per replan, not per decision: its
        # columnar twin measured inside the noise and was deleted. EASY
        # backfill stops at the first job that may backfill, which a
        # whole-queue mask cannot: one scan, pinned by digest in
        # test_backfill_floor.
        for name in ("random", "ortools_like", "fcfs_backfill"):
            assert name not in COLUMNAR_POLICIES


class CapturingFCFS(BaseScheduler):
    """Minimal scheduler capturing the queue snapshot per decision."""

    name = "capturing-fcfs"

    def __init__(self):
        super().__init__()
        self.masters = []
        self.queues = []

    def decide(self, view):
        from repro.sim.actions import Delay, StartJob

        queue = view.queue
        self.queues.append(queue)
        self.masters.append(queue.masters)
        assert view.queue is queue  # one snapshot per view
        if queue.n and view.can_fit(queue.head):
            return StartJob(queue.head.job_id)
        return Delay


class TestZeroCopy:
    def test_engine_views_share_one_master_set(self):
        jobs = generate_workload("heterogeneous_mix", 60, seed=1)
        sched = CapturingFCFS()
        simulate(list(jobs), sched)
        assert len(sched.masters) > 10
        # One JobColumns per run, shared by every view — identity, not
        # just equality, so there is provably zero per-decision copying
        # of the master arrays.
        assert len({id(m) for m in sched.masters}) == 1
        masters = sched.masters[0]
        for queue in sched.queues:
            for name in COLUMN_NAMES:
                assert np.shares_memory(
                    getattr(queue.masters, name), getattr(masters, name)
                )

    def test_masters_and_columns_are_read_only(self):
        jobs = [make_job(i, nodes=2) for i in range(1, 5)]
        cols = queue_columns_from_jobs(jobs)
        for name in COLUMN_NAMES:
            arr = getattr(cols.masters, name)
            assert not arr.flags.writeable
            assert not cols.col(name).flags.writeable
        with pytest.raises(ValueError):
            cols.col("nodes")[0] = 99

    def test_fallback_identity_selector_never_copies(self):
        jobs = [make_job(i, nodes=i) for i in range(1, 6)]
        cols = queue_columns_from_jobs(jobs)
        # Identity selector: the gathered column IS the master array.
        for name in COLUMN_NAMES:
            assert cols.col(name) is getattr(cols.masters, name)
        assert list(cols.sel) == list(range(5))

    def test_selector_gather_is_cached(self):
        jobs = [make_job(i, nodes=i) for i in range(1, 7)]
        cols = QueueColumns(jobs, JobColumns(jobs), [4, 1, 3])
        gathered = cols.col("nodes")
        assert gathered.tolist() == [5, 2, 4]
        assert cols.col("nodes") is gathered  # one gather per rebuild
        assert not gathered.flags.writeable

    def test_lazy_masters_built_once(self):
        calls = []

        def build():
            calls.append(1)
            return JobColumns([make_job(1), make_job(2)])

        cols = QueueColumns([make_job(1), make_job(2)], build, None)
        assert cols.masters is cols.masters
        assert len(calls) == 1

    def test_fits_mask_is_can_fit_elementwise(self):
        """Same comparisons and ``+ 1e-9`` slack as ``can_fit``, and
        no mask kept: each call computes its own."""
        jobs = [
            make_job(1, nodes=2, memory=32.0),
            make_job(2, nodes=4, memory=16.0),
            make_job(3, nodes=1, memory=32.0 + 5e-10),
            make_job(4, nodes=1, memory=32.0 + 2e-9),
        ]
        view = make_view(jobs, free_nodes=3, free_mem=32.0)
        queue = QueueColumns(jobs, JobColumns(jobs), [0, 1, 2, 3])
        mask = queue.fits_mask(view.free_nodes, view.free_memory_gb)
        assert mask.tolist() == [view.can_fit(job) for job in jobs]
        assert mask.tolist() == [True, False, True, False]
        assert queue.fits_mask(3, 32.0) is not mask


class TestQueueChurn:
    def test_churn_is_invisible_to_observables(self, object_engine):
        """Kills requeue at the tail and starts delete mid-queue: a
        high-churn disrupted run equals the object oracle's."""
        jobs = generate_workload("checkpoint_stress", 80, seed=3)
        trace = SPEC.build(
            n_nodes=256, horizon=estimate_horizon(jobs, 256), topology=None
        )

        def run():
            return simulate(
                list(jobs),
                create_scheduler("fcfs"),
                disruptions=trace,
                restart_policy="checkpoint",
                checkpoint_interval=900.0,
            )

        result = run()
        assert result.preemptions  # the cell really churns
        with object_engine():
            assert_identical(result, run())

