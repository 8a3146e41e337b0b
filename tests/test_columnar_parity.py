"""Columnar decision fast path (PR 10): parity, no-copy, and tuning.

1. **Columnar/facade byte-identity**: every scheduler in
   :data:`COLUMNAR_SCHEDULERS` must produce bit-for-bit identical
   records, decisions, preemptions, and extras whether its decision
   kernel runs on :class:`ViewColumns` (the default) or on the
   ``Job``-facade path (the ``facade_only`` fixture) — across clean,
   disrupted, correlated-topology, and drained/walltime regimes.
2. **Zero-copy contract**: engine-built views share one per-run set of
   master arrays (the same :class:`JobColumns` object across every
   decision), hand-built views gather through the identity selector
   (columns *are* the masters), and every exposed column is read-only.
3. **Vectorized-predicate equivalence**: ``healthy_domain_mask`` is
   elementwise-identical to the scalar ``fits_healthy_domain`` on
   rack-, switch-group-, and cluster-scale node counts.
4. **Queue churn parity**: a high-churn disrupted run (kills and
   requeues at every failure) is identical to the object oracle's.
5. **Supersede-counter persistence**: a :class:`ShardedStore` reopened
   mid-sweep resumes its per-shard supersede counts from the manifest,
   so auto-compaction triggers at exactly the configured threshold
   across restarts.
"""

import json

import numpy as np
import pytest

from repro.experiments.storage import ShardedStore, shard_index
from repro.schedulers.base import BaseScheduler
from repro.schedulers.recovery import (
    domain_pressures,
    fits_healthy_domain,
    healthy_domain_mask,
)
from repro.schedulers.registry import (
    COLUMNAR_SCHEDULERS,
    create_scheduler,
    supports_columns,
)
from repro.sim.cluster import ResourcePool
from repro.sim.columns import (
    COLUMN_NAMES,
    JobColumns,
    QueueColumns,
    queue_columns_from_jobs,
)
from repro.sim.disruptions import (
    DisruptionSpec,
    DrainWindow,
    estimate_horizon,
)
from repro.sim.simulator import SystemView, simulate
from repro.sim.topology import ClusterTopology
from repro.workloads.generator import generate_workload

from tests.conftest import make_job
from tests.test_storage_sharded import make_stored

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
    @pytest.mark.parametrize("name", sorted(COLUMNAR_SCHEDULERS))
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
        for name in sorted(COLUMNAR_SCHEDULERS):
            assert supports_columns(name)
            assert create_scheduler(name).supports_columns is True
            assert facade_only(create_scheduler(name)).supports_columns \
                is False
        # The planners sort once per replan, not per decision: their
        # columnar twins measured inside the noise and were deleted.
        for name in ("random", "ortools_like", "genetic"):
            assert not supports_columns(name)
            assert create_scheduler(name).supports_columns is False


class CapturingFCFS(BaseScheduler):
    """Minimal scheduler capturing the columnar surface per decision."""

    name = "capturing-fcfs"

    def __init__(self):
        super().__init__()
        self.masters = []
        self.view_cols = []

    def decide(self, view):
        from repro.sim.actions import Delay, StartJob

        cols = view.columns()
        self.view_cols.append(cols)
        self.masters.append(cols.masters)
        assert view.columns() is cols  # cached on the view
        if cols.n and cols.fits_at(0):
            return StartJob(cols.id_at(0))
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
        for cols in sched.view_cols:
            for name in COLUMN_NAMES:
                assert np.shares_memory(
                    getattr(cols.masters, name), getattr(masters, name)
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
        masters = JobColumns([make_job(i, nodes=i) for i in range(1, 7)])
        cols = QueueColumns(masters, [4, 1, 3], 3)
        gathered = cols.col("nodes")
        assert gathered.tolist() == [5, 2, 4]
        assert cols.col("nodes") is gathered  # one gather per rebuild
        assert not gathered.flags.writeable

    def test_lazy_masters_built_once(self):
        calls = []

        def build():
            calls.append(1)
            return JobColumns([make_job(1), make_job(2)])

        cols = QueueColumns(build, None, 2)
        assert cols.masters is cols.masters
        assert len(calls) == 1

    def test_scalar_probe_matches_columns(self):
        masters = JobColumns([make_job(i, nodes=i) for i in range(1, 7)])
        sel = [5, 0, 2]
        for cols in (
            QueueColumns(masters, sel, 3),
            queue_columns_from_jobs(
                [make_job(i, nodes=i) for i in (6, 1, 3)]
            ),
        ):
            # Before any gather: direct master read.
            assert cols.scalar("nodes", 1) == 1
            col = cols.col("nodes")
            # After: served from the cached gather.
            assert [cols.scalar("nodes", p) for p in range(3)] \
                == col.tolist() == [6, 1, 3]

    def test_handbuilt_view_columns_cached(self):
        view = SystemView(
            now=0.0,
            queued=(make_job(1, nodes=2), make_job(2, nodes=4)),
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
        cols = view.columns()
        assert view.columns() is cols
        assert cols.fits_mask().tolist() == [True, True]
        assert cols.fits_mask() is cols.fits_mask()  # cached mask
        assert cols.fits_at(0) and cols.id_at(1) == 2


def domain_view(*, domain_free, drains=(), remaining=None,
                racks_per_switch=2):
    topo = ClusterTopology(
        n_nodes=64, rack_size=16, racks_per_switch=racks_per_switch
    )
    return SystemView(
        now=0.0,
        queued=(),
        running=(),
        completed_ids=(),
        free_nodes=sum(domain_free),
        free_memory_gb=512.0,
        total_nodes=64,
        total_memory_gb=512.0,
        pending_arrivals=0,
        next_arrival_time=None,
        next_completion_time=None,
        upcoming_drains=tuple(drains),
        remaining_runtimes=remaining or {},
        topology=topo,
        domain_free_nodes=tuple(domain_free),
    )


class TestHealthyDomainMask:
    #: Every placement level: sub-rack, exactly rack, switch-group,
    #: exactly group, and group-spanning (vacuously healthy).
    NODE_COUNTS = [1, 2, 4, 8, 15, 16, 17, 24, 31, 32, 33, 48, 64]

    @pytest.mark.parametrize(
        "domain_free,drains",
        [
            pytest.param((16, 16, 16, 16), (), id="all-free"),
            pytest.param((0, 2, 16, 4), (), id="uneven"),
            pytest.param((0, 0, 0, 0), (), id="exhausted"),
            pytest.param(
                (0, 2, 16, 4),
                (
                    DrainWindow(
                        start=500.0,
                        end=1_000.0,
                        nodes=16,
                        announce_time=0.0,
                        domain="rack2",
                    ),
                ),
                id="drain-pressure",
            ),
        ],
    )
    def test_matches_scalar_predicate(self, domain_free, drains):
        view = domain_view(domain_free=domain_free, drains=drains)
        pressures = domain_pressures(view)
        nodes = np.array(self.NODE_COUNTS, dtype=np.int64)
        mask = healthy_domain_mask(view, nodes, pressures)
        scalar = [
            fits_healthy_domain(view, make_job(i + 1, nodes=int(n)),
                                pressures)
            for i, n in enumerate(self.NODE_COUNTS)
        ]
        assert mask.tolist() == scalar

    def test_all_true_without_domains(self):
        view = SystemView(
            now=0.0, queued=(), running=(), completed_ids=(),
            free_nodes=4, free_memory_gb=32.0, total_nodes=64,
            total_memory_gb=512.0, pending_arrivals=0,
            next_arrival_time=None, next_completion_time=None,
        )
        nodes = np.array([1, 64], dtype=np.int64)
        assert healthy_domain_mask(view, nodes).all()


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


class TestSupersedePersistence:
    def _manifest(self, path):
        return json.loads((path / "MANIFEST.json").read_text("utf-8"))

    def test_counter_survives_reopen(self, tmp_path):
        path = tmp_path / "runs.store"
        store = ShardedStore(path, n_shards=2, auto_compact_threshold=3)
        run = make_stored()
        store.append(run)
        store.append(run)  # supersede #1
        store.append(run)  # supersede #2
        manifest = self._manifest(path)
        assert sum(manifest["superseded"].values()) == 2

        # A fresh sweep process reopens the store: the count resumes
        # at 2, so the very next supersede crosses threshold 3 and
        # compacts — instead of silently restarting from zero.
        reopened = ShardedStore(path, auto_compact_threshold=3)
        assert sum(reopened._superseded.values()) == 2
        reopened.append(run)  # supersede #3 → auto-compaction
        shard = reopened.shard_for(run.key)
        lines = [
            line
            for line in shard.path.read_text("utf-8").splitlines()
            if line.strip()
        ]
        assert len(lines) == 1  # compacted down to the winner
        assert "superseded" not in self._manifest(path)

    def test_explicit_compact_persists_reset(self, tmp_path):
        store = ShardedStore(
            tmp_path / "runs.store", n_shards=2, auto_compact_threshold=100
        )
        run = make_stored()
        store.append(run)
        store.append(run)
        assert "superseded" in self._manifest(tmp_path / "runs.store")
        assert store.compact() == 1
        assert "superseded" not in self._manifest(tmp_path / "runs.store")

    def test_doctor_dedupe_resets_counters(self, tmp_path):
        path = tmp_path / "runs.store"
        store = ShardedStore(path, n_shards=2, auto_compact_threshold=100)
        run = make_stored()
        store.append(run)
        store.append(run)
        report = store.doctor(dedupe=True)
        assert report.n_deduped == 1
        assert "superseded" not in self._manifest(path)
        assert store._superseded == {}

    def test_mangled_counters_read_as_empty(self, tmp_path):
        path = tmp_path / "runs.store"
        ShardedStore(path, n_shards=2).ensure_initialized()
        manifest_path = path / "MANIFEST.json"
        payload = json.loads(manifest_path.read_text("utf-8"))
        payload["superseded"] = {
            "not-an-int": 3, "0": "three", "1": -2, "2": 0
        }
        manifest_path.write_text(json.dumps(payload), encoding="utf-8")
        # Tolerant parse: counter loss only delays compaction.
        assert ShardedStore(path)._superseded == {}
        payload["superseded"] = ["nonsense"]
        manifest_path.write_text(json.dumps(payload), encoding="utf-8")
        assert ShardedStore(path)._superseded == {}

    def test_sibling_shard_counts_survive_rewrites(self, tmp_path):
        """Two writer handles on different shards: each manifest write
        merges the persisted counts first, so neither zeroes the
        other's progress."""
        path = tmp_path / "runs.store"
        a = ShardedStore(path, n_shards=4, auto_compact_threshold=100)
        b = ShardedStore(path, n_shards=4, auto_compact_threshold=100)
        run_a = make_stored(n_jobs=10)
        run_b = next(
            r
            for r in (make_stored(n_jobs=10 + i) for i in range(1, 64))
            if shard_index(r.key, 4) != shard_index(run_a.key, 4)
        )
        a.append(run_a)
        b.append(run_b)
        a.append(run_a)  # writer A records its supersede
        b.append(run_b)  # writer B must not wipe A's count
        manifest = json.loads((path / "MANIFEST.json").read_text("utf-8"))
        assert sorted(manifest["superseded"].values()) == [1, 1]
