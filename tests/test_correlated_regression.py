"""Pinning tests for the topology/correlated-failure subsystem.

1. **Zero-correlation identity**: disrupted runs without domain-level
   events must be *byte-identical* to the PR-3 engine. The digests
   below were first generated by the pre-topology code on the exact
   cells they pin — records, decisions, preemptions, and metric floats
   all hash in at full precision, so any behavioural drift (event
   renumbering, view changes, metric columns) fails loudly. The
   decision stream has moved once since (no query at a drain
   announcement); the outcome digests pin that nothing else did.
2. **Correlated determinism**: a seeded correlated trace is
   bit-reproducible across runs and across serial vs. parallel matrix
   execution.
3. **Topology identity**: the cluster topology is part of the cell key
   and the store schema (v3), and resume never treats one layout's
   runs as covering another's.
"""

import dataclasses

import pytest

from repro.experiments.parallel import expand_cells, run_cells
from repro.experiments.runner import run_single
from repro.experiments.store import RunStore, StoredRun
from repro.schedulers.recovery import fits_healthy_domain, spread_requeue
from repro.service.protocol import schedule_digest
from repro.sim.disruptions import DisruptionSpec
from repro.sim.job import Job
from repro.sim.simulator import SystemView
from repro.sim.topology import ClusterTopology

from tests.conftest import run_digest
from tests.runner_reference import forked_run_digests, run_digests

TOPO = ClusterTopology(n_nodes=256, rack_size=32, racks_per_switch=4)

#: The PR-3 regression spec (identical to test_disruption_regression's
#: HOSTILE) — no correlated knobs, so runs must replay the old engine
#: bit for bit.
UNCORRELATED = DisruptionSpec(
    mtbf=60_000.0,
    mttr=800.0,
    drain_every=6_000.0,
    drain_duration=1_000.0,
    drain_nodes=48,
    drain_lead=1_500.0,
    drain_first=2_000.0,
    seed=5,
)

CORRELATED = DisruptionSpec(
    mtbf=300_000.0,
    mttr=1_200.0,
    rack_mtbf=25_000.0,
    correlation=1.0,
    seed=5,
)

#: SHA-256 digests of (records, decisions, preemptions, metrics) in
#: full float precision for run_single("drain_window", 30, <scheduler>,
#: workload_seed=2, disruptions=UNCORRELATED,
#: restart_policy="checkpoint", checkpoint_interval=400.0). First
#: produced by the PR-3 engine (commit 1612bb5); re-derived when the
#: engine stopped querying the scheduler at a drain announcement with
#: an empty queue, which removed one accepted ``Delay`` record per
#: such announcement and changed nothing else (``OUTCOME_DIGESTS``).
PR3_DIGESTS = {
    "fcfs": "9907715fce93a044e2da75e3a61cdaf278362f8a0a72f2f7d64fa51f16176cdf",
    "fcfs_backfill": "82b2fc7e48193bdc2cff701471a526c91f211e378e3eff143279d27cdec66444",
    "ortools_like": "92066e9fcdc924d7bc2d0b5fd693ba40d2c7ce15861da848401a2ffbe39b1bcd",
}

#: The same cells' ``schedule_digest`` with the decision stream left
#: out — job records, preemptions and metrics only — recorded at
#: commit 20cba1d, while the announce-time query still ran. The query
#: only ever added ``Delay`` records, so these never moved.
OUTCOME_DIGESTS = {
    "fcfs": "c95a755a2c81ba434f551ab1aa920a5779c959167dfdd22cba108c1b4f493895",
    "fcfs_backfill": "dabbf1ef77095391a61f5bd9cd42c5d4d2b528654d36cd9db2bbe8db4d88ab2e",
    "ortools_like": "7392971d872fa5eef142c2c6af926826d237fcc3a8ed48d24c30d9bc3f91266f",
}

#: Decision records per cell: 105 / 103 / 102 at commit 20cba1d, less
#: the three accepted ``Delay`` answers to drain announcements.
DECISION_COUNTS = {"fcfs": 102, "fcfs_backfill": 100, "ortools_like": 99}


class TestZeroCorrelationByteIdentity:
    @pytest.mark.parametrize("scheduler_name", sorted(PR3_DIGESTS))
    def test_uncorrelated_disrupted_runs_match_pr3_engine(
        self, scheduler_name
    ):
        run = run_single(
            "drain_window", 30, scheduler_name,
            workload_seed=2,
            disruptions=UNCORRELATED,
            restart_policy="checkpoint",
            checkpoint_interval=400.0,
        )
        assert run_digest(run) == PR3_DIGESTS[scheduler_name]
        outcome = dataclasses.replace(run.result, decisions=[])
        assert schedule_digest(
            outcome, run.metrics.as_dict()
        ) == OUTCOME_DIGESTS[scheduler_name]
        assert len(run.result.decisions) == DECISION_COUNTS[scheduler_name]
        # And the PR-3 cell identity is preserved verbatim (modulo the
        # appended flat topology component).
        assert run.disruption_sig == (
            "mtbf=60000,mttr=800,drain=48x1000@2000+6000~1500,dseed=5,"
            "policy=checkpoint,ckpt=400"
        )
        assert run.topology_sig == "flat"


class TestCorrelatedDeterminism:
    @pytest.mark.parametrize(
        "scheduler_name", ["fcfs", "fcfs_backfill", "ortools_like"]
    )
    def test_bit_reproducible_across_runs(self, scheduler_name):
        def one():
            return run_single(
                "rack_storm", 30, scheduler_name,
                workload_seed=2,
                topology=TOPO,
                disruptions=CORRELATED,
                restart_policy="checkpoint",
                checkpoint_interval=400.0,
            )

        a, b = one(), one()
        assert run_digest(a) == run_digest(b)
        assert StoredRun.from_run(a).key == StoredRun.from_run(b).key
        assert [
            (p.job_id, p.time, p.reason, p.domain)
            for p in a.result.preemptions
        ] == [
            (p.job_id, p.time, p.reason, p.domain)
            for p in b.result.preemptions
        ]

    def test_serial_vs_parallel_matrix_identical(self):
        cells = expand_cells(
            ("rack_storm",),
            (15,),
            ("fcfs", "fcfs_backfill"),
            workload_seeds=(0, 1),
            disruptions=CORRELATED,
            restart_policy="checkpoint",
            checkpoint_interval=400.0,
            topology=TOPO,
        )
        serial = run_cells(cells, workers=1)
        parallel = run_cells(cells, workers=2)
        assert len(serial) == len(parallel) == 4
        assert serial == parallel  # field for field, key and metrics too
        assert forked_run_digests(cells) == run_digests(cells)


class TestTopologyIdentity:
    def test_topology_in_cell_key_and_store(self, tmp_path):
        run = run_single(
            "rack_storm", 12, "fcfs",
            workload_seed=0,
            topology=TOPO,
            disruptions=CORRELATED,
            restart_policy="checkpoint",
            checkpoint_interval=400.0,
        )
        assert run.topology_sig == "rack32x4"
        stored = StoredRun.from_run(run)
        assert stored.key[-1] == "rack32x4"
        store = RunStore(tmp_path / "runs.jsonl")
        store.append(stored)
        (loaded,) = store.load()
        assert loaded.key == stored.key
        assert loaded.topology_sig == "rack32x4"
        assert loaded.schema_version == 3
        assert "rack_mtbf" in loaded.disruption["spec"]
        assert "domain_kills" in loaded.disruption
        assert StoredRun.from_json(loaded.to_json()) == loaded

    def test_v2_lines_load_as_flat(self):
        line = (
            '{"scenario": "adversarial", "n_jobs": 5, "scheduler": "fcfs",'
            ' "workload_seed": 0, "scheduler_seed": 0,'
            ' "metrics": {"makespan": 1.0}, "schema_version": 2}'
        )
        loaded = StoredRun.from_json(line)
        assert loaded.topology_sig == "flat"
        assert loaded.key[-1] == "flat"

    def test_resume_distinguishes_topologies(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        flat_cells = expand_cells(
            ("rack_storm",), (8,), ("fcfs",),
            disruptions=CORRELATED,
        )
        run_cells(flat_cells, workers=1, store=store)
        topo_cells = expand_cells(
            ("rack_storm",), (8,), ("fcfs",),
            disruptions=CORRELATED,
            topology=TOPO,
        )
        # The flat-topology cell must NOT satisfy the rack-layout cell.
        executed = run_cells(topo_cells, workers=1, store=store, resume=True)
        assert len(executed) == 1
        assert len(store.load()) == 2

    def test_uncorrelated_cell_keys_unchanged_from_pr3(self):
        # Resume-safety across the schema bump: the first seven key
        # components of a v2-era cell are exactly what PR 3 computed.
        cell = expand_cells(
            ("drain_window",), (8,), ("fcfs",),
            disruptions=UNCORRELATED,
            restart_policy="checkpoint",
            checkpoint_interval=400.0,
        )[0]
        assert cell.key[:7] == (
            "drain_window", 8, "fcfs", 0, 0, "scenario",
            "mtbf=60000,mttr=800,drain=48x1000@2000+6000~1500,dseed=5,"
            "policy=checkpoint,ckpt=400",
        )
        assert cell.key[7] == "flat"


def view_with_domains(
    *, domain_free=(16, 16, 16, 16), remaining=None, racks_per_switch=1
):
    """A 64-node machine, 4 racks of 16."""
    topo = ClusterTopology(
        n_nodes=64, rack_size=16, racks_per_switch=racks_per_switch
    )
    return SystemView(
        now=0.0,
        queued=(),
        running=(),
        completed_ids=(),
        free_nodes=64,
        free_memory_gb=512.0,
        total_nodes=64,
        total_memory_gb=512.0,
        pending_arrivals=0,
        next_arrival_time=None,
        next_completion_time=None,
        remaining_runtimes=remaining or {},
        topology=topo,
        domain_free_nodes=tuple(domain_free),
    )


def jb(jid, nodes=8):
    return Job(job_id=jid, submit_time=0.0, duration=100.0, nodes=nodes,
               memory_gb=float(nodes))


class TestSpreadHelpers:
    def test_fits_healthy_domain(self):
        view = view_with_domains(domain_free=(0, 2, 6, 4))
        # No rack has 8 free nodes; rack 2 has 6.
        assert not fits_healthy_domain(view, jb(1, nodes=8))
        assert fits_healthy_domain(view, jb(1, nodes=6))
        assert fits_healthy_domain(view, jb(1, nodes=4))
        # Jobs wider than a rack are governed by aggregate tests.
        assert fits_healthy_domain(view, jb(1, nodes=32))

    def test_vacuously_true_without_domains(self):
        flat = SystemView(
            now=0.0, queued=(), running=(), completed_ids=(),
            free_nodes=4, free_memory_gb=32.0, total_nodes=64,
            total_memory_gb=512.0, pending_arrivals=0,
            next_arrival_time=None, next_completion_time=None,
        )
        assert fits_healthy_domain(flat, jb(1, nodes=64))

    def test_spread_requeue_demotes_homeless_restarts(self):
        view = view_with_domains(
            domain_free=(4, 4, 4, 4),
            remaining={2: 50.0},
        )
        order = [jb(1, nodes=8), jb(2, nodes=8), jb(3, nodes=2)]
        # Job 2 is a requeued 8-node job but no rack has 8 free.
        assert [j.job_id for j in spread_requeue(view, order)] == [1, 3, 2]

    def test_spread_requeue_identity_on_clean_views(self):
        view = view_with_domains(domain_free=(4, 4, 4, 4))
        order = [jb(1), jb(2)]
        assert spread_requeue(view, order) == order


def view_with_switches(*, domain_free):
    """:func:`view_with_domains` with 2 racks per switch group."""
    return view_with_domains(domain_free=domain_free, racks_per_switch=2)


class TestSwitchGroupFits:
    """Jobs wider than one rack: the switch-group-level refinement
    (ROADMAP PR-4 follow-on) — spread across racks, but behind one
    healthy switch."""

    def test_wider_than_rack_fits_inside_healthy_group(self):
        # 24 nodes > rack (16) but <= switch group (32); group 1
        # (racks 2+3) jointly offers 12+12 = 24.
        view = view_with_switches(domain_free=(2, 2, 12, 12))
        assert fits_healthy_domain(view, jb(1, nodes=24))

    def test_wider_than_rack_rejected_when_no_group_has_room(self):
        view = view_with_switches(domain_free=(10, 10, 10, 10))
        # Every group offers 20 < 24: no healthy switch group.
        assert not fits_healthy_domain(view, jb(1, nodes=24))

    def test_wider_than_switch_group_stays_vacuously_true(self):
        view = view_with_switches(domain_free=(0, 0, 0, 0))
        assert fits_healthy_domain(view, jb(1, nodes=33))

    def test_single_rack_jobs_unchanged_by_switch_refinement(self):
        view = view_with_switches(domain_free=(2, 2, 2, 9))
        assert fits_healthy_domain(view, jb(1, nodes=9))
        assert not fits_healthy_domain(view, jb(1, nodes=10))
