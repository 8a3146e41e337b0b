"""Pinning tests for the disruption subsystem's two contracts.

1. **Zero-disruption identity**: with no trace (or an empty one), every
   scheduler produces schedules, decisions, and objective floats
   exactly equal to the legacy engine — the subsystem is invisible
   when unused.
2. **Disrupted determinism**: a seeded failure/drain trace is
   bit-reproducible across repeated runs, and serial vs. parallel
   matrix execution of disrupted cells yields identical metrics.
"""

import pytest

from repro.experiments.parallel import expand_cells, run_cells
from repro.experiments.runner import run_single
from repro.experiments.store import StoredRun
from repro.metrics.objectives import compute_metrics
from repro.schedulers.registry import create_scheduler
from repro.sim.disruptions import DisruptionSpec, DisruptionTrace
from repro.sim.simulator import HPCSimulator
from repro.workloads.generator import generate_workload

from tests.runner_reference import forked_run_digests, run_digests

SCHEDULERS = (
    "fcfs",
    "fcfs_backfill",
    "sjf",
    "first_fit",
    "largest_first",
    "ortools_like",
    "random",
)

HOSTILE = DisruptionSpec(
    mtbf=60_000.0,
    mttr=800.0,
    drain_every=6_000.0,
    drain_duration=1_000.0,
    drain_nodes=48,
    drain_lead=1_500.0,
    drain_first=2_000.0,
    seed=5,
)


def run_with(scheduler_name, jobs, **sim_kwargs):
    sim = HPCSimulator(
        jobs=list(jobs),
        scheduler=create_scheduler(scheduler_name, seed=0),
        **sim_kwargs,
    )
    return sim.run()


class TestZeroDisruptionIdentity:
    """Empty trace ⇒ byte-identical to no trace at all."""

    @pytest.mark.parametrize("scheduler_name", SCHEDULERS)
    def test_schedules_and_objectives_identical(self, scheduler_name):
        jobs = generate_workload("heterogeneous_mix", 40, seed=3)
        legacy = run_with(scheduler_name, jobs)
        gated = run_with(
            scheduler_name, jobs, disruptions=DisruptionTrace()
        )
        # Full structural equality: every record and every decision
        # (including rejection violations and meta) must match.
        assert legacy.records == gated.records
        assert legacy.decisions == gated.decisions
        assert not gated.disrupted and not gated.preemptions
        # Objective floats exactly equal — no epsilon.
        assert (
            compute_metrics(legacy).as_dict()
            == compute_metrics(gated).as_dict()
        )

    def test_no_disruption_metrics_leak_into_clean_runs(self):
        jobs = generate_workload("resource_sparse", 20, seed=0)
        result = run_with("fcfs", jobs, disruptions=DisruptionTrace())
        values = compute_metrics(result).as_dict()
        assert "goodput_node_hours" not in values
        assert set(values) == {
            "makespan", "avg_wait_time", "avg_turnaround_time",
            "throughput", "node_utilization", "memory_utilization",
            "wait_fairness", "user_fairness",
        }

    def test_restart_policy_alone_changes_nothing(self):
        jobs = generate_workload("adversarial", 25, seed=1)
        legacy = run_with("fcfs_backfill", jobs)
        gated = run_with(
            "fcfs_backfill", jobs,
            disruptions=DisruptionTrace(),
            restart_policy="preempt_migrate",
        )
        assert legacy.records == gated.records
        assert legacy.decisions == gated.decisions


class TestDisruptedDeterminism:
    @pytest.mark.parametrize(
        "scheduler_name", ["fcfs", "fcfs_backfill", "ortools_like"]
    )
    def test_bit_reproducible_across_runs(self, scheduler_name):
        def one():
            return run_single(
                "drain_window", 30, scheduler_name,
                workload_seed=2,
                disruptions=HOSTILE,
                restart_policy="checkpoint",
                checkpoint_interval=400.0,
            )

        a, b = one(), one()
        assert a.result.records == b.result.records
        assert a.result.decisions == b.result.decisions
        assert [
            (p.job_id, p.time, p.reason, p.work_saved, p.work_lost)
            for p in a.result.preemptions
        ] == [
            (p.job_id, p.time, p.reason, p.work_saved, p.work_lost)
            for p in b.result.preemptions
        ]
        assert a.metrics.as_dict() == b.metrics.as_dict()
        assert StoredRun.from_run(a).key == StoredRun.from_run(b).key

    def test_serial_vs_parallel_matrix_identical(self, tmp_path):
        cells = expand_cells(
            ("drain_window",),
            (15,),
            ("fcfs", "fcfs_backfill"),
            workload_seeds=(0, 1),
            disruptions=HOSTILE,
            restart_policy="checkpoint",
            checkpoint_interval=400.0,
        )
        serial = run_cells(cells, workers=1)
        parallel = run_cells(cells, workers=2)
        assert len(serial) == len(parallel) == 4
        # Field for field: key, metrics and the disruption column with
        # its preemption and kill counts.
        assert serial == parallel
        assert all(s.disruption["n_preemptions"] > 0 for s in serial)
        assert forked_run_digests(cells) == run_digests(cells)

    def test_disruption_regime_is_part_of_cell_identity(self):
        clean = run_single("drain_window", 10, "fcfs", workload_seed=0)
        disrupted = run_single(
            "drain_window", 10, "fcfs", workload_seed=0,
            disruptions=HOSTILE,
            restart_policy="checkpoint", checkpoint_interval=400.0,
        )
        assert (
            StoredRun.from_run(clean).key != StoredRun.from_run(disrupted).key
        )
        assert clean.disruption_sig == "none"
        assert disrupted.disruption_sig != "none"


class TestStoreRoundTrip:
    def test_disruption_columns_round_trip(self, tmp_path):
        from repro.experiments.store import RunStore

        run = run_single(
            "drain_window", 12, "fcfs_backfill",
            workload_seed=0,
            disruptions=HOSTILE,
            restart_policy="checkpoint", checkpoint_interval=400.0,
        )
        store = RunStore(tmp_path / "runs.jsonl")
        store.append(StoredRun.from_run(run))
        (loaded,) = store.load()
        assert loaded.key == StoredRun.from_run(run).key
        assert loaded.disruption_sig == run.disruption_sig
        assert loaded.disruption is not None
        assert loaded.disruption["restart_policy"] == "checkpoint"
        assert loaded.disruption["checkpoint_interval"] == 400.0
        assert loaded.disruption["spec"]["mtbf"] == HOSTILE.mtbf
        assert "n_preemptions" in loaded.disruption
        # Reliability objectives persisted alongside the §3.2 metrics.
        assert "goodput_node_hours" in loaded.metrics
        # And a JSON round-trip of the line itself is stable.
        assert StoredRun.from_json(loaded.to_json()) == loaded

    def test_resume_distinguishes_disruption_regimes(self, tmp_path):
        from repro.experiments.store import RunStore

        store = RunStore(tmp_path / "runs.jsonl")
        clean_cells = expand_cells(("drain_window",), (8,), ("fcfs",))
        run_cells(clean_cells, workers=1, store=store)
        disrupted_cells = expand_cells(
            ("drain_window",), (8,), ("fcfs",),
            disruptions=HOSTILE,
            restart_policy="checkpoint",
            checkpoint_interval=400.0,
        )
        # The clean cell in the store must NOT satisfy the disrupted
        # cell on resume.
        executed = run_cells(
            disrupted_cells, workers=1, store=store, resume=True
        )
        assert len(executed) == 1
        assert len(store.load()) == 2
