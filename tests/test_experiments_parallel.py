"""Tests for the parallel experiment engine: determinism, streaming
artifacts, and resume."""

import dataclasses
import os
import re

import pytest

from repro.experiments.parallel import (
    CellFailedError,
    MatrixCell,
    SweepInterrupted,
    expand_cells,
    resolve_workers,
    run_cells,
    run_matrix_parallel,
)
from repro.experiments.runner import LLM_SCHEDULERS, run_single
from repro.experiments.store import FailureSidecar, RunStore, StoredRun
from repro.schedulers.registry import available_schedulers
from repro.sim.disruptions import DisruptionSpec
from repro.workloads.generator import generate_workload

from tests.runner_reference import cell_run, run_matrix

SCENARIOS = ("adversarial", "resource_sparse")
SIZES = (10,)
SCHEDULERS = ("fcfs", "sjf")


class TestExpandCells:
    def test_canonical_order_matches_run_matrix_nesting(self):
        cells = expand_cells(
            SCENARIOS, (5, 10), SCHEDULERS, workload_seeds=(0, 1)
        )
        assert len(cells) == 2 * 2 * 2 * 2
        # scenario outermost, then size, scheduler, workload seed.
        assert [
            (c.scenario, c.n_jobs, c.scheduler, c.workload_seed)
            for c in cells[:4]
        ] == [
            ("adversarial", 5, "fcfs", 0),
            ("adversarial", 5, "fcfs", 1),
            ("adversarial", 5, "sjf", 0),
            ("adversarial", 5, "sjf", 1),
        ]
        assert cells[-1].scenario == "resource_sparse"

    @pytest.mark.parametrize("name", available_schedulers())
    def test_cell_key_matches_store_key(self, name):
        cell = MatrixCell("adversarial", 10, name, 2, 3)
        assert cell.key == (
            "adversarial", 10, name, 2, 3, "scenario", "none", "flat",
        )
        run = run_single(
            "adversarial", 10, name, workload_seed=2, scheduler_seed=3
        )
        assert StoredRun.from_run(run).key == cell.key

    def test_arrival_mode_is_part_of_cell_identity(self):
        scenario_cell = MatrixCell("adversarial", 10, "fcfs")
        zero_cell = MatrixCell("adversarial", 10, "fcfs", arrival_mode="zero")
        assert scenario_cell.key != zero_cell.key


class TestCellContract:
    """A cell that cannot run is a ``ValueError`` naming the field at
    construction, so no sweep starts a worker for it or retries it."""

    @pytest.mark.parametrize("field, value, message", [
        ("scheduler", "nope", "unknown scheduler 'nope'; available: "),
        ("scenario", "nope", "unknown scenario 'nope'; available: "),
        ("n_jobs", -3, "n_jobs must be >= 0, got -3"),
        ("workload_seed", -1, "workload_seed must be >= 0, got -1"),
        ("scheduler_seed", -1, "scheduler_seed must be >= 0, got -1"),
        ("arrival_mode", "Zero", "unknown arrival_mode 'Zero'"),
        ("restart_policy", "nope", "unknown restart policy 'nope'"),
        ("restart_policy", "checkpoint",
         "restart_policy='checkpoint' requires a positive checkpoint_interval"),
        ("checkpoint_interval", float("nan"), "must be positive and finite"),
        ("checkpoint_interval", -5.0, "must be positive and finite"),
    ])
    def test_refused_at_construction(self, field, value, message):
        config = {**MatrixCell("adversarial", 8, "fcfs").to_config(),
                  field: value}
        with pytest.raises(ValueError, match=re.escape(message)):
            MatrixCell.from_config(config)

    def test_refused_before_any_worker_and_never_retried(self, monkeypatch):
        from repro.analysis.significance import compare_schedulers
        from repro.experiments import parallel

        calls = []
        monkeypatch.setattr(
            parallel, "_execute_cell", lambda *args: calls.append(args)
        )
        with pytest.raises(ValueError, match="unknown scheduler 'nope'"):
            run_cells(
                [MatrixCell("adversarial", 8, "fcfs"),
                 MatrixCell("adversarial", 8, "nope")],
                workers=2,
            )
        with pytest.raises(ValueError, match="unknown scheduler 'nope'"):
            compare_schedulers("adversarial", 8, "fcfs", "nope", n_seeds=2)
        with pytest.raises(ValueError, match="workload_seed must be >= 0"):
            run_matrix_parallel(
                ["adversarial"], [8], ["fcfs"], workload_seeds=[0, -1],
                workers=2,
            )
        assert calls == []

    def test_restart_policy_is_stored_canonical(self):
        spec = DisruptionSpec(mtbf=50_000.0, mttr=600.0, seed=1)
        cell = MatrixCell(
            "adversarial", 8, "fcfs", disruptions=spec,
            restart_policy="Preempt-Migrate", checkpoint_interval=300.0,
        )
        assert cell.restart_policy == "preempt_migrate"
        assert cell == MatrixCell(
            "adversarial", 8, "fcfs", disruptions=spec,
            restart_policy="preempt_migrate", checkpoint_interval=300.0,
        )
        assert MatrixCell.from_config(cell.to_config()) == cell


class TestResolveWorkers:
    def test_defaults_to_cpu_count(self):
        assert resolve_workers(None) >= 1

    def test_clamps_to_at_least_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1
        assert resolve_workers(3) == 3

    def test_default_follows_the_affinity_mask(self, monkeypatch):
        from repro.service.service import SchedulingService

        # A Slurm cpuset or ``taskset`` leaves one core of eight.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_workers(None) == 1
        assert resolve_workers(3) == 3  # an explicit request stands
        # The daemon's run_cell pool has the same default.
        assert SchedulingService().workers == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert resolve_workers(None) == 8


class TestSweepOverlap:
    """A worker that answers gets its next cell before the parent
    appends (and fsyncs) the answer: while cells are queued, every
    append happens with both workers computing."""

    def test_every_append_with_cells_queued_has_both_workers_busy(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import parallel

        sweeps, seen = [], []
        post_init = parallel._Sweep.__post_init__

        def remember(self):
            post_init(self)
            sweeps.append(self)

        real_append = RunStore.append

        def watched_append(self, run):
            sweep, = sweeps
            seen.append((len(sweep.queue), len(sweep.busy())))
            return real_append(self, run)

        monkeypatch.setattr(parallel._Sweep, "__post_init__", remember)
        monkeypatch.setattr(RunStore, "append", watched_append)
        cells = expand_cells(SCENARIOS, (6, 8), SCHEDULERS)
        assert len(cells) >= 6
        run_cells(cells, workers=2, store=RunStore(tmp_path / "r.jsonl"))
        assert len(seen) == len(cells)
        queued = [busy for n_queued, busy in seen if n_queued]
        assert queued and queued == [2] * len(queued)


class TestJobSetReuse:
    """A job set is generated once per process and shared by the cells
    of its (scenario, n_jobs, workload_seed, arrival_mode) identity."""

    CELLS = expand_cells(
        SCENARIOS, (8,), ("fcfs", "sjf", LLM_SCHEDULERS[0]),
        workload_seeds=(0, 3),
    )

    def test_a_block_generates_each_job_set_once(self, monkeypatch):
        from repro.experiments import parallel, runner

        calls = []

        def counting(scenario, n_jobs, **kwargs):
            calls.append((scenario, n_jobs, kwargs["seed"]))
            return generate_workload(scenario, n_jobs, **kwargs)

        parallel._job_set.cache_clear()
        monkeypatch.setattr(parallel, "generate_workload", counting,
                            raising=False)
        monkeypatch.setattr(runner, "generate_workload", counting)
        assert len(self.CELLS) == 2 * 2 * 3
        inline = run_cells(self.CELLS, workers=1)
        assert len(calls) == 4
        assert sorted(set(calls)) == sorted(calls)
        pooled = run_cells(self.CELLS, workers=2)
        expected = [StoredRun.from_run(cell_run(c)) for c in self.CELLS]
        # Dataclass equality is field for field; the lines byte for byte.
        assert inline == expected and pooled == expected
        assert [r.to_json() for r in pooled] == [
            r.to_json() for r in expected
        ]

    def test_the_cached_job_set_is_a_tuple_a_run_leaves_unchanged(self):
        from repro.experiments import parallel

        cell = MatrixCell("adversarial", 10, "sjf", 2)
        jobs = parallel._job_set("adversarial", 10, 2, "scenario")
        assert isinstance(jobs, tuple)
        before = [dataclasses.astuple(job) for job in jobs]
        parallel._execute_cell(cell)
        assert parallel._job_set("adversarial", 10, 2, "scenario") is jobs
        assert [dataclasses.astuple(job) for job in jobs] == before
        assert list(jobs) == generate_workload("adversarial", 10, seed=2)


class TestSerialParallelEquivalence:
    def test_identical_metrics_and_order(self):
        serial = run_matrix(SCENARIOS, SIZES, SCHEDULERS, workload_seed=1)
        parallel = run_matrix_parallel(
            SCENARIOS, SIZES, SCHEDULERS, workload_seeds=(1,), workers=2
        )
        assert len(serial) == len(parallel)
        for s, p in zip(serial, parallel):
            assert (s.scenario, s.n_jobs, s.scheduler) == (
                p.scenario, p.n_jobs, p.scheduler
            )
            # Bit-identical objective values, not just approximately.
            assert s.values == p.metrics

    def test_worker_count_does_not_change_results(self):
        one = run_matrix_parallel(SCENARIOS, SIZES, SCHEDULERS, workers=1)
        two = run_matrix_parallel(SCENARIOS, SIZES, SCHEDULERS, workers=2)
        assert [r.metrics for r in one] == [r.metrics for r in two]


class TestCellAnswerIsTheMeasurement:
    """A sweep answers with what its readers read: each cell's
    ``StoredRun``, the same object on the inline and the pooled path,
    equal to ``StoredRun.from_run`` of the cell's ``run_single``."""

    CELLS = (
        MatrixCell("heterogeneous_mix", 8, LLM_SCHEDULERS[0]),
        MatrixCell(
            "drain_window", 10, "fcfs_backfill",
            disruptions=DisruptionSpec(
                mtbf=60_000.0, mttr=800.0, drain_every=6_000.0,
                drain_duration=1_000.0, drain_nodes=48, drain_lead=1_500.0,
                drain_first=2_000.0, seed=5,
            ),
            restart_policy="checkpoint",
            checkpoint_interval=400.0,
        ),
        MatrixCell("adversarial", 8, "ortools_like", 1, 2),
    )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_cells_answers_with_stored_runs(self, workers):
        runs = run_cells(self.CELLS, workers=workers)
        assert [type(r) for r in runs] == [StoredRun] * len(self.CELLS)
        # Dataclass equality: every field, the columns below included.
        assert runs == [StoredRun.from_run(cell_run(c)) for c in self.CELLS]
        llm, disrupted, planner = runs
        assert llm.overhead is not None and llm.overhead["n_calls"] > 0
        assert disrupted.disruption is not None
        assert disrupted.disruption["n_preemptions"] > 0
        assert planner.overhead is None and planner.disruption is None


class TestStoreStreaming:
    def test_every_cell_lands_in_store(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        runs = run_matrix_parallel(
            SCENARIOS, SIZES, SCHEDULERS, workers=2, store=store
        )
        stored = store.load()
        assert {r.key for r in stored} == {r.key for r in runs}
        # Persisted metrics equal the in-memory ones.
        by_key = {s.key: s for s in stored}
        for run in runs:
            assert by_key[run.key].metrics == run.metrics

    def test_store_accepts_plain_path(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        run_matrix_parallel(
            SCENARIOS[:1], SIZES, SCHEDULERS[:1], workers=1, store=path
        )
        assert len(RunStore(path)) == 1


class TestResume:
    def test_resume_skips_completed_cells(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        first = run_matrix_parallel(
            SCENARIOS[:1], SIZES, SCHEDULERS, workers=1, store=store
        )
        assert len(first) == 2

        # Re-run over a superset: only the new scenario's cells execute.
        second = run_matrix_parallel(
            SCENARIOS, SIZES, SCHEDULERS, workers=1, store=store, resume=True
        )
        assert [(r.scenario, r.scheduler) for r in second] == [
            ("resource_sparse", "fcfs"),
            ("resource_sparse", "sjf"),
        ]
        assert len(store.load()) == 4

        # Fully-resumed sweep executes nothing and appends nothing.
        third = run_matrix_parallel(
            SCENARIOS, SIZES, SCHEDULERS, workers=2, store=store, resume=True
        )
        assert third == []
        assert len(store.load()) == 4

    def test_resumed_cells_match_fresh_metrics(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        run_matrix_parallel(
            SCENARIOS[:1], SIZES, SCHEDULERS, workers=1, store=store
        )
        run_matrix_parallel(
            SCENARIOS, SIZES, SCHEDULERS, workers=1, store=store, resume=True
        )
        fresh = run_matrix(SCENARIOS, SIZES, SCHEDULERS)
        persisted = {s.key: s.metrics for s in store.load()}
        for run in fresh:
            assert persisted[StoredRun.from_run(run).key] == run.values

    def test_resume_requires_store(self):
        with pytest.raises(ValueError, match="store"):
            run_cells([MatrixCell("adversarial", 5, "fcfs")], resume=True)

    def test_resume_does_not_cover_other_arrival_mode(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        run_matrix_parallel(
            SCENARIOS[:1], SIZES, SCHEDULERS[:1], workers=1,
            store=store, arrival_mode="zero",
        )
        # Same matrix under scenario arrivals is a different experiment
        # and must execute despite resume.
        again = run_matrix_parallel(
            SCENARIOS[:1], SIZES, SCHEDULERS[:1], workers=1,
            store=store, resume=True,
        )
        assert len(again) == 1
        assert len(store.load()) == 2


class TestFailingCell:
    def test_failure_persists_completed_cells_and_raises(
        self, tmp_path, broken_scheduler
    ):
        store = RunStore(tmp_path / "runs.jsonl")
        cells = [
            MatrixCell("adversarial", 8, "fcfs"),
            MatrixCell("adversarial", 8, broken_scheduler),
        ]
        with pytest.raises(Exception, match="broken"):
            run_cells(cells, workers=2, store=store)
        # The good cell — finished or in flight at failure time — is
        # persisted, not silently discarded.
        assert {s.scheduler for s in store.load()} == {"fcfs"}

    def test_inline_failure_keeps_earlier_cells(
        self, tmp_path, broken_scheduler
    ):
        store = RunStore(tmp_path / "runs.jsonl")
        cells = [
            MatrixCell("adversarial", 8, "fcfs"),
            MatrixCell("adversarial", 8, broken_scheduler),
        ]
        with pytest.raises(Exception, match="broken"):
            run_cells(cells, workers=1, store=store)
        assert len(store.load()) == 1


class TestRetryPolicy:
    def test_invalid_on_cell_failure_rejected(self):
        with pytest.raises(ValueError, match="on_cell_failure"):
            run_cells(
                [MatrixCell("adversarial", 5, "fcfs")],
                workers=1, on_cell_failure="explode",
            )

    def test_abort_error_reports_attempt_count(self, broken_scheduler):
        cells = [MatrixCell("adversarial", 8, broken_scheduler)]
        with pytest.raises(
            CellFailedError, match=r"after 1 attempt\(s\)"
        ):
            run_cells(cells, workers=1, max_retries=0)
        with pytest.raises(
            CellFailedError, match=r"after 3 attempt\(s\)"
        ):
            run_cells(cells, workers=1, max_retries=2, retry_backoff_s=0.0)

    def test_quarantine_mode_finishes_healthy_cells(
        self, tmp_path, broken_scheduler
    ):
        store = RunStore(tmp_path / "runs.jsonl")
        cells = [
            MatrixCell("adversarial", 8, "fcfs"),
            MatrixCell("adversarial", 8, broken_scheduler),
            MatrixCell("adversarial", 8, "sjf"),
        ]
        failures = []
        runs = run_cells(
            cells, workers=1, store=store,
            max_retries=1, retry_backoff_s=0.0,
            on_cell_failure="quarantine", failures=failures,
        )
        assert [r.scheduler for r in runs] == ["fcfs", "sjf"]
        assert len(failures) == 1
        fc = failures[0]
        assert fc.kind == "exception"
        assert fc.attempts == 2
        assert broken_scheduler in fc.key
        assert fc.traceback_tail  # enough context to diagnose
        # The quarantined cell never pollutes the store, and the
        # sidecar record survives a reload.
        assert {s.scheduler for s in store.load()} == {"fcfs", "sjf"}
        sidecar = FailureSidecar.for_store(store)
        assert [f.key for f in sidecar.load()] == [fc.key]


class TestInterruptAccounting:
    def test_inline_interrupt_reports_counts(self, monkeypatch):
        import repro.experiments.parallel as parallel_mod

        cells = expand_cells(SCENARIOS, (6,), SCHEDULERS)
        real = parallel_mod._execute_cell
        state = {"n": 0}

        def interrupting(cell, attempt=1):
            state["n"] += 1
            if state["n"] == 3:
                raise KeyboardInterrupt
            return real(cell, attempt)

        monkeypatch.setattr(parallel_mod, "_execute_cell", interrupting)
        with pytest.raises(
            SweepInterrupted,
            match=r"2 cell\(s\) completed \(0 salvaged\), 2 cancelled",
        ):
            run_cells(cells, workers=1)

    def test_pooled_interrupt_salvages_with_consistent_accounting(
        self, tmp_path
    ):
        cells = expand_cells(SCENARIOS, (6,), SCHEDULERS)
        store = RunStore(tmp_path / "runs.jsonl")
        calls = []
        state = {"raised": False}

        def progress(cell, completed, total):
            calls.append((completed, total))
            if not state["raised"]:
                state["raised"] = True
                raise KeyboardInterrupt

        with pytest.raises(SweepInterrupted) as excinfo:
            run_cells(cells, workers=2, store=store, progress=progress)

        message = str(excinfo.value)
        m = re.fullmatch(
            r"sweep interrupted: (\d+) cell\(s\) completed "
            r"\((\d+) salvaged after interrupt\), (\d+) cancelled",
            message,
        )
        assert m, message
        completed, salvaged, cancelled = map(int, m.groups())
        # The books balance: every cell is completed or cancelled,
        # at least one finished before the interrupt and at least one
        # never ran.
        assert completed + cancelled == len(cells)
        assert completed >= 1
        assert salvaged == completed - 1
        assert cancelled >= 1
        # Everything reported completed is durably in the store.
        assert len(store.load()) == completed
        # Progress stayed consistent through the salvage phase:
        # monotonically increasing completed, constant total.
        assert [c for c, _ in calls] == list(range(1, completed + 1))
        assert {t for _, t in calls} == {len(cells)}
