"""Tests for the parallel experiment engine: determinism, streaming
artifacts, and resume."""

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
from repro.experiments.runner import run_single
from repro.experiments.store import FailureSidecar, RunStore
from repro.schedulers.registry import available_schedulers

from tests.runner_reference import run_matrix

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
        assert run.key == cell.key

    def test_arrival_mode_is_part_of_cell_identity(self):
        scenario_cell = MatrixCell("adversarial", 10, "fcfs")
        zero_cell = MatrixCell("adversarial", 10, "fcfs", arrival_mode="zero")
        assert scenario_cell.key != zero_cell.key


class TestResolveWorkers:
    def test_defaults_to_cpu_count(self):
        assert resolve_workers(None) >= 1

    def test_clamps_to_at_least_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1
        assert resolve_workers(3) == 3


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
            assert s.values == p.values

    def test_worker_count_does_not_change_results(self):
        one = run_matrix_parallel(SCENARIOS, SIZES, SCHEDULERS, workers=1)
        two = run_matrix_parallel(SCENARIOS, SIZES, SCHEDULERS, workers=2)
        assert [r.values for r in one] == [r.values for r in two]


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
            assert by_key[run.key].metrics == run.values

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
            assert persisted[run.key] == run.values

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
    def test_failure_persists_completed_cells_and_raises(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        cells = [
            MatrixCell("adversarial", 8, "fcfs"),
            MatrixCell("adversarial", 8, "no-such-scheduler"),
        ]
        with pytest.raises(Exception, match="no-such-scheduler"):
            run_cells(cells, workers=2, store=store)
        # The good cell — finished or in flight at failure time — is
        # persisted, not silently discarded.
        assert {s.scheduler for s in store.load()} == {"fcfs"}

    def test_inline_failure_keeps_earlier_cells(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        cells = [
            MatrixCell("adversarial", 8, "fcfs"),
            MatrixCell("adversarial", 8, "no-such-scheduler"),
        ]
        with pytest.raises(Exception, match="no-such-scheduler"):
            run_cells(cells, workers=1, store=store)
        assert len(store.load()) == 1


class TestRetryPolicy:
    def test_invalid_on_cell_failure_rejected(self):
        with pytest.raises(ValueError, match="on_cell_failure"):
            run_cells(
                [MatrixCell("adversarial", 5, "fcfs")],
                workers=1, on_cell_failure="explode",
            )

    def test_abort_error_reports_attempt_count(self):
        cells = [MatrixCell("adversarial", 8, "no-such-scheduler")]
        with pytest.raises(
            CellFailedError, match=r"after 1 attempt\(s\)"
        ):
            run_cells(cells, workers=1, max_retries=0)
        with pytest.raises(
            CellFailedError, match=r"after 3 attempt\(s\)"
        ):
            run_cells(cells, workers=1, max_retries=2, retry_backoff_s=0.0)

    def test_quarantine_mode_finishes_healthy_cells(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        cells = [
            MatrixCell("adversarial", 8, "fcfs"),
            MatrixCell("adversarial", 8, "no-such-scheduler"),
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
        assert "no-such-scheduler" in str(fc.key)
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
