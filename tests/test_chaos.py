"""Chaos tests: the fault-tolerant sweep engine under injected
crashes, hangs, and store corruption.

Every test asserts the same invariant from a different angle: whatever
the injected failure, the recovered store is line-identical to an
undisturbed serial run (or, for permanent failures, a clean subset of
one plus a structured quarantine record). Injection is deterministic
(see :mod:`repro.experiments.faultinject`), so these tests are not
flaky-by-design — the same cells fail on the same attempts every run.
"""

import time

import pytest

from repro.experiments import faultinject
from repro.experiments.cli import main
from repro.experiments.faultinject import FaultPlan, FaultRule, install
from repro.experiments.parallel import (
    CellFailedError,
    expand_cells,
    run_cells,
)
from repro.experiments.store import FailedCell, FailureSidecar, RunStore

SCENARIOS = ("adversarial", "resource_sparse")
SIZES = (6,)
SCHEDULERS = ("fcfs", "sjf")

# Canonical key strings of the four cells, in sweep order.
K_ADV_FCFS = "adversarial|6|fcfs|0|0|scenario|none|flat"
K_ADV_SJF = "adversarial|6|sjf|0|0|scenario|none|flat"
K_RS_FCFS = "resource_sparse|6|fcfs|0|0|scenario|none|flat"
K_RS_SJF = "resource_sparse|6|sjf|0|0|scenario|none|flat"


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv(faultinject.ENV_VAR, raising=False)
    install(None)
    yield
    install(None)


def _cells():
    return expand_cells(SCENARIOS, SIZES, SCHEDULERS)


def _lines(path):
    return sorted(path.read_text().strip().splitlines())


@pytest.fixture(scope="module")
def reference_lines(tmp_path_factory):
    """Store lines from an undisturbed serial sweep — ground truth."""
    install(None)
    path = tmp_path_factory.mktemp("ref") / "ref.jsonl"
    run_cells(_cells(), workers=1, store=path)
    return _lines(path)


class TestCrashRecovery:
    def test_raise_mode_crashes_are_retried_to_identical_store(
        self, tmp_path, reference_lines
    ):
        install(FaultPlan(rules=(FaultRule(kind="crash", match="|sjf|"),)))
        store = tmp_path / "runs.jsonl"
        runs = run_cells(
            _cells(), workers=2, store=store, retry_backoff_s=0.0
        )
        assert len(runs) == 4
        assert _lines(store) == reference_lines

    def test_exit_mode_pool_break_is_survived(
        self, tmp_path, reference_lines
    ):
        # os._exit kills one worker without a goodbye (OOM-kill model);
        # the engine must replace it and retry that one cell.
        install(
            FaultPlan(
                rules=(
                    FaultRule(kind="crash", mode="exit", match=K_ADV_SJF),
                )
            )
        )
        store = tmp_path / "runs.jsonl"
        runs = run_cells(
            _cells(), workers=2, store=store, retry_backoff_s=0.0
        )
        assert len(runs) == 4
        assert _lines(store) == reference_lines

    def test_retried_cells_are_bit_identical(
        self, tmp_path, reference_lines
    ):
        # Injure the first attempt of EVERY cell: the entire sweep is
        # produced by retries, and must still match ground truth.
        install(FaultPlan(rules=(FaultRule(kind="crash"),)))
        store = tmp_path / "runs.jsonl"
        run_cells(
            _cells(), workers=1, store=store,
            max_retries=1, retry_backoff_s=0.0,
        )
        assert _lines(store) == reference_lines


class TestWatchdog:
    def test_hung_worker_is_killed_and_cell_rescheduled(
        self, tmp_path, reference_lines
    ):
        install(
            FaultPlan(
                rules=(
                    FaultRule(kind="hang", hang_s=60.0, match=K_RS_FCFS),
                )
            )
        )
        store = tmp_path / "runs.jsonl"
        t0 = time.monotonic()
        runs = run_cells(
            _cells(), workers=2, store=store,
            cell_timeout=1.0, retry_backoff_s=0.0,
        )
        elapsed = time.monotonic() - t0
        assert len(runs) == 4
        assert elapsed < 30.0  # nowhere near the 60 s hang
        assert _lines(store) == reference_lines


class TestStoreFaults:
    def test_torn_tail_write_is_recovered_by_resume(
        self, tmp_path, reference_lines
    ):
        # Tear the LAST cell's line (workers=1 writes in sweep order),
        # modeling a process killed mid-append.
        install(
            FaultPlan(rules=(FaultRule(kind="torn_write", match=K_RS_SJF),))
        )
        store_path = tmp_path / "runs.jsonl"
        run_cells(_cells(), workers=1, store=store_path)
        store = RunStore(store_path)
        assert len(store.load()) == 3  # truncated tail tolerated
        install(None)  # the "restarted" process has no injection
        runs = run_cells(_cells(), workers=1, store=store, resume=True)
        assert len(runs) == 1  # only the torn cell re-ran
        assert _lines(store_path) == reference_lines

    def test_interior_corruption_doctor_then_resume(
        self, tmp_path, reference_lines
    ):
        # Corrupt the FIRST cell's line: interior damage once the other
        # three lines land after it.
        install(
            FaultPlan(
                rules=(FaultRule(kind="corrupt_write", match=K_ADV_FCFS),)
            )
        )
        store_path = tmp_path / "runs.jsonl"
        run_cells(_cells(), workers=1, store=store_path)
        store = RunStore(store_path)
        with pytest.raises(ValueError, match="store doctor"):
            store.load()
        assert len(store.load(on_corrupt="quarantine")) == 3
        report = store.doctor()
        assert (report.n_kept, report.n_quarantined) == (3, 1)
        assert store.quarantine_path.exists()
        install(None)
        runs = run_cells(_cells(), workers=1, store=store, resume=True)
        assert len(runs) == 1
        assert _lines(store_path) == reference_lines


class TestGracefulDegradation:
    def _permafail_plan(self):
        # max_attempt high enough that every retry fails too.
        return FaultPlan(
            rules=(
                FaultRule(kind="crash", match=K_RS_FCFS, max_attempt=99),
            )
        )

    def test_quarantine_mode_completes_the_rest(
        self, tmp_path, reference_lines
    ):
        install(self._permafail_plan())
        store_path = tmp_path / "runs.jsonl"
        failures: list[FailedCell] = []
        runs = run_cells(
            _cells(), workers=1, store=store_path,
            max_retries=1, retry_backoff_s=0.0,
            on_cell_failure="quarantine", failures=failures,
        )
        assert len(runs) == 3
        assert len(failures) == 1
        fc = failures[0]
        assert fc.kind == "exception"
        assert fc.error_type == "InjectedCrash"
        assert fc.attempts == 2  # first try + one retry
        assert "injected worker crash" in fc.message
        assert fc.label == "resource_sparse/6/fcfs w0 s0"
        # Sidecar holds the same record, and the store holds only the
        # healthy cells — a strict subset of ground truth.
        sidecar = FailureSidecar.for_store(RunStore(store_path))
        loaded = sidecar.load()
        assert len(loaded) == 1
        assert loaded[0].key == fc.key
        assert set(_lines(store_path)) < set(reference_lines)

    def test_abort_mode_raises_with_attempt_count(self, tmp_path):
        install(self._permafail_plan())
        with pytest.raises(CellFailedError, match=r"after 1 attempt"):
            run_cells(
                _cells(), workers=1, store=tmp_path / "runs.jsonl",
                max_retries=0,
            )

    def test_pooled_abort_reports_completion_counts(self, tmp_path):
        install(self._permafail_plan())
        with pytest.raises(CellFailedError, match=r"cell\(s\) completed"):
            run_cells(
                _cells(), workers=2, store=tmp_path / "runs.jsonl",
                max_retries=0, retry_backoff_s=0.0,
            )


class TestZeroInjectionDefault:
    def test_no_plan_means_byte_identical_pooled_sweep(
        self, tmp_path, reference_lines
    ):
        store = tmp_path / "runs.jsonl"
        runs = run_cells(
            _cells(), workers=2, store=store,
            cell_timeout=120.0, retry_backoff_s=0.0,
        )
        assert len(runs) == 4
        assert _lines(store) == reference_lines


class TestChaosCLI:
    ARGV = [
        "matrix", "--scenarios", "adversarial", "resource_sparse",
        "--sizes", "6", "--schedulers", "fcfs", "sjf", "--workers", "1",
        "--max-retries", "1", "--retry-backoff", "0",
    ]

    def test_quarantine_exit_code_and_summary(self, tmp_path, capsys):
        install(
            FaultPlan(
                rules=(
                    FaultRule(kind="crash", match=K_RS_FCFS, max_attempt=99),
                )
            )
        )
        store = tmp_path / "runs.jsonl"
        rc = main(
            self.ARGV
            + ["--out", str(store), "--on-cell-failure", "quarantine"]
        )
        err = capsys.readouterr().err
        assert rc == 3
        assert "1 cell(s) quarantined after exhausting retries" in err
        assert "resource_sparse/6/fcfs w0 s0" in err
        assert "InjectedCrash" in err
        assert str(store) + ".failures" in err

    def test_abort_exit_code_and_resume_hint(self, tmp_path, capsys):
        install(
            FaultPlan(
                rules=(
                    FaultRule(kind="crash", match=K_RS_FCFS, max_attempt=99),
                )
            )
        )
        store = tmp_path / "runs.jsonl"
        rc = main(self.ARGV + ["--out", str(store)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "sweep aborted" in err
        assert "--resume" in err

    def test_doctor_salvages_corrupted_store(self, tmp_path, capsys):
        install(
            FaultPlan(
                rules=(FaultRule(kind="corrupt_write", match=K_ADV_FCFS),)
            )
        )
        store = tmp_path / "runs.jsonl"
        rc = main(self.ARGV + ["--out", str(store)])
        assert rc == 0  # the sweep itself succeeds; the damage is on disk
        install(None)
        rc = main(["store", "doctor", str(store)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "moved 1 unparseable line(s)" in out
        quarantine = tmp_path / "runs.jsonl.quarantine"
        assert quarantine.read_text().startswith("L1\t#CORRUPT#")
        # Resume completes the sweep on the doctored store.
        rc = main(self.ARGV + ["--out", str(store), "--resume"])
        assert rc == 0
        assert len(RunStore(store).load()) == 4
