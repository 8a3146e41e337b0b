"""The sweep owns its workers: one lost worker costs one cell.

A hang or a worker death is charged to the cell it happened to; the
cell running beside it is never executed twice, a one-cell sweep still
has a watchdog, a failure record still names the line that died in the
worker, and no child process outlives ``run_cells`` — however it ends.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from collections import Counter

import pytest

import repro.experiments.parallel as parallel_mod
from repro.experiments.parallel import (
    CellFailedError,
    MatrixCell,
    SweepInterrupted,
    expand_cells,
    run_cells,
)
from repro.experiments.store import FailedCell, cell_key_str
from tests.tooling.faults import FaultPlan, FaultRule, install

K_VICTIM = "adversarial|6|fcfs|0|0|scenario|none|flat"
K_QUICK = "adversarial|6|sjf|0|0|scenario|none|flat"
K_NEIGHBOUR = "resource_sparse|6|fcfs|0|0|scenario|none|flat"

EXECUTION_LOG = "REPRO_TEST_EXECUTION_LOG"
_REAL_EXECUTE = parallel_mod._execute_cell


def _logging_execute(cell, attempt=1):
    """Module-level (a closure would not survive a pickle): append the
    cell's key to the log the moment an execution *starts*, so an
    execution that is killed half-way still counts."""
    with open(os.environ[EXECUTION_LOG], "a") as log:
        log.write(cell_key_str(cell.key) + "\n")
    return _REAL_EXECUTE(cell, attempt)


@pytest.fixture
def executions(tmp_path, monkeypatch):
    """Count how often each cell's execution started, across workers."""
    log = tmp_path / "executions.log"
    log.touch()
    monkeypatch.setenv(EXECUTION_LOG, str(log))
    monkeypatch.setattr(parallel_mod, "_execute_cell", _logging_execute)
    return lambda: Counter(log.read_text().split())


def _cells():
    return expand_cells(("adversarial", "resource_sparse"), (6,), ("fcfs", "sjf"))


class TestNeighboursRunOnce:
    def test_a_killed_hang_does_not_rerun_the_cell_beside_it(
        self, executions
    ):
        # Victim and quick start together; the neighbour takes quick's
        # worker at ~1 s and is mid-flight (until ~2.6 s, inside its own
        # deadline of ~3 s) when the watchdog kills the victim at 2 s.
        install(FaultPlan(rules=(
            FaultRule(kind="hang", hang_s=60.0, match=K_VICTIM),
            FaultRule(kind="latency", skew_s=1.0, match=K_QUICK),
            FaultRule(kind="latency", skew_s=1.6, match=K_NEIGHBOUR),
        )))
        failures: list[FailedCell] = []
        runs = run_cells(
            _cells()[:3], workers=2, cell_timeout=2.0, retry_backoff_s=0.0,
            on_cell_failure="quarantine", failures=failures,
        )
        assert len(runs) == 3 and not failures
        assert executions() == {K_VICTIM: 2, K_QUICK: 1, K_NEIGHBOUR: 1}

    def test_a_dead_worker_does_not_rerun_the_cell_beside_it(
        self, executions
    ):
        # The victim's worker dies (os._exit) at 0.4 s while the
        # neighbour, started with it, is in flight until 1.2 s.
        install(FaultPlan(rules=(
            FaultRule(kind="latency", skew_s=0.4, match=K_VICTIM),
            FaultRule(kind="crash", mode="exit", match=K_VICTIM),
            FaultRule(kind="latency", skew_s=1.2, match=K_NEIGHBOUR),
        )))
        cells = [c for c in _cells() if cell_key_str(c.key) != K_QUICK][:2]
        runs = run_cells(cells, workers=2, retry_backoff_s=0.0)
        assert len(runs) == 2
        assert executions() == {K_VICTIM: 2, K_NEIGHBOUR: 1}

    def test_a_dead_worker_is_charged_as_pool_crash(self):
        install(FaultPlan(rules=(
            FaultRule(
                kind="crash", mode="exit", match=K_VICTIM, max_attempt=99
            ),
        )))
        failures: list[FailedCell] = []
        runs = run_cells(
            _cells(), workers=2, max_retries=1, retry_backoff_s=0.0,
            on_cell_failure="quarantine", failures=failures,
        )
        assert len(runs) == 3
        assert [(f.kind, f.error_type, f.attempts) for f in failures] == [
            ("pool-crash", "WorkerLost", 2)
        ]


class TestOneCellSweepHasAWatchdog:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_single_hung_cell_is_quarantined_as_timeout(self, workers):
        install(FaultPlan(rules=(
            FaultRule(kind="hang", hang_s=6.0, max_attempt=99),
        )))
        failures: list[FailedCell] = []
        t0 = time.monotonic()
        runs = run_cells(
            _cells()[:1], workers=workers, cell_timeout=1.0, max_retries=0,
            on_cell_failure="quarantine", failures=failures,
        )
        assert time.monotonic() - t0 < 4.0  # not the 6 s hang
        assert runs == []
        assert [(f.kind, f.error_type) for f in failures] == [
            ("timeout", "TimeoutError")
        ]

    def test_without_a_timeout_one_worker_still_runs_in_process(
        self, monkeypatch
    ):
        pids = []
        monkeypatch.setattr(
            parallel_mod, "_execute_cell",
            lambda cell, attempt=1: pids.append(os.getpid())
            or _REAL_EXECUTE(cell, attempt),
        )
        run_cells(_cells()[:2], workers=1)
        run_cells(_cells()[:1], workers=2)
        assert pids == [os.getpid()] * 3


class TestRemoteTraceback:
    def test_failure_record_names_the_line_in_the_worker(
        self, broken_scheduler
    ):
        failures: list[FailedCell] = []
        run_cells(
            [
                MatrixCell("adversarial", 6, "fcfs"),
                MatrixCell("adversarial", 6, broken_scheduler),
            ],
            workers=2, max_retries=0,
            on_cell_failure="quarantine", failures=failures,
        )
        (failure,) = failures
        assert failure.kind == "exception"
        assert "broken scheduler cannot be built" in failure.message
        tail = failure.traceback_tail
        assert "in _execute_cell" in tail and "runner.py" in tail
        assert tail.splitlines()[-1].startswith(failure.error_type)


class TestNoChildSurvives:
    @pytest.fixture(autouse=True)
    def _children(self):
        before = set(multiprocessing.active_children())
        yield
        assert set(multiprocessing.active_children()) <= before

    def test_on_the_normal_exit(self):
        assert len(run_cells(_cells(), workers=2)) == 4

    def test_when_a_cell_aborts_the_sweep(self):
        install(FaultPlan(rules=(
            FaultRule(kind="crash", match=K_QUICK, max_attempt=99),
        )))
        with pytest.raises(CellFailedError, match="salvaged after"):
            run_cells(_cells(), workers=2, max_retries=0)

    def test_when_a_hung_cell_aborts_the_sweep(self):
        install(FaultPlan(rules=(
            FaultRule(kind="hang", hang_s=60.0, match=K_QUICK),
        )))
        with pytest.raises(CellFailedError, match=r"\(timeout\)"):
            run_cells(_cells(), workers=2, cell_timeout=1.0, max_retries=0)

    def test_on_ctrl_c(self):
        def progress(cell, completed, total):
            if completed == 1:
                raise KeyboardInterrupt

        with pytest.raises(SweepInterrupted):
            run_cells(_cells(), workers=2, progress=progress)

    def test_when_the_parent_is_killed_outright(self, tmp_path):
        # Under fork a worker holds a copy of the parent's end of its
        # own pipe; unless it closes it, a SIGKILLed sweep leaves its
        # workers blocked on recv() for ever. Forked workers share the
        # parent's command line, so a marker argument finds them.
        marker = f"orphan-check-{os.getpid()}-{time.monotonic_ns()}"
        script = (
            "from repro.experiments.parallel import expand_cells, run_cells\n"
            "from tests.tooling.faults import FaultPlan, FaultRule, install\n"
            "install(FaultPlan(rules=(FaultRule(kind='latency', skew_s=1.0),)))\n"
            "run_cells(expand_cells(('adversarial',), (6,), "
            "('fcfs', 'sjf'), workload_seeds=(0, 1)), workers=3)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        sweep = subprocess.Popen([sys.executable, "-c", script, marker], env=env)

        def alive():
            pids = []
            for entry in os.listdir("/proc"):
                try:
                    with open(f"/proc/{entry}/cmdline", "rb") as fh:
                        if marker.encode() in fh.read():
                            pids.append(int(entry))
                except (OSError, ValueError):
                    continue
            return pids

        deadline = time.monotonic() + 10.0
        while len(alive()) < 4 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(alive()) == 4  # the sweep and its three workers
        sweep.send_signal(signal.SIGKILL)
        sweep.wait()
        while alive() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert alive() == []
