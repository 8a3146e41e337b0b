"""``repro-sched matrix --retry-failed``: re-run quarantined cells.

Uses the deterministic fault injector (programmatic ``install``) to
quarantine a cell, then drives the real CLI entry point both ways:
fault cleared (the cell recovers, lands in the store, and the sidecar
is pruned away) and fault persisting (exit 3, sidecar compacted).
Recovery is checked for *identity*, not just presence: the recovered
store equals a store produced by a clean sweep, cell for cell.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.experiments import faultinject
from repro.experiments.cli import main
from repro.experiments.faultinject import FaultPlan, FaultRule
from repro.experiments.parallel import MatrixCell
from repro.experiments.store import (
    FailedCell,
    FailureSidecar,
    RunStore,
    cell_key,
)


@pytest.fixture(autouse=True)
def clean_faults():
    faultinject.install(None)
    yield
    faultinject.install(None)


def sweep_args(store, max_retries=0):
    # Two tiny cells; the injected crash matches only the sjf one.
    return [
        "matrix",
        "--scenarios",
        "adversarial",
        "--sizes",
        "8",
        "--schedulers",
        "fcfs",
        "sjf",
        "--workers",
        "1",
        "--out",
        str(store),
        "--max-retries",
        str(max_retries),
        "--on-cell-failure",
        "quarantine",
    ]


SJF_CRASH = FaultPlan(
    seed=0,
    rules=(FaultRule(kind="crash", match="|sjf|", max_attempt=99),),
)


def metrics_by_key(store_path):
    return {run.key: run.metrics for run in RunStore(store_path).load()}


class TestRetryFailedRecovers:
    def test_recovered_store_equals_clean_sweep(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        reference = tmp_path / "reference.jsonl"
        # Clean reference sweep.
        assert main(sweep_args(reference)) == 0
        # Faulted sweep: the sjf cell exhausts its retries and is
        # quarantined; the fcfs cell completes.
        faultinject.install(SJF_CRASH)
        assert main(sweep_args(store)) == 3
        sidecar = FailureSidecar(store.with_name(store.name + ".failures"))
        records = sidecar.load()
        assert [r.key[2] for r in records] == ["sjf"]
        assert records[0].config is not None
        # Fault cleared: retry exactly the quarantined cell.
        faultinject.install(None)
        capsys.readouterr()
        rc = main(["matrix", "--retry-failed", str(store), "--workers", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recovered 1/1" in out
        assert not sidecar.path.exists()
        assert metrics_by_key(store) == metrics_by_key(reference)

    def test_still_failing_cell_keeps_compacted_sidecar(
        self, tmp_path, capsys
    ):
        store = tmp_path / "runs.jsonl"
        faultinject.install(SJF_CRASH)
        assert main(sweep_args(store)) == 3
        # Two failed attempts on record for the same cell (retry once
        # more while the fault is still active).
        rc = main(
            [
                "matrix",
                "--retry-failed",
                str(store),
                "--workers",
                "1",
                "--max-retries",
                "0",
            ]
        )
        assert rc == 3
        sidecar_path = store.with_name(store.name + ".failures")
        lines = [
            line
            for line in sidecar_path.read_text().splitlines()
            if line.strip()
        ]
        # Compacted: one record per still-failing cell, last attempt
        # wins — not an ever-growing append log.
        assert len(lines) == 1
        failed = FailedCell.from_json(lines[0])
        assert failed.key[2] == "sjf"
        assert failed.config is not None


#: A sidecar exactly as ``matrix --engine object --on-cell-failure
#: quarantine`` wrote it at f8eab45 (PR 11): its config still carries
#: the since-retired ``"engine"`` key.
PR11_SIDECAR = Path(__file__).parent / "data" / "pr11_runs.jsonl.failures"


class TestLegacyEngineKey:
    def test_pr11_sidecar_config_loads_to_the_same_cell(self):
        (record,) = FailureSidecar(PR11_SIDECAR).load()
        assert record.config["engine"] == "object"
        cell = MatrixCell.from_config(record.config)
        assert cell.key == record.key
        assert "engine" not in cell.to_config()
        for engine in ("soa", "bogus", None):
            assert MatrixCell.from_config(
                {**cell.to_config(), "engine": engine}
            ) == cell

    def test_pr11_sidecar_retries_to_the_clean_sweep(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        reference = tmp_path / "reference.jsonl"
        assert main(sweep_args(reference)) == 0
        shutil.copy(PR11_SIDECAR, store.with_name(store.name + ".failures"))
        capsys.readouterr()
        rc = main(["matrix", "--retry-failed", str(store), "--workers", "1"])
        assert rc == 0
        assert "recovered 1/1" in capsys.readouterr().out
        recovered = metrics_by_key(store)
        assert len(recovered) == 1
        (key,) = recovered
        assert recovered[key] == metrics_by_key(reference)[key]


class TestRetryFailedEdgeCases:
    def test_nothing_to_retry_is_success(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        assert main(sweep_args(store)) == 0
        rc = main(["matrix", "--retry-failed", str(store)])
        assert rc == 0
        assert "nothing to retry" in capsys.readouterr().out

    def test_conflicting_matrix_args_rejected(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        rc = main(
            [
                "matrix",
                "--retry-failed",
                str(store),
                "--scenarios",
                "adversarial",
            ]
        )
        assert rc == 2

    def test_matrix_without_scenarios_or_sizes_rejected(self, capsys):
        assert main(["matrix", "--sizes", "8"]) == 2
        assert main(["matrix", "--scenarios", "adversarial"]) == 2

    def test_v1_sidecar_records_cannot_be_retried(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        store.write_text("")
        sidecar = FailureSidecar(store.with_name(store.name + ".failures"))
        sidecar.append(
            FailedCell(
                key=cell_key(
                    "adversarial", 8, "sjf", 0, 0, "scenario", None, None
                ),
                kind="exception",
                error_type="RuntimeError",
                message="legacy",
                traceback_tail="",
                attempts=1,
                config=None,
                schema_version=1,
            )
        )
        rc = main(["matrix", "--retry-failed", str(store)])
        assert rc == 2
        err = capsys.readouterr()
        assert "schema" in (err.out + err.err).lower()

    def test_unreadable_sidecar_rejected(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        store.write_text("")
        sidecar_path = store.with_name(store.name + ".failures")
        sidecar_path.write_text("{not json\n")
        assert main(["matrix", "--retry-failed", str(store)]) == 2

    def test_duplicate_sidecar_records_retry_once(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        faultinject.install(SJF_CRASH)
        assert main(sweep_args(store)) == 3
        sidecar_path = store.with_name(store.name + ".failures")
        # Simulate an older retry loop that appended a second record
        # for the same cell instead of compacting.
        line = sidecar_path.read_text()
        record = json.loads(line)
        record["attempts"] += 1
        sidecar_path.write_text(line + json.dumps(record) + "\n")
        faultinject.install(None)
        capsys.readouterr()
        rc = main(["matrix", "--retry-failed", str(store), "--workers", "1"])
        assert rc == 0
        assert "recovered 1/1" in capsys.readouterr().out
        assert not sidecar_path.exists()
