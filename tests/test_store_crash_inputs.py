"""A crash is an input — the two places the store did not treat it so.

1. A directory that is not a sharded store is not a store: the
   commands that read or repair an archive refuse it and write
   nothing (``store doctor`` used to "rebuild" a manifest inside any
   directory it was pointed at).
2. A failure sidecar whose last record was torn by a kill mid-append
   stays readable and appendable, by the same tail repair the run
   archive uses.
"""

import pytest

from repro.experiments import faultinject
from repro.experiments import store as store_mod
from repro.experiments.cli import main
from repro.experiments.faultinject import FaultPlan, FaultRule
from repro.experiments.storage import ShardedStore, is_sharded_store
from repro.experiments.store import (
    FailedCell,
    FailureSidecar,
    RunStore,
    StoredRun,
    cell_key,
)


def listing(path):
    return sorted(
        (str(p.relative_to(path)), p.read_bytes() if p.is_file() else None)
        for p in path.rglob("*")
    )


# -- 1. a directory is a store only when it holds one -------------------------


@pytest.fixture(params=["stray-file", "empty"])
def not_a_store(request, tmp_path):
    directory = tmp_path / "some_dir"
    directory.mkdir()
    if request.param == "stray-file":
        (directory / "notes.txt").write_text("not a shard\n")
    return directory


@pytest.mark.parametrize(
    "argv",
    [
        ["store", "doctor"],
        ["store", "doctor", "--dry-run"],
        ["store", "digest"],
        ["report", "--store"],
        ["matrix", "--retry-failed"],
    ],
    ids=["doctor", "doctor-dry-run", "digest", "report", "retry-failed"],
)
def test_readers_refuse_a_directory_that_is_not_a_store(
    argv, not_a_store, capsys
):
    before = listing(not_a_store)
    assert main(argv + [str(not_a_store)]) == 2
    assert f"error: no store at {not_a_store}" in capsys.readouterr().err
    assert listing(not_a_store) == before


def test_empty_directory_is_still_a_destination(tmp_path, capsys):
    out = tmp_path / "fresh.store"
    out.mkdir()
    rc = main([
        "matrix", "--scenarios", "adversarial", "--sizes", "8",
        "--schedulers", "fcfs", "--workers", "1",
        "--out", str(out), "--store-format", "sharded", "--shards", "2",
    ])
    assert rc == 0
    assert is_sharded_store(out)
    assert len(ShardedStore(out)) == 1
    # ... and now that it is a store, the readers take it.
    assert main(["store", "doctor", str(out)]) == 0
    # migrate's destination may be an empty directory too.
    flat = tmp_path / "flat.jsonl"
    assert main(["store", "migrate", str(out), str(flat)]) == 0
    again = tmp_path / "again.store"
    again.mkdir()
    assert main(["store", "migrate", str(flat), str(again)]) == 0
    assert is_sharded_store(again)


# -- 2. a torn sidecar tail is repaired, not permanent ------------------------


def failed(scheduler="sjf", attempts=1):
    return FailedCell(
        key=cell_key("adversarial", 8, scheduler, 0, 0),
        kind="exception",
        error_type="RuntimeError",
        message="boom",
        traceback_tail="",
        attempts=attempts,
    )


class TestTornSidecarTail:
    def test_fragment_is_dropped_and_next_append_lands_on_its_own_line(
        self, tmp_path
    ):
        sidecar = FailureSidecar(tmp_path / "runs.jsonl.failures")
        sidecar.append(failed("fcfs"))
        with sidecar.path.open("a", encoding="utf-8") as fh:
            fh.write(failed("sjf").to_json()[:40])  # killed mid-append
        assert [r.key[2] for r in sidecar.load()] == ["fcfs"]
        sidecar.append(failed("easy"))
        assert [r.key[2] for r in sidecar.load()] == ["fcfs", "easy"]
        assert sidecar.path.read_text("utf-8").count("\n") == 2

    def test_complete_record_missing_only_its_newline_is_kept(self, tmp_path):
        sidecar = FailureSidecar(tmp_path / "runs.jsonl.failures")
        sidecar.path.write_text(failed("fcfs").to_json(), encoding="utf-8")
        sidecar.append(failed("sjf"))
        assert [r.key[2] for r in sidecar.load()] == ["fcfs", "sjf"]

    def test_interior_damage_still_raises(self, tmp_path):
        sidecar = FailureSidecar(tmp_path / "runs.jsonl.failures")
        sidecar.path.write_text(
            failed("fcfs").to_json()[:40] + "\n" + failed("sjf").to_json() + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError):
            sidecar.load()
        # A newline-terminated bad *last* line is damage too, not a tear.
        sidecar.path.write_text("{not json}\n", encoding="utf-8")
        with pytest.raises(ValueError):
            sidecar.load()

    def test_both_appends_share_one_tail_repair(self, tmp_path, monkeypatch):
        calls = []
        real = store_mod._repair_tail

        def spy(path, parse):
            calls.append((path.name, parse))
            return real(path, parse)

        monkeypatch.setattr(store_mod, "_repair_tail", spy)
        FailureSidecar(tmp_path / "f.failures").append(failed())
        RunStore(tmp_path / "runs.jsonl").append(
            StoredRun("adversarial", 8, "fcfs", 0, 0, metrics={"m": 1.0})
        )
        assert calls == [
            ("f.failures", FailedCell.from_json),
            ("runs.jsonl", StoredRun.from_json),
        ]
        assert not hasattr(RunStore, "_repair_tail")

    def test_prune_compacts_to_last_record_per_cell(self, tmp_path):
        sidecar = FailureSidecar(tmp_path / "runs.jsonl.failures")
        for record in (failed("sjf", 1), failed("easy", 1), failed("sjf", 2)):
            sidecar.append(record)
        assert sidecar.prune(set()) == 1
        assert [(r.key[2], r.attempts) for r in sidecar.load()] == [
            ("sjf", 2), ("easy", 1),
        ]
        assert not list(tmp_path.glob("*.tmp"))

    def test_sidecar_holding_only_a_fragment_has_nothing_to_retry(
        self, tmp_path, capsys
    ):
        store = tmp_path / "runs.jsonl"
        sidecar = FailureSidecar(RunStore(store).sidecar_path)
        sidecar.path.write_text(failed().to_json()[:40], encoding="utf-8")
        assert main(["matrix", "--retry-failed", str(store)]) == 0
        assert "nothing to retry" in capsys.readouterr().out

    def test_retry_failed_runs_over_a_torn_sidecar(self, tmp_path, capsys):
        """Chaos-style: quarantine a cell, tear the sidecar as a kill
        mid-append would, and the retry still recovers the cell."""
        store = tmp_path / "runs.jsonl"
        faultinject.install(
            FaultPlan(
                seed=0,
                rules=(FaultRule(kind="crash", match="|sjf|", max_attempt=99),),
            )
        )
        try:
            rc = main([
                "matrix", "--scenarios", "adversarial", "--sizes", "8",
                "--schedulers", "fcfs", "sjf", "--workers", "1",
                "--out", str(store), "--max-retries", "0",
                "--on-cell-failure", "quarantine",
            ])
        finally:
            faultinject.install(None)
        assert rc == 3
        sidecar = FailureSidecar(RunStore(store).sidecar_path)
        with sidecar.path.open("a", encoding="utf-8") as fh:
            fh.write(sidecar.load()[0].to_json()[:40])
        capsys.readouterr()
        assert main(["matrix", "--retry-failed", str(store), "--workers", "1"]) == 0
        assert "recovered 1/1" in capsys.readouterr().out
        assert not sidecar.path.exists()
        assert len(RunStore(store).load()) == 2
