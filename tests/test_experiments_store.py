"""Tests for the JSONL experiment artifact store."""

import json
from collections import Counter

import pytest

from repro.experiments import store as store_mod
from repro.experiments.runner import run_single
from repro.experiments.storage import ShardedStore
from repro.experiments.store import (
    SCHEMA_VERSION,
    FailedCell,
    FailureSidecar,
    RunStore,
    StoredRun,
    cell_key,
)


def make_stored(**overrides) -> StoredRun:
    base = dict(
        scenario="adversarial",
        n_jobs=10,
        scheduler="fcfs",
        workload_seed=0,
        scheduler_seed=0,
        metrics={"makespan": 100.0, "avg_wait_time": 3.5},
        decision_summary={"n_decisions": 11, "n_accepted": 10,
                          "n_rejected": 1, "by_kind": {"StartJob": 10}},
        overhead=None,
    )
    base.update(overrides)
    return StoredRun(**base)


class TestStoredRun:
    def test_json_round_trip(self):
        stored = make_stored()
        again = StoredRun.from_json(stored.to_json())
        assert again == stored
        assert again.key == cell_key("adversarial", 10, "fcfs", 0, 0)
        assert again.schema_version == SCHEMA_VERSION

    def test_round_trip_with_overhead(self):
        stored = make_stored(
            scheduler="claude-3.7-sim",
            overhead={"model": "claude-3.7-sim", "elapsed_s": 42.0,
                      "n_calls": 12, "latency": {"median_s": 3.5}},
        )
        assert StoredRun.from_json(stored.to_json()) == stored

    def test_from_run_baseline(self):
        run = run_single("resource_sparse", 6, "sjf", workload_seed=3)
        stored = StoredRun.from_run(run)
        assert stored.scenario == "resource_sparse"
        assert stored.scheduler == "sjf"
        assert stored.workload_seed == 3
        assert stored.metrics == run.values
        assert stored.overhead is None
        summary = stored.decision_summary
        assert summary["n_decisions"] == len(run.result.decisions)
        assert summary["n_accepted"] + summary["n_rejected"] == (
            summary["n_decisions"]
        )
        assert sum(summary["by_kind"].values()) == summary["n_accepted"]
        # Still serializable after summarization.
        assert StoredRun.from_json(stored.to_json()) == stored

    def test_from_run_llm_overhead(self):
        run = run_single("resource_sparse", 5, "claude-3.7-sim")
        stored = StoredRun.from_run(run)
        assert stored.overhead is not None
        assert stored.overhead["model"] == "claude-3.7-sim"
        assert stored.overhead["n_calls"] == run.overhead.n_calls
        assert stored.overhead["latency"]["n_calls"] >= 0
        assert StoredRun.from_json(stored.to_json()) == stored

    def test_rejects_newer_schema(self):
        payload = json.loads(make_stored().to_json())
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="newer"):
            StoredRun.from_json(json.dumps(payload))

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            StoredRun.from_json("{not json")
        with pytest.raises(ValueError):
            StoredRun.from_json('"a string"')
        with pytest.raises(ValueError):
            StoredRun.from_json('{"schema_version": 1}')


class TestRunStore:
    def test_missing_file_reads_empty(self, tmp_path):
        store = RunStore(tmp_path / "none.jsonl")
        assert store.load() == []
        assert store.completed_keys() == set()
        assert len(store) == 0

    def test_append_and_load(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        a = make_stored(scheduler="fcfs")
        b = make_stored(scheduler="sjf")
        store.append(a)
        store.append(b)
        assert store.load() == [a, b]
        assert store.completed_keys() == {a.key, b.key}
        assert a.key in store

    def test_last_write_wins_on_duplicates(self, tmp_path):
        # Re-running a sweep into the same store supersedes old lines.
        store = RunStore(tmp_path / "runs.jsonl")
        first = make_stored(metrics={"makespan": 1.0})
        second = make_stored(metrics={"makespan": 2.0})
        other = make_stored(scheduler="sjf")
        store.append(first)
        store.append(other)
        store.append(second)
        # Updated in place: first-appearance order, latest values.
        assert store.load() == [second, other]

    def test_truncated_final_line_tolerated(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        good = make_stored()
        store.append(good)
        with path.open("a") as fh:
            fh.write('{"scenario": "adversarial", "n_jo')  # crash mid-write
        assert store.load() == [good]
        assert good.key in store.completed_keys()

    def test_append_after_truncated_tail_repairs_store(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        first = make_stored(scheduler="fcfs")
        store.append(first)
        with path.open("a") as fh:
            fh.write('{"scenario": "adversarial", "n_jo')  # crash mid-write
        # The next append must not glue onto the partial line.
        second = make_stored(scheduler="sjf")
        store.append(second)
        assert store.load() == [first, second]
        # And later loads stay healthy (no interior corruption).
        store.append(make_stored(scheduler="easy"))
        assert len(store.load()) == 3

    def test_append_preserves_complete_tail_missing_newline(self, tmp_path):
        # A write killed between the JSON and its newline is a
        # complete run: append must restore the newline, not drop it.
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        first = make_stored(scheduler="fcfs")
        with path.open("w") as fh:
            fh.write(first.to_json())  # no trailing newline
        second = make_stored(scheduler="sjf")
        store.append(second)
        assert store.load() == [first, second]

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.append(make_stored(scheduler="fcfs"))
        with path.open("a") as fh:
            fh.write("garbage\n")
        store.append(make_stored(scheduler="sjf"))
        with pytest.raises(ValueError, match="corrupt"):
            store.load()

    def test_complete_newer_schema_final_line_raises(self, tmp_path):
        # A *complete* final line from a newer code version is not a
        # truncated write: surface the upgrade error instead of
        # silently reading the store as shorter than it is.
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.append(make_stored(scheduler="fcfs"))
        payload = json.loads(make_stored(scheduler="sjf").to_json())
        payload["schema_version"] = SCHEMA_VERSION + 1
        with path.open("a") as fh:
            fh.write(json.dumps(payload) + "\n")
        with pytest.raises(ValueError, match="corrupt"):
            store.load()

    def test_creates_parent_directories(self, tmp_path):
        store = RunStore(tmp_path / "deep" / "nested" / "runs.jsonl")
        store.append(make_stored())
        assert len(store) == 1


class TestRepairTailEdgeCases:
    """_repair_tail must survive every shape of killed-write tail."""

    def test_huge_unparseable_tail_spans_chunks(self, tmp_path):
        # The backward newline scan works in 64 KiB chunks; a partial
        # line longer than one chunk must still be found and truncated.
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        first = make_stored(scheduler="fcfs")
        store.append(first)
        with path.open("a") as fh:
            fh.write('{"scenario": "x", "pad": "' + "y" * 200_000)
        second = make_stored(scheduler="sjf")
        store.append(second)
        assert store.load() == [first, second]
        # The partial line is gone from disk, not merely tolerated.
        assert "yyy" not in path.read_text()

    def test_huge_parseable_tail_spans_chunks(self, tmp_path):
        # A >64 KiB COMPLETE line missing only its newline: the scan
        # must still parse it and restore the newline, losing nothing.
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        big = make_stored(
            scheduler="fcfs",
            decision_summary={"pad": "x" * 200_000},
        )
        with path.open("w") as fh:
            fh.write(big.to_json())  # no trailing newline
        second = make_stored(scheduler="sjf")
        store.append(second)
        assert store.load() == [big, second]
        assert path.read_text().count("\n") == 2

    def test_file_with_no_newline_at_all_unparseable(self, tmp_path):
        # A store whose very first write was torn: no newline anywhere.
        path = tmp_path / "runs.jsonl"
        path.write_text('{"scenario": "adversar')
        store = RunStore(path)
        stored = make_stored()
        store.append(stored)
        assert store.load() == [stored]
        assert path.read_text() == stored.to_json() + "\n"

    def test_empty_file_append(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("")
        store = RunStore(path)
        stored = make_stored()
        store.append(stored)
        assert store.load() == [stored]


class TestLoadOnCorrupt:
    def _corrupted_store(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        good = [make_stored(scheduler="fcfs"), make_stored(scheduler="sjf")]
        store.append(good[0])
        with path.open("a") as fh:
            fh.write("#CORRUPT# definitely not json\n")
        store.append(good[1])
        return store, good

    def test_invalid_policy_rejected(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        with pytest.raises(ValueError, match="on_corrupt"):
            store.load(on_corrupt="ignore")

    def test_raise_names_file_line_and_doctor(self, tmp_path):
        store, _ = self._corrupted_store(tmp_path)
        with pytest.raises(ValueError, match=r"runs\.jsonl:2: corrupt"):
            store.load()
        with pytest.raises(ValueError, match="store doctor"):
            store.load()

    def test_quarantine_returns_parseable_runs(self, tmp_path):
        store, good = self._corrupted_store(tmp_path)
        assert store.load(on_corrupt="quarantine") == good
        # The file itself is untouched — strict load still raises.
        with pytest.raises(ValueError, match="corrupt"):
            store.load()


class TestDoctor:
    def test_healthy_store_is_a_no_op(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.append(make_stored())
        before = path.read_text()
        report = store.doctor()
        assert report.clean
        assert (report.n_kept, report.n_quarantined) == (1, 0)
        assert "healthy" in report.summary()
        assert path.read_text() == before
        assert not store.quarantine_path.exists()

    def test_salvages_verbatim_and_quarantines_with_line_numbers(
        self, tmp_path
    ):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        a = make_stored(scheduler="fcfs")
        b = make_stored(scheduler="sjf")
        store.append(a)
        with path.open("a") as fh:
            fh.write("junk line\n")
        store.append(b)
        original_lines = [
            ln for ln in path.read_text().splitlines() if ln != "junk line"
        ]
        report = store.doctor()
        assert not report.clean
        assert (report.n_kept, report.n_quarantined) == (2, 1)
        assert report.quarantined_lines == (2,)
        # Healthy lines survive byte-for-byte, never re-serialized.
        assert path.read_text().splitlines() == original_lines
        assert store.quarantine_path.read_text() == "L2\tjunk line\n"
        assert store.load() == [a, b]

    def test_dry_run_reports_without_writing(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.append(make_stored())
        with path.open("a") as fh:
            fh.write("junk\n")
        before = path.read_text()
        report = store.doctor(dry_run=True)
        assert report.n_quarantined == 1
        assert "would move" in report.summary()
        assert path.read_text() == before
        assert not store.quarantine_path.exists()

    def test_quarantine_file_accumulates_across_doctors(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.append(make_stored())
        with path.open("a") as fh:
            fh.write("bad one\n")
        store.doctor()
        with path.open("a") as fh:
            fh.write("bad two\n")
        store.doctor()
        assert store.quarantine_path.read_text() == (
            "L2\tbad one\nL2\tbad two\n"
        )


class TestKeyIndexCache:
    def _count_parses(self, monkeypatch):
        """Reads of a store file, total and per file name: every parse
        of an archive goes through the one reader."""
        calls = {"n": 0, "by_file": Counter()}
        real = store_mod._read_jsonl

        def counting(path, parse):
            calls["n"] += 1
            calls["by_file"][path.name] += 1
            return real(path, parse)

        monkeypatch.setattr(store_mod, "_read_jsonl", counting)
        return calls

    def test_membership_checks_parse_once(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path / "runs.jsonl")
        a = make_stored(scheduler="fcfs")
        b = make_stored(scheduler="sjf")
        store.append(a)
        store.append(b)
        calls = self._count_parses(monkeypatch)
        for _ in range(50):
            assert a.key in store
            assert len(store) == 2
            assert store.completed_keys() == {a.key, b.key}
        assert calls["n"] == 1

    def test_own_append_invalidates(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path / "runs.jsonl")
        a = make_stored(scheduler="fcfs")
        store.append(a)
        assert len(store) == 1
        b = make_stored(scheduler="sjf")
        store.append(b)
        assert len(store) == 2
        assert b.key in store

    def test_own_appends_keep_the_index(self, tmp_path, monkeypatch):
        """k appends by one object, each followed by reads, parse the
        file once; a fresh object resolves the identical run list."""
        store = RunStore(tmp_path / "runs.jsonl")
        store.append(make_stored(workload_seed=0))
        calls = self._count_parses(monkeypatch)
        for seed in range(1, 9):
            run = make_stored(workload_seed=seed)
            assert run.key not in store
            store.append(run)
            assert store.get(run.key) == run
        store.append(make_stored(workload_seed=3, metrics={"makespan": 1.0}))
        assert calls["n"] == 1
        assert store.load() == RunStore(store.path).load()
        assert [r.workload_seed for r in store.load()] == list(range(9))

    def test_sharded_appends_parse_each_shard_at_most_once(
        self, tmp_path, monkeypatch
    ):
        """A sharded append reads no shard: nothing is checked before
        the line is written, so appends parse no file at all."""
        seeded = ShardedStore(tmp_path / "runs.store", n_shards=4)
        for seed in range(40):
            seeded.append(make_stored(workload_seed=seed))
        store = ShardedStore(tmp_path / "runs.store")
        calls = self._count_parses(monkeypatch)
        fresh = [make_stored(workload_seed=seed) for seed in range(40, 60)]
        for run in fresh:
            store.append(run)
        assert calls["n"] == 0
        # A fresh object on each shard file resolves the identical
        # run list: the retained index is what a cold parse gives.
        for run in fresh:
            shard = store.shard_for(run.key)
            assert shard.load() == RunStore(shard.path).load()
        assert store.load() == ShardedStore(store.path).load()
        assert len(store) == 60

    def test_external_write_invalidates(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        writer = RunStore(path)
        reader = RunStore(path)
        a = make_stored(scheduler="fcfs")
        writer.append(a)
        assert len(reader) == 1  # reader caches here
        b = make_stored(scheduler="sjf")
        writer.append(b)  # a different RunStore instance writes
        assert len(reader) == 2
        assert b.key in reader

    def test_quarantine_load_is_not_cached_as_strict(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.append(make_stored())
        with path.open("a") as fh:
            fh.write("junk\n")
        store.append(make_stored(scheduler="sjf"))
        assert len(store.load(on_corrupt="quarantine")) == 2
        # The tolerant result must not satisfy a later strict load.
        with pytest.raises(ValueError, match="corrupt"):
            store.load()


class TestFailedCell:
    def _failed(self, **overrides):
        base = dict(
            key=cell_key("adversarial", 10, "fcfs", 0, 0),
            kind="timeout",
            error_type="TimeoutError",
            message="cell exceeded --cell-timeout",
            traceback_tail="TimeoutError: ...",
            attempts=3,
        )
        base.update(overrides)
        return FailedCell(**base)

    def test_json_round_trip(self):
        fc = self._failed()
        again = FailedCell.from_json(fc.to_json())
        assert again == fc
        assert isinstance(again.key, tuple)

    def test_label(self):
        assert self._failed().label == "adversarial/10/fcfs w0 s0"

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="malformed"):
            FailedCell.from_json("{nope")
        with pytest.raises(ValueError, match="JSON object"):
            FailedCell.from_json("[1, 2]")
        with pytest.raises(ValueError, match="missing field"):
            FailedCell.from_json('{"key": ["a", 1, "b", 0, 0]}')


class TestFailureSidecar:
    def test_for_store_path_convention(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        sidecar = FailureSidecar.for_store(store)
        assert sidecar.path == tmp_path / "runs.jsonl.failures"

    def test_missing_sidecar_loads_empty(self, tmp_path):
        assert FailureSidecar(tmp_path / "none.failures").load() == []

    def test_append_and_load_round_trip(self, tmp_path):
        sidecar = FailureSidecar(tmp_path / "deep" / "runs.jsonl.failures")
        records = [
            FailedCell(
                key=cell_key("adversarial", 10, "fcfs", 0, 0),
                kind="pool-crash",
                error_type="BrokenProcessPool",
                message="worker died",
                traceback_tail="",
                attempts=2,
            ),
            FailedCell(
                key=cell_key("resource_sparse", 6, "sjf", 1, 0),
                kind="exception",
                error_type="ValueError",
                message="boom",
                traceback_tail="ValueError: boom",
                attempts=3,
            ),
        ]
        for record in records:
            sidecar.append(record)
        assert sidecar.load() == records
