"""``store doctor --dedupe``: compact superseded duplicate-key lines.

The contract is conservative by design: compaction changes the bytes
on disk but never what :meth:`RunStore.load` resolves — each cell
keeps its winning (last-written) line verbatim, placed at the key's
first-appearance position. Superseded lines are dropped, not
quarantined (they are stale data, not corruption). It is the one way
superseded lines leave a store of either layout: a sharded store runs
the same pass over each shard.
"""

import dataclasses

import pytest

from repro.experiments.cli import main
from repro.experiments.runner import run_single
from repro.experiments.storage import ShardedStore
from repro.experiments.store import RunStore, StoredRun


def write_dups(store):
    """Write the fcfs cell twice (the second write supersedes),
    interleaved with a distinct sjf cell."""
    fcfs = StoredRun.from_run(run_single("adversarial", 8, "fcfs"))
    sjf = StoredRun.from_run(run_single("adversarial", 8, "sjf"))
    stale = dataclasses.replace(
        fcfs, metrics={k: v + 1.0 for k, v in fcfs.metrics.items()}
    )
    store.append(stale)
    store.append(sjf)
    store.append(fcfs)  # supersedes `stale`
    return store


@pytest.fixture
def dup_store(tmp_path):
    return write_dups(RunStore(tmp_path / "runs.jsonl"))


@pytest.fixture
def sharded_dup_store(tmp_path):
    return write_dups(ShardedStore(tmp_path / "runs.store", n_shards=2))


def lines_of(store: RunStore) -> list[str]:
    return [
        line
        for line in store.path.read_text().splitlines()
        if line.strip()
    ]


def shard_lines(store: ShardedStore) -> list[list[str]]:
    return [
        [line for line in path.read_text().splitlines() if line.strip()]
        for path in store.shard_paths
    ]


class TestDoctorDedupe:
    def test_load_is_unchanged_and_file_compacts(self, dup_store):
        before = [run.to_json() for run in dup_store.load()]
        winning_lines = lines_of(dup_store)[1:]  # sjf line, fresh fcfs line
        report = dup_store.doctor(dedupe=True)
        assert report.n_deduped == 1
        assert report.n_quarantined == 0
        assert report.clean  # superseded lines are not corruption
        after_lines = lines_of(dup_store)
        assert len(after_lines) == 2
        # Winning bytes survive verbatim, at first-appearance order:
        # the fcfs key appeared first, so its (fresh) line leads.
        assert after_lines == [winning_lines[1], winning_lines[0]]
        assert [run.to_json() for run in dup_store.load()] == before
        # No quarantine file for a dedupe-only repair.
        assert not dup_store.quarantine_path.exists()

    def test_dry_run_reports_without_writing(self, dup_store):
        raw = dup_store.path.read_text()
        report = dup_store.doctor(dry_run=True, dedupe=True)
        assert report.n_deduped == 1
        assert dup_store.path.read_text() == raw

    def test_without_dedupe_duplicates_survive(self, dup_store):
        report = dup_store.doctor()
        assert report.n_deduped == 0
        assert len(lines_of(dup_store)) == 3

    def test_dedupe_composes_with_corruption_repair(self, dup_store):
        with dup_store.path.open("a", encoding="utf-8") as fh:
            fh.write("{corrupt\n")
        before = [run.to_json() for run in dup_store.load(on_corrupt="quarantine")]
        report = dup_store.doctor(dedupe=True)
        assert report.n_deduped == 1
        assert report.n_quarantined == 1
        assert not report.clean
        assert dup_store.quarantine_path.exists()
        assert [run.to_json() for run in dup_store.load()] == before

    def test_summary_mentions_dedupe(self, dup_store):
        report = dup_store.doctor(dedupe=True)
        assert "dedup" in report.summary().lower()


class TestDoctorDedupeCLI:
    def test_cli_dedupe_compacts_and_exits_zero(self, dup_store, capsys):
        rc = main(["store", "doctor", str(dup_store.path), "--dedupe"])
        assert rc == 0
        assert "dedup" in capsys.readouterr().out.lower()
        assert len(lines_of(dup_store)) == 2

    def test_cli_without_dedupe_leaves_duplicates(self, dup_store, capsys):
        rc = main(["store", "doctor", str(dup_store.path)])
        assert rc == 0
        assert len(lines_of(dup_store)) == 3


class TestShardedDoctorDedupe:
    """The same pass on a sharded store, shard by shard."""

    def test_load_is_unchanged_and_shards_compact(self, sharded_dup_store):
        store = sharded_dup_store
        before = [run.to_json() for run in store.load()]
        lines = shard_lines(store)
        stale, fresh = [
            line for shard in lines for line in shard
            if '"scheduler": "fcfs"' in line
        ]
        report = store.doctor(dedupe=True)
        assert (report.n_deduped, report.n_quarantined) == (1, 0)
        assert report.clean
        # The winning bytes, verbatim, at the key's first position.
        assert shard_lines(store) == [
            [fresh if line == stale else line for line in shard
             if line != fresh]
            for shard in lines
        ]
        assert [run.to_json() for run in store.load()] == before
        assert not list(store.path.glob("*.quarantine"))

    def test_dry_run_reports_without_writing(self, sharded_dup_store):
        store = sharded_dup_store
        raw = {path: path.read_bytes() for path in store.path.iterdir()}
        assert store.doctor(dry_run=True, dedupe=True).n_deduped == 1
        assert {path: path.read_bytes() for path in store.path.iterdir()} == raw

    def test_without_dedupe_duplicates_survive(self, sharded_dup_store):
        assert sharded_dup_store.doctor().n_deduped == 0
        assert sum(map(len, shard_lines(sharded_dup_store))) == 3

    def test_dedupe_composes_with_corruption_repair(self, sharded_dup_store):
        store = sharded_dup_store
        with store.shard_paths[0].open("a", encoding="utf-8") as fh:
            fh.write("{corrupt\n")
        before = [run.to_json() for run in store.load(on_corrupt="quarantine")]
        report = store.doctor(dedupe=True)
        assert (report.n_deduped, report.n_quarantined) == (1, 1)
        assert not report.clean
        assert [run.to_json() for run in store.load()] == before

    @pytest.mark.parametrize(
        "flags,lines", [([], 3), (["--dedupe"], 2)], ids=["plain", "dedupe"]
    )
    def test_cli(self, sharded_dup_store, capsys, flags, lines):
        rc = main(["store", "doctor", str(sharded_dup_store.path), *flags])
        assert rc == 0
        assert ("compacted" in capsys.readouterr().out) == bool(flags)
        assert sum(map(len, shard_lines(sharded_dup_store))) == lines
