"""Tests for store migration: JSONL ↔ sharded, loss-free both ways."""

import json

import pytest

from repro.experiments.store import RunStore, StoredRun
from repro.experiments.storage import (
    ORDER_NAME,
    ShardedStore,
    migrate_to_jsonl,
    migrate_to_sharded,
    shard_name,
    store_digest,
)
from tests.tooling.faults import FaultPlan, FaultRule, install


def make_stored(**overrides) -> StoredRun:
    base = dict(
        scenario="adversarial",
        n_jobs=10,
        scheduler="fcfs",
        workload_seed=0,
        scheduler_seed=0,
        metrics={"makespan": 100.0},
        decision_summary={},
        overhead=None,
    )
    base.update(overrides)
    return StoredRun(**base)


def v1_line(n_jobs=10):
    """A minimal schema-v1 line (no disruption/topology columns)."""
    return json.dumps({
        "schema_version": 1,
        "scenario": "adversarial",
        "n_jobs": n_jobs,
        "scheduler": "fcfs",
        "workload_seed": 0,
        "scheduler_seed": 0,
        "metrics": {"makespan": 90.0},
    }, sort_keys=True)


def v2_line(n_jobs=20):
    """Schema v2: disruption columns present, no topology_sig."""
    return json.dumps({
        "schema_version": 2,
        "scenario": "resource_sparse",
        "n_jobs": n_jobs,
        "scheduler": "sjf",
        "workload_seed": 1,
        "scheduler_seed": 0,
        "arrival_mode": "scenario",
        "metrics": {"makespan": 80.0},
        "decision_summary": {},
        "overhead": None,
        "disruption": None,
        "disruption_sig": "none",
    }, sort_keys=True)


def write_mixed_archive(path):
    """A single-file archive mixing schema v1, v2 and v3 lines."""
    lines = [
        v1_line(10),
        v2_line(20),
        make_stored(n_jobs=30).to_json(),
        v1_line(40),
        make_stored(n_jobs=50, scheduler="sjf").to_json(),
    ]
    path.write_text("\n".join(lines) + "\n")
    return lines


class TestRoundTrip:
    def test_mixed_schema_byte_identical(self, tmp_path):
        src = tmp_path / "runs.jsonl"
        write_mixed_archive(src)
        original = src.read_bytes()

        report = migrate_to_sharded(src, tmp_path / "runs.store")
        assert report.n_lines == 5
        assert report.direction == "jsonl->sharded"

        back = migrate_to_jsonl(
            tmp_path / "runs.store", tmp_path / "back.jsonl"
        )
        assert back.order_preserved
        assert (tmp_path / "back.jsonl").read_bytes() == original

    def test_load_identical(self, tmp_path):
        src = tmp_path / "runs.jsonl"
        write_mixed_archive(src)
        migrate_to_sharded(src, tmp_path / "runs.store")
        migrate_to_jsonl(tmp_path / "runs.store", tmp_path / "back.jsonl")
        assert (
            RunStore(src).load()
            == RunStore(tmp_path / "back.jsonl").load()
        )
        # The sharded copy holds the same content (digest-identical).
        assert store_digest(RunStore(src)) == store_digest(
            ShardedStore(tmp_path / "runs.store")
        )

    def test_schema_versions_survive_verbatim(self, tmp_path):
        src = tmp_path / "runs.jsonl"
        write_mixed_archive(src)
        migrate_to_sharded(src, tmp_path / "runs.store")
        versions = sorted(
            run.schema_version
            for run in ShardedStore(tmp_path / "runs.store").load()
        )
        assert versions == [1, 1, 2, 3, 3]

    def test_missing_final_newline_reconstructed(self, tmp_path):
        src = tmp_path / "runs.jsonl"
        write_mixed_archive(src)
        # Strip the final newline: still a complete, parseable tail.
        src.write_bytes(src.read_bytes()[:-1])
        original = src.read_bytes()
        migrate_to_sharded(src, tmp_path / "runs.store")
        migrate_to_jsonl(tmp_path / "runs.store", tmp_path / "back.jsonl")
        assert (tmp_path / "back.jsonl").read_bytes() == original

    def test_fallback_without_order_sidecar(self, tmp_path):
        """Deleting the order sidecar degrades to shard-order
        concatenation: no longer byte-identical, still load-identical."""
        src = tmp_path / "runs.jsonl"
        write_mixed_archive(src)
        migrate_to_sharded(src, tmp_path / "runs.store")
        (tmp_path / "runs.store" / ORDER_NAME).unlink()
        report = migrate_to_jsonl(
            tmp_path / "runs.store", tmp_path / "back.jsonl"
        )
        assert not report.order_preserved
        assert sorted(
            RunStore(tmp_path / "back.jsonl").load(),
            key=lambda r: r.key,
        ) == sorted(RunStore(src).load(), key=lambda r: r.key)


class TestMigrationSafety:
    def test_refuses_interior_corruption(self, tmp_path):
        src = tmp_path / "runs.jsonl"
        src.write_text("{garbage\n" + make_stored().to_json() + "\n")
        with pytest.raises(ValueError, match="doctor"):
            migrate_to_sharded(src, tmp_path / "runs.store")

    def test_drops_torn_tail(self, tmp_path):
        """A newline-less unparseable tail is the signature of a run
        killed mid-write; migration drops it exactly like load()."""
        src = tmp_path / "runs.jsonl"
        good = make_stored().to_json()
        src.write_text(good + "\n" + good[: len(good) // 2])
        report = migrate_to_sharded(src, tmp_path / "runs.store")
        assert report.n_lines == 1

    def test_refuses_existing_dest(self, tmp_path):
        src = tmp_path / "runs.jsonl"
        write_mixed_archive(src)
        dest = tmp_path / "runs.store"
        migrate_to_sharded(src, dest)
        with pytest.raises(ValueError, match="exists"):
            migrate_to_sharded(src, dest)
        with pytest.raises(ValueError, match="exists"):
            migrate_to_jsonl(dest, src)

    def test_missing_source(self, tmp_path):
        with pytest.raises(ValueError, match="no JSONL store"):
            migrate_to_sharded(
                tmp_path / "nope.jsonl", tmp_path / "runs.store"
            )


class TestChaosTornShardWrite:
    def test_torn_write_on_shard_recovers(self, tmp_path):
        """The chaos harness tears a shard append mid-write; the store
        stays loadable, doctor reports clean (torn tails are repaired,
        not quarantined), and the next append lands intact."""
        store = ShardedStore(tmp_path / "runs.store", n_shards=1)
        victim = make_stored(n_jobs=10)
        install(FaultPlan(rules=(
            FaultRule(kind="torn_write", match="adversarial|10|"),
        )))
        store.append(victim)
        install(None)

        shard = tmp_path / "runs.store" / shard_name(0)
        assert not shard.read_text().endswith("\n")  # genuinely torn
        fresh = ShardedStore(tmp_path / "runs.store")
        assert fresh.load() == []  # torn tail dropped, not fatal

        # The next append repairs the tail before writing.
        survivor = make_stored(n_jobs=11)
        fresh.append(survivor)
        assert fresh.load() == [survivor]
        assert fresh.doctor().clean

    def test_torn_shard_then_migrate(self, tmp_path):
        """Migrating a sharded store with a torn shard tail drops the
        torn line (like load()) instead of refusing."""
        store = ShardedStore(tmp_path / "runs.store", n_shards=2)
        keep = make_stored(n_jobs=12)
        store.append(keep)
        install(FaultPlan(rules=(
            FaultRule(kind="torn_write", match="adversarial|10|"),
        )))
        store.append(make_stored(n_jobs=10))
        install(None)
        report = migrate_to_jsonl(
            tmp_path / "runs.store", tmp_path / "out.jsonl"
        )
        assert report.n_lines == 1
        assert RunStore(tmp_path / "out.jsonl").load() == [keep]
