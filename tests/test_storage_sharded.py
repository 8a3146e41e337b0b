"""Tests for the sharded run store and the unified storage API."""

import json

import pytest

from repro.experiments.store import RunStore, StoredRun, cell_key
from repro.experiments.storage import (
    DEFAULT_SHARDS,
    MANIFEST_NAME,
    ShardedStore,
    StoreBackend,
    detect_format,
    is_sharded_store,
    open_store,
    shard_index,
    shard_name,
    store_digest,
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


def fill(store, n=12):
    """Append *n* distinct-key runs; returns them in append order."""
    runs = []
    for i in range(n):
        run = make_stored(
            scenario=("adversarial", "resource_sparse")[i % 2],
            n_jobs=10 + i,
            metrics={"makespan": 100.0 + i},
        )
        store.append(run)
        runs.append(run)
    return runs


class TestShardRouting:
    def test_stable_and_in_range(self):
        key = cell_key("adversarial", 10, "fcfs", 0, 0)
        first = shard_index(key, 16)
        assert first == shard_index(key, 16)  # pure function of the key
        assert 0 <= first < 16
        assert shard_index(key, 1) == 0

    def test_spreads_keys(self):
        # 64 distinct keys over 8 shards should never collapse onto one.
        indexes = {
            shard_index(cell_key("adversarial", n, "fcfs", 0, 0), 8)
            for n in range(64)
        }
        assert len(indexes) > 1

    def test_shard_name(self):
        assert shard_name(0) == "shard-000.jsonl"
        assert shard_name(42) == "shard-042.jsonl"


class TestShardedStoreBasics:
    def test_append_load_get_len(self, tmp_path):
        store = ShardedStore(tmp_path / "runs.store", n_shards=4)
        runs = fill(store, 10)
        assert len(store) == 10
        loaded = store.load()
        assert sorted(loaded, key=lambda r: r.key) == loaded
        assert {r.key for r in loaded} == {r.key for r in runs}
        some = runs[3]
        assert store.get(some.key) == some
        assert some.key in store
        assert cell_key("missing", 1, "fcfs", 0, 0) not in store
        assert store.completed_keys() == {r.key for r in runs}

    def test_load_order_is_canonical(self, tmp_path):
        """load() order is a pure function of the run set, not of the
        append interleaving — the determinism armor for concurrent
        writers."""
        a = ShardedStore(tmp_path / "a.store", n_shards=4)
        b = ShardedStore(tmp_path / "b.store", n_shards=4)
        runs = fill(a, 8)
        for run in reversed(runs):
            b.append(run)
        assert a.load() == b.load()

    def test_last_write_wins(self, tmp_path):
        store = ShardedStore(tmp_path / "runs.store", n_shards=4)
        run = make_stored()
        store.append(run)
        newer = make_stored(metrics={"makespan": 42.0})
        store.append(newer)
        assert store.get(run.key).metrics["makespan"] == 42.0
        assert len(store) == 1

    def test_append_routes_to_owning_shard(self, tmp_path):
        store = ShardedStore(tmp_path / "runs.store", n_shards=4)
        run = make_stored()
        store.append(run)
        owner = tmp_path / "runs.store" / shard_name(
            shard_index(run.key, 4)
        )
        written = StoredRun.from_json(owner.read_text().strip())
        assert written.key == run.key

    def test_sidecar_path(self, tmp_path):
        store = ShardedStore(tmp_path / "runs.store", n_shards=2)
        assert store.sidecar_path == tmp_path / "runs.store" / (
            "failures.jsonl"
        )


class TestManifest:
    def test_written_on_first_append(self, tmp_path):
        store = ShardedStore(tmp_path / "runs.store", n_shards=4)
        store.append(make_stored())
        manifest = json.loads(
            (tmp_path / "runs.store" / MANIFEST_NAME).read_text()
        )
        assert manifest["n_shards"] == 4
        assert manifest["format"] == "sharded-runstore"

    def test_ensure_initialized_touches_all_shards(self, tmp_path):
        store = ShardedStore(tmp_path / "runs.store", n_shards=4)
        store.ensure_initialized()
        for i in range(4):
            assert (tmp_path / "runs.store" / shard_name(i)).exists()

    def test_manifest_wins_on_reopen(self, tmp_path):
        ShardedStore(tmp_path / "runs.store", n_shards=4).append(
            make_stored()
        )
        again = ShardedStore(tmp_path / "runs.store")
        assert again.n_shards == 4

    def test_n_shards_conflict_raises(self, tmp_path):
        ShardedStore(tmp_path / "runs.store", n_shards=4).append(
            make_stored()
        )
        with pytest.raises(ValueError, match="n_shards"):
            ShardedStore(tmp_path / "runs.store", n_shards=8)

    def test_lost_manifest_inferred_from_files(self, tmp_path):
        store = ShardedStore(tmp_path / "runs.store", n_shards=6)
        fill(store, 8)
        (tmp_path / "runs.store" / MANIFEST_NAME).unlink()
        again = ShardedStore(tmp_path / "runs.store")
        assert again.n_shards == 6
        assert len(again.load()) == 8

    def test_corrupt_manifest_mentions_doctor(self, tmp_path):
        store = ShardedStore(tmp_path / "runs.store", n_shards=2)
        store.append(make_stored())
        (tmp_path / "runs.store" / MANIFEST_NAME).write_text("{oops")
        with pytest.raises(ValueError, match="doctor"):
            ShardedStore(tmp_path / "runs.store")
        # The doctor's own way in reads it as lost, like a missing one.
        repairing = ShardedStore.for_repair(tmp_path / "runs.store")
        assert repairing.n_shards == 2
        assert repairing.doctor().manifest_repaired
        assert ShardedStore(tmp_path / "runs.store").load() == [make_stored()]

    def test_garbled_manifest_and_no_shards_is_a_fresh_store(self, tmp_path):
        (tmp_path / "runs.store").mkdir()
        (tmp_path / "runs.store" / MANIFEST_NAME).write_text("[]")
        repairing = ShardedStore.for_repair(tmp_path / "runs.store")
        assert repairing.n_shards == DEFAULT_SHARDS
        assert repairing.doctor().manifest_repaired
        assert ShardedStore(tmp_path / "runs.store").load() == []


class TestCompaction:
    def test_explicit_compact_drops_superseded(self, tmp_path):
        store = ShardedStore(
            tmp_path / "runs.store", n_shards=2,
            auto_compact_threshold=None,
        )
        for _ in range(3):
            fill(store, 6)
        before = sum(
            len((tmp_path / "runs.store" / shard_name(i))
                .read_text().strip().splitlines())
            for i in range(2)
        )
        assert before == 18
        removed = store.compact()
        assert removed == 12
        assert len(store) == 6

    def test_auto_compaction(self, tmp_path):
        store = ShardedStore(
            tmp_path / "runs.store", n_shards=1,
            auto_compact_threshold=5,
        )
        run = make_stored()
        for i in range(12):
            store.append(
                make_stored(metrics={"makespan": float(i)})
            )
        shard = tmp_path / "runs.store" / shard_name(0)
        n_lines = len(shard.read_text().strip().splitlines())
        assert n_lines < 12  # superseded lines were compacted away
        assert store.get(run.key).metrics["makespan"] == 11.0

    def test_compact_skips_corrupt_shard(self, tmp_path):
        store = ShardedStore(tmp_path / "runs.store", n_shards=1)
        fill(store, 4)
        shard = tmp_path / "runs.store" / shard_name(0)
        shard.write_text("{garbage\n" + shard.read_text())
        assert store.compact() == 0  # never quarantines silently
        assert "{garbage" in shard.read_text()


class TestShardedDoctor:
    def test_healthy(self, tmp_path):
        store = ShardedStore(tmp_path / "runs.store", n_shards=2)
        fill(store, 4)
        report = store.doctor()
        assert report.clean
        assert report.n_quarantined == 0
        assert "healthy" in report.summary()

    def test_quarantines_corrupt_shard_line(self, tmp_path):
        store = ShardedStore(tmp_path / "runs.store", n_shards=2)
        fill(store, 6)
        shard = tmp_path / "runs.store" / shard_name(0)
        shard.write_text("{garbage\n" + shard.read_text())
        report = store.doctor()
        assert not report.clean
        assert report.n_quarantined == 1
        assert store.load()  # strict load works again

    def test_dry_run_leaves_files(self, tmp_path):
        store = ShardedStore(tmp_path / "runs.store", n_shards=2)
        fill(store, 4)
        shard = tmp_path / "runs.store" / shard_name(0)
        original = "{garbage\n" + shard.read_text()
        shard.write_text(original)
        report = store.doctor(dry_run=True)
        assert not report.clean
        assert shard.read_text() == original

    def test_repairs_lost_manifest(self, tmp_path):
        store = ShardedStore(tmp_path / "runs.store", n_shards=4)
        fill(store, 6)
        (tmp_path / "runs.store" / MANIFEST_NAME).unlink()
        report = ShardedStore(tmp_path / "runs.store").doctor()
        assert report.manifest_repaired
        manifest = json.loads(
            (tmp_path / "runs.store" / MANIFEST_NAME).read_text()
        )
        assert manifest["n_shards"] == 4

    def test_dedupe(self, tmp_path):
        store = ShardedStore(
            tmp_path / "runs.store", n_shards=2,
            auto_compact_threshold=None,
        )
        fill(store, 4)
        fill(store, 4)
        report = store.doctor(dedupe=True)
        assert report.n_deduped == 4


class TestIterRuns:
    def test_full_pin_fast_path(self, tmp_path):
        store = ShardedStore(tmp_path / "runs.store", n_shards=4)
        runs = fill(store, 8)
        target = runs[2]
        got = list(store.iter_runs({
            "scenario": target.scenario,
            "n_jobs": target.n_jobs,
            "scheduler": target.scheduler,
            "workload_seed": target.workload_seed,
            "scheduler_seed": target.scheduler_seed,
            "arrival_mode": target.arrival_mode,
            "disruption_sig": target.disruption_sig,
            "topology_sig": target.topology_sig,
        }))
        assert got == [target]

    def test_partial_where(self, tmp_path):
        store = ShardedStore(tmp_path / "runs.store", n_shards=4)
        runs = fill(store, 8)
        got = list(store.iter_runs({"scenario": "adversarial"}))
        want = sorted(
            (r for r in runs if r.scenario == "adversarial"),
            key=lambda r: r.key,
        )
        assert got == want

    def test_where_coerces_int_fields(self, tmp_path):
        store = ShardedStore(tmp_path / "runs.store", n_shards=2)
        runs = fill(store, 4)
        got = list(store.iter_runs({"n_jobs": str(runs[1].n_jobs)}))
        assert got == [runs[1]]

    def test_keys_prunes(self, tmp_path):
        store = ShardedStore(tmp_path / "runs.store", n_shards=4)
        runs = fill(store, 8)
        wanted = {runs[0].key, runs[5].key}
        got = list(store.iter_runs(keys=wanted))
        assert {r.key for r in got} == wanted

    def test_unknown_field_raises(self, tmp_path):
        store = ShardedStore(tmp_path / "runs.store", n_shards=2)
        with pytest.raises(ValueError, match="queryable fields"):
            list(store.iter_runs({"bogus": 1}))

    def test_runstore_iter_runs_matches(self, tmp_path):
        """Both backends answer the same query identically."""
        flat = RunStore(tmp_path / "runs.jsonl")
        sharded = ShardedStore(tmp_path / "runs.store", n_shards=4)
        runs = fill(flat, 8)
        for run in runs:
            sharded.append(run)
        target = runs[3]
        full_pin = {
            "scenario": target.scenario,
            "n_jobs": target.n_jobs,
            "scheduler": target.scheduler,
            "workload_seed": target.workload_seed,
            "scheduler_seed": target.scheduler_seed,
            "arrival_mode": target.arrival_mode,
            "disruption_sig": target.disruption_sig,
            "topology_sig": target.topology_sig,
        }
        for where in ({"scenario": "resource_sparse"}, full_pin):
            assert (
                sorted(flat.iter_runs(where), key=lambda r: r.key)
                == list(sharded.iter_runs(where))
            )
        # The keyed fast path still honours an explicit key set.
        assert list(flat.iter_runs(full_pin)) == [target]
        assert list(flat.iter_runs(full_pin, keys={runs[0].key})) == []


class TestOpenStore:
    def test_sniffs_jsonl_file(self, tmp_path):
        RunStore(tmp_path / "runs.jsonl").append(make_stored())
        store = open_store(tmp_path / "runs.jsonl")
        assert isinstance(store, RunStore)
        assert detect_format(tmp_path / "runs.jsonl") == "jsonl"

    def test_sniffs_sharded_dir(self, tmp_path):
        ShardedStore(tmp_path / "runs.store", n_shards=2).append(
            make_stored()
        )
        store = open_store(tmp_path / "runs.store")
        assert isinstance(store, ShardedStore)
        assert is_sharded_store(tmp_path / "runs.store")
        assert detect_format(tmp_path / "runs.store") == "sharded"

    def test_fresh_path_defaults_to_jsonl(self, tmp_path):
        assert isinstance(open_store(tmp_path / "new.jsonl"), RunStore)

    def test_fresh_path_sharded_format(self, tmp_path):
        store = open_store(
            tmp_path / "new.store", format="sharded", n_shards=4
        )
        assert isinstance(store, ShardedStore)
        assert store.n_shards == 4

    def test_default_shards(self, tmp_path):
        store = open_store(tmp_path / "new.store", format="sharded")
        assert store.n_shards == DEFAULT_SHARDS

    def test_format_mismatch_mentions_migrate(self, tmp_path):
        RunStore(tmp_path / "runs.jsonl").append(make_stored())
        with pytest.raises(ValueError, match="migrate"):
            open_store(tmp_path / "runs.jsonl", format="sharded")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            open_store(tmp_path / "x", format="parquet")

    def test_both_backends_satisfy_protocol(self, tmp_path):
        assert isinstance(RunStore(tmp_path / "a.jsonl"), StoreBackend)
        assert isinstance(
            ShardedStore(tmp_path / "b.store", n_shards=2), StoreBackend
        )


class TestStoreDigest:
    def test_layout_independent(self, tmp_path):
        flat = RunStore(tmp_path / "runs.jsonl")
        sharded = ShardedStore(tmp_path / "runs.store", n_shards=4)
        for run in fill(flat, 8):
            sharded.append(run)
        assert store_digest(flat) == store_digest(sharded)

    def test_order_independent(self, tmp_path):
        a = RunStore(tmp_path / "a.jsonl")
        b = RunStore(tmp_path / "b.jsonl")
        runs = fill(a, 6)
        for run in reversed(runs):
            b.append(run)
        assert store_digest(a) == store_digest(b)

    def test_content_sensitive(self, tmp_path):
        a = RunStore(tmp_path / "a.jsonl")
        b = RunStore(tmp_path / "b.jsonl")
        fill(a, 4)
        fill(b, 5)
        assert store_digest(a) != store_digest(b)
