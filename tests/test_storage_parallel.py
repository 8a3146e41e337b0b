"""Sweep engine × sharded store: a pooled sweep, whose parent appends
every cell its workers answer, must be indistinguishable (by content
digest) from the serial single-file reference, and resume/failure
bookkeeping must survive the layout change."""

import os

import pytest

from repro.experiments.parallel import expand_cells, run_cells
from repro.experiments.store import FailureSidecar, RunStore
from repro.experiments.storage import (
    ShardedStore,
    open_store,
    store_digest,
)

SCENARIOS = ("adversarial", "resource_sparse")
SIZES = (6,)
SCHEDULERS = ("fcfs", "sjf")


def _cells():
    return expand_cells(SCENARIOS, SIZES, SCHEDULERS)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Serial single-file sweep: the ground-truth archive."""
    path = tmp_path_factory.mktemp("ref") / "ref.jsonl"
    run_cells(_cells(), workers=1, store=path)
    return RunStore(path)


class TestDigestIdentity:
    def test_pooled_sharded_matches_serial_jsonl(
        self, tmp_path, reference
    ):
        """Four workers' cells, appended to their shards by the
        parent, end up content-identical to the serial single-file
        reference."""
        store = ShardedStore(tmp_path / "runs.store", n_shards=4)
        runs = run_cells(_cells(), workers=4, store=store)
        assert len(runs) == len(_cells())
        assert store_digest(store) == store_digest(reference)

    def test_pooled_shard_files_hold_the_runs(self, tmp_path):
        """The parent's appends land in the shard files, readable by
        a store opened afresh."""
        store = ShardedStore(tmp_path / "runs.store", n_shards=4)
        run_cells(_cells(), workers=4, store=store)
        reread = ShardedStore(tmp_path / "runs.store")
        assert len(reread) == len(_cells())

    def test_pooled_appends_come_from_the_parent(
        self, tmp_path, monkeypatch
    ):
        """Workers compute, the parent persists: every shard append of
        a pooled sweep runs in this process. Forked workers inherit the
        patch, so an append made in a worker would log its own pid."""
        pids = []
        append = RunStore.append

        def logged(self, stored):
            pids.append(os.getpid())
            return append(self, stored)

        monkeypatch.setattr(RunStore, "append", logged)
        store = ShardedStore(tmp_path / "runs.store", n_shards=4)
        run_cells(_cells(), workers=2, store=store)
        assert pids == [os.getpid()] * len(_cells())

    def test_inline_sharded_matches_too(self, tmp_path, reference):
        store = ShardedStore(tmp_path / "runs.store", n_shards=4)
        run_cells(_cells(), workers=1, store=store)
        assert store_digest(store) == store_digest(reference)


class TestResume:
    def test_resume_skips_completed_cells(self, tmp_path):
        store = ShardedStore(tmp_path / "runs.store", n_shards=4)
        run_cells(_cells(), workers=4, store=store)
        ran = run_cells(
            _cells(), workers=4, store=store, resume=True
        )
        assert ran == []  # everything already in the store

    def test_resume_runs_only_missing_cells(self, tmp_path):
        store = ShardedStore(tmp_path / "runs.store", n_shards=4)
        first_half = _cells()[:2]
        run_cells(first_half, workers=1, store=store)
        ran = run_cells(
            _cells(), workers=4, store=store, resume=True
        )
        assert {r.key for r in ran} == {
            c.key for c in _cells()[2:]
        }
        assert store.completed_keys() == {c.key for c in _cells()}


class TestStorePathCoercion:
    def test_run_cells_accepts_sharded_path(self, tmp_path):
        """A store path given to run_cells opens as the layout on disk."""
        seed = ShardedStore(tmp_path / "runs.store", n_shards=2)
        seed.ensure_initialized()
        run_cells(_cells()[:1], workers=1, store=tmp_path / "runs.store")
        assert len(ShardedStore(tmp_path / "runs.store")) == 1


class TestFailureSidecar:
    def test_sidecar_path_derived_from_backend(self, tmp_path):
        flat = RunStore(tmp_path / "runs.jsonl")
        sharded = ShardedStore(tmp_path / "runs.store", n_shards=2)
        assert FailureSidecar.for_store(flat).path == (
            tmp_path / "runs.jsonl.failures"
        )
        assert FailureSidecar.for_store(sharded).path == (
            tmp_path / "runs.store" / "failures.jsonl"
        )

    def test_open_store_roundtrip_sidecar(self, tmp_path):
        sharded = ShardedStore(tmp_path / "runs.store", n_shards=2)
        sharded.ensure_initialized()
        reopened = open_store(tmp_path / "runs.store")
        assert (
            FailureSidecar.for_store(reopened).path
            == sharded.sidecar_path
        )
