"""The archive's one index and one rewriter, checked from outside.

* The index a store object keeps across its own appends is what a
  fresh object parses from the same bytes, after every step of a
  generated write sequence (fresh keys, supersedes, a second writer
  object, a torn and a garbled line from the chaos hook), in both
  layouts; and ``iter_runs(where, keys)`` is that filter over ``load()``.
* Every command that rewrites a file does it through one temp file and
  one ``os.replace``: when the replace fails the original is
  byte-intact and no temp file is left (ROADMAP item 5, "never a mix").
"""

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import faultinject
from repro.experiments.faultinject import FaultPlan, FaultRule, install
from repro.experiments.storage import ShardedStore, migrate_to_jsonl
from repro.experiments.store import (
    WHERE_FIELDS,
    FailedCell,
    FailureSidecar,
    RunStore,
    StoredRun,
)


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv(faultinject.ENV_VAR, raising=False)
    install(None)
    yield
    install(None)


SEEDS = range(5)


def make_run(seed: int, value: int = 0) -> StoredRun:
    return StoredRun(
        scenario="adversarial", n_jobs=10 + seed % 2, scheduler="fcfs",
        workload_seed=seed, scheduler_seed=0,
        metrics={"makespan": float(value)},
    )


def observed(call):
    """What *call* returns, or that it refused the file as corrupt."""
    try:
        return call()
    except ValueError:
        return "corrupt"


def snapshot(store) -> dict:
    """Everything the query surface says about the archive."""
    seen = {
        "load": observed(store.load),
        "tolerant": store.load(on_corrupt="quarantine"),
        "keys": observed(store.completed_keys),
        "len": observed(lambda: len(store)),
    }
    for seed in SEEDS:
        key = make_run(seed).key
        seen[key] = (
            observed(lambda: store.get(key)),
            observed(lambda: key in store),
        )
    return seen


WRITE_FAULTS = {"torn": "torn_write", "garbled": "corrupt_write"}

steps = st.lists(
    st.tuples(
        st.sampled_from(("append",) * 5 + tuple(WRITE_FAULTS)),
        st.sampled_from(SEEDS),
        st.integers(0, 3),
        st.integers(0, 1),
    ),
    min_size=1,
    max_size=14,
)
filters = st.tuples(
    st.sampled_from((
        None,
        {"workload_seed": 1},
        {"n_jobs": "10"},
        {"n_jobs": 11, "scheduler": "fcfs"},
        {name: getattr(make_run(2), name) for name in WHERE_FIELDS},
    )),
    st.one_of(
        st.none(),
        st.sets(st.sampled_from(SEEDS)).map(
            lambda seeds: {make_run(seed).key for seed in seeds}
        ),
    ),
)


# Sizes only grow here (no doctor, no compaction: every line is about
# the same length, so a torn half never equals a whole one), which
# keeps the (mtime, size) signature from colliding inside one clock
# tick; that collision is a limit of the signature, not of the index.
@pytest.mark.parametrize("layout", ["jsonl", "sharded"])
@given(steps=steps, query=filters)
@settings(max_examples=40, deadline=None)
def test_retained_index_equals_a_cold_parse(layout, steps, query):
    with tempfile.TemporaryDirectory() as scratch:
        def open_store():
            if layout == "jsonl":
                return RunStore(Path(scratch) / "runs.jsonl")
            return ShardedStore(Path(scratch) / "runs.store", n_shards=2)

        writers = [open_store(), open_store()]
        for kind, seed, value, who in steps:
            fault = WRITE_FAULTS.get(kind)
            install(fault and FaultPlan(rules=(FaultRule(kind=fault),)))
            try:
                writers[who].append(make_run(seed, value))
            finally:
                install(None)
            cold = snapshot(open_store())
            for retained in writers:
                assert snapshot(retained) == cold

        where, keys = query
        for mode in ("raise", "quarantine"):
            for store in (*writers, open_store()):
                expected = observed(lambda: [
                    run
                    for run in store.load(on_corrupt=mode)
                    if (keys is None or run.key in keys)
                    and all(
                        str(getattr(run, name)) == str(value)
                        for name, value in (where or {}).items()
                    )
                ])
                found = observed(lambda: list(
                    store.iter_runs(where, keys=keys, on_corrupt=mode)
                ))
                # A keyed query reads only what its keys route to, so
                # on a file a strict ``load()`` refuses it may answer.
                assert found == expected or expected == "corrupt"


def failed(seed: int, attempts: int = 1) -> FailedCell:
    return FailedCell(
        key=make_run(seed).key, kind="exception", error_type="ValueError",
        message="boom", traceback_tail="ValueError: boom", attempts=attempts,
    )


def _jsonl_archive(tmp_path, *, garbage: bool):
    store = RunStore(tmp_path / "runs.jsonl")
    store.append(make_run(0, 1))
    if garbage:
        with store.path.open("a") as fh:
            fh.write("{not a store line}\n")
    store.append(make_run(1))
    store.append(make_run(0, 2))
    return store


def _sharded_archive(tmp_path):
    store = ShardedStore(tmp_path / "runs.store", n_shards=2)
    for seed in SEEDS:
        store.append(make_run(seed, 1))
        store.append(make_run(seed, 2))
    return store


def _case_doctor(tmp_path):
    store = _jsonl_archive(tmp_path, garbage=True)
    return store.doctor, [store.path]


def _case_doctor_dedupe(tmp_path):
    store = _jsonl_archive(tmp_path, garbage=False)
    return lambda: store.doctor(dedupe=True), [store.path]


def _case_compact(tmp_path):
    store = _sharded_archive(tmp_path)
    return store.compact, [*store.shard_paths, store.manifest_path]


def _case_prune(tmp_path):
    sidecar = FailureSidecar(tmp_path / "runs.jsonl.failures")
    for record in (failed(0), failed(1), failed(0, 2)):
        sidecar.append(record)
    return lambda: sidecar.prune({failed(1).key}), [sidecar.path]


def _case_migrate_to_jsonl(tmp_path):
    store = _sharded_archive(tmp_path)
    dest = tmp_path / "out" / "back.jsonl"
    return lambda: migrate_to_jsonl(store.path, dest), store.shard_paths


def _case_manifest(tmp_path):
    store = _sharded_archive(tmp_path)
    # A superseding append lands in its shard, then persists the
    # supersede counter: the manifest write is what fails.
    return (
        lambda: store.append(make_run(0, 3)),
        [store.manifest_path],
    )


@pytest.mark.parametrize("case", [
    _case_doctor, _case_doctor_dedupe, _case_compact, _case_prune,
    _case_migrate_to_jsonl, _case_manifest,
], ids=lambda case: case.__name__[len("_case_"):])
def test_failed_replace_leaves_the_original_and_no_temp(
    case, tmp_path, monkeypatch
):
    rewrite, originals = case(tmp_path)
    before = {path: path.read_bytes() for path in originals}
    files_before = sorted(tmp_path.rglob("*"))

    def killed(src, dst):
        raise OSError("killed before the rename")

    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(OSError, match="killed before the rename"):
        rewrite()
    monkeypatch.undo()

    assert {path: path.read_bytes() for path in originals} == before
    leftovers = [
        path for path in tmp_path.rglob("*")
        if path.is_file() and path not in files_before
        and not path.name.endswith(".quarantine")
    ]
    assert leftovers == []
    # Nothing was half-done: the same command now goes through.
    rewrite()
