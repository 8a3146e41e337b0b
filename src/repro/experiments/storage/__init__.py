"""Unified storage API over the run-archive backends.

Public surface:

* :class:`StoreBackend` — the base class of both layouts: the query
  surface (``iter_runs`` / ``in`` / ``len``), written once over each
  layout's append / load / get / completed_keys / doctor / sidecar.
* :func:`open_store` — the front door: the path alone picks the
  layout (see its docstring), so consumers never branch on layout.
* :class:`ShardedStore` — cell-key-hash sharded directory layout for
  million-run archives (single-shard keyed queries, per-shard append
  locks).
* :func:`migrate_to_sharded` / :func:`migrate_to_jsonl` — loss-free
  conversion between layouts, round-trippable byte-identically.
* :func:`store_digest` — layout-blind content identity (the CI
  serial-vs-sharded determinism pin).

The single-file :class:`~repro.experiments.store.RunStore` and the
base class live in :mod:`repro.experiments.store`; this package adds
the sharded layout on top without moving them.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Union

from repro.experiments.store import RunStore, StoreBackend
from repro.experiments.storage.migrate import (
    ORDER_NAME,
    MigrationReport,
    migrate_to_jsonl,
    migrate_to_sharded,
)
from repro.experiments.storage.sharded import (
    DEFAULT_SHARDS,
    MANIFEST_NAME,
    ShardedDoctorReport,
    ShardedStore,
    is_sharded_store,
    shard_index,
    shard_name,
)


def open_store(path: Union[str, Path]) -> StoreBackend:
    """Open (or lay out) the run archive at *path*; the path alone
    decides the layout.

    An existing directory opens sharded and an existing file opens
    JSONL. A fresh path ending in ``.jsonl`` becomes a JSONL file;
    any other fresh path becomes a sharded directory with
    :data:`DEFAULT_SHARDS` shards. A sharded store's shard count is
    store metadata: its ``MANIFEST.json`` always wins.
    """
    p = Path(path)
    if p.is_dir() or (not p.exists() and p.suffix != ".jsonl"):
        return ShardedStore(p)
    return RunStore(p)


def store_digest(store: StoreBackend) -> str:
    """Layout-independent content identity of an archive.

    SHA-256 over every persisted run's canonical JSON line, in sorted
    key order — a pure function of what ``load()`` resolves (the run
    *set*, last write per cell winning), blind to shard layout, line
    order, superseded duplicates, and compaction. Two stores with
    equal digests answer every query identically; the CI storage gate
    compares exactly this across serial-JSONL and 4-worker-sharded
    sweeps.
    """
    digest = hashlib.sha256()
    for run in sorted(store.load(), key=lambda r: r.key):
        digest.update(run.to_json().encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


__all__ = [
    "DEFAULT_SHARDS",
    "MANIFEST_NAME",
    "MigrationReport",
    "ORDER_NAME",
    "ShardedDoctorReport",
    "ShardedStore",
    "StoreBackend",
    "is_sharded_store",
    "migrate_to_jsonl",
    "migrate_to_sharded",
    "open_store",
    "shard_index",
    "shard_name",
    "store_digest",
]
