"""Unified storage API over the run-archive backends.

Public surface:

* :class:`StoreBackend` — the base class of both layouts: the query
  surface (``iter_runs`` / ``in`` / ``len``), written once over each
  layout's append / load / get / completed_keys / doctor / sidecar.
* :func:`open_store` — the front door: sniffs the on-disk layout (or
  honors an explicit ``format``) and returns the right backend.
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

from repro.experiments.storage.backend import (
    STORE_FORMATS,
    StoreBackend,
    detect_format,
    open_store,
    store_digest,
)
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

__all__ = [
    "DEFAULT_SHARDS",
    "MANIFEST_NAME",
    "MigrationReport",
    "ORDER_NAME",
    "STORE_FORMATS",
    "ShardedDoctorReport",
    "ShardedStore",
    "StoreBackend",
    "detect_format",
    "is_sharded_store",
    "migrate_to_jsonl",
    "migrate_to_sharded",
    "open_store",
    "shard_index",
    "shard_name",
    "store_digest",
]
