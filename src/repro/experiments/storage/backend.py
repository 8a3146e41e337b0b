"""The ``open_store`` front door and the cross-layout digest.

Everything that consumes a run archive programs against
:class:`~repro.experiments.store.StoreBackend`, the base class of the
single-file :class:`~repro.experiments.store.RunStore` and the
directory-per-archive
:class:`~repro.experiments.storage.sharded.ShardedStore` (re-exported
here under the name consumers have always imported). Consumers never
branch on layout; they call :func:`open_store` and get whichever
layout the path holds.

:func:`store_digest` is the cross-backend identity: a SHA-256 over the
canonically-ordered run set, equal for two stores exactly when
``load()`` resolves them to the same runs — the CI contract that pins
a 4-worker sharded sweep to the serial single-file reference.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Optional, Union

from repro.experiments.store import RunStore, StoreBackend
from repro.experiments.storage.sharded import ShardedStore

#: ``open_store`` / CLI names for the two backends.
STORE_FORMATS = ("jsonl", "sharded")


def detect_format(path: Union[str, Path]) -> Optional[str]:
    """The layout *path* would open as: ``"sharded"`` (any directory —
    a store, or the place a fresh one is laid out; ``is_sharded_store``
    tells the two apart), ``"jsonl"`` (a file), or ``None`` (nothing
    yet — the caller's requested format decides)."""
    p = Path(path)
    if p.is_dir():
        return "sharded"
    if p.exists():
        return "jsonl"
    return None


def open_store(
    path: Union[str, Path],
    *,
    format: Optional[str] = None,
    n_shards: Optional[int] = None,
) -> StoreBackend:
    """Open (or lay out) the run archive at *path*.

    With ``format=None`` the on-disk layout decides — an existing
    directory opens sharded, an existing file opens JSONL, and a fresh
    path defaults to JSONL (the historical format, so every existing
    call site keeps its exact behavior). An explicit *format* pins the
    layout for fresh paths and is validated against what exists —
    asking for ``jsonl`` at a sharded directory is an error, not a
    silent reinterpretation.

    *n_shards* only applies when a sharded store is created; an
    existing store's manifest wins (and conflicts raise).
    """
    if format is not None and format not in STORE_FORMATS:
        raise ValueError(
            f"unknown store format {format!r} "
            f"(expected one of {', '.join(STORE_FORMATS)})"
        )
    on_disk = detect_format(path)
    if on_disk is not None and format is not None and on_disk != format:
        raise ValueError(
            f"{path}: store on disk is {on_disk}, not {format} "
            "(use `repro-sched store migrate` to convert)"
        )
    resolved = on_disk or format or "jsonl"
    if resolved == "sharded":
        return ShardedStore(path, n_shards=n_shards)
    return RunStore(path)


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
