"""Loss-free migration between the JSONL and sharded store layouts.

Migration is a *byte* operation, not a parse-and-reserialize one: every
line crosses verbatim (only its routing key is parsed), so v1/v2/v3
lines keep their exact original bytes — and their schema versions —
through a round trip. Splitting a file into shards does discard one
thing the bytes can't carry: the global interleaving of lines across
shards. The migrator therefore writes an **order sidecar**
(:data:`ORDER_NAME`: the shard index of every original line, plus
whether the file ended in a newline) next to the manifest; as long as
the sharded store hasn't been written to since, ``sharded → jsonl``
replays it to reconstruct the original file **byte-identically**. A
store that has been appended to or compacted since (or was natively
written sharded) falls back to shard-order concatenation — no longer
the original bytes, but still ``load()``-identical, which
:func:`~repro.experiments.storage.backend.store_digest` checks cheaply.

Corruption policy: migration refuses interior corruption (run
``store doctor`` first — silently dropping lines is the opposite of
loss-free). The one tolerated defect is a torn final line without its
newline — the signature of a killed write, which ``load()`` already
drops; it is *not* carried across (the cell re-runs on resume).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Union

from repro.experiments.store import StoredRun, _atomic_rewrite, _read_jsonl
from repro.experiments.storage.sharded import (
    DEFAULT_SHARDS,
    ShardedStore,
    is_sharded_dir,
    shard_index,
)

#: Order sidecar written by jsonl→sharded migration: per-line shard
#: routing, enough to replay the exact original interleaving back.
ORDER_NAME = "migration-order.json"


@dataclass(frozen=True)
class MigrationReport:
    """What one migration moved and whether byte order survived."""

    source: Path
    dest: Path
    #: ``"jsonl->sharded"`` or ``"sharded->jsonl"``.
    direction: str
    n_lines: int
    n_shards: int
    #: Whether the output preserves the source's exact byte order
    #: (always true jsonl→sharded via the order sidecar; true the
    #: other way only when the sidecar still matches the shards).
    order_preserved: bool

    def summary(self) -> str:
        order = (
            "original line order preserved"
            if self.order_preserved
            else "shard-order concatenation (load()-identical, "
            "original interleaving not recoverable)"
        )
        return (
            f"migrated {self.n_lines} line(s) {self.direction}: "
            f"{self.source} -> {self.dest} "
            f"({self.n_shards} shard(s); {order})"
        )


def _verbatim_lines(path: Path) -> Iterator[tuple[str, StoredRun]]:
    """Each line of the store file at *path*, newline included where
    the file has it, with its parsed run. Migration's corruption
    policy over the shared reader: a torn tail is dropped, exactly
    like ``load()``; any other bad line raises."""
    for lineno, raw, stored, torn in _read_jsonl(path, StoredRun.from_json):
        if torn:
            return
        if isinstance(stored, ValueError):
            raise ValueError(
                f"{path}:{lineno}: corrupt store line — run "
                "`repro-sched store doctor` before migrating "
                "(migration refuses to silently drop data)"
            ) from stored
        yield raw, stored


def _require_fresh_dest(dest: Path) -> None:
    if dest.exists() and not (dest.is_dir() and not any(dest.iterdir())):
        raise ValueError(
            f"{dest}: destination already exists; migrate writes a "
            "fresh store (remove it or pick another path)"
        )


def migrate_to_sharded(
    src: Union[str, Path],
    dest: Union[str, Path],
    *,
    n_shards: int = DEFAULT_SHARDS,
) -> MigrationReport:
    """Split a single-file JSONL archive into a fresh sharded store.

    Every line lands verbatim in the shard its key hashes to, with
    within-shard relative order preserved; the order sidecar records
    the global interleaving so :func:`migrate_to_jsonl` can undo the
    split byte-identically. The destination must not already exist.
    """
    src = Path(src)
    dest = Path(dest)
    if not src.is_file():
        raise ValueError(f"{src}: no JSONL store file to migrate")
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    _require_fresh_dest(dest)

    order: list[int] = []
    shard_lines: list[list[str]] = [[] for _ in range(n_shards)]
    final_newline = True
    for raw, stored in _verbatim_lines(src):
        index = shard_index(stored.key, n_shards)
        final_newline = raw.endswith("\n")
        shard_lines[index].append(raw.rstrip("\n") + "\n")
        order.append(index)

    store = ShardedStore(dest, n_shards=n_shards)
    store.ensure_initialized()
    for shard_path, chunk in zip(store.shard_paths, shard_lines):
        if chunk:
            shard_path.write_text("".join(chunk), encoding="utf-8")
    (dest / ORDER_NAME).write_text(
        json.dumps(
            {
                "source": str(src),
                "n_lines": len(order),
                "final_newline": final_newline,
                "shards": order,
            }
        )
        + "\n",
        encoding="utf-8",
    )
    return MigrationReport(
        source=src,
        dest=dest,
        direction="jsonl->sharded",
        n_lines=len(order),
        n_shards=n_shards,
        order_preserved=True,
    )


def migrate_to_jsonl(
    src: Union[str, Path], dest: Union[str, Path]
) -> MigrationReport:
    """Merge a sharded store back into one JSONL file.

    If the order sidecar from the original split is present and still
    consistent with the shard files (nothing appended or compacted
    since), the original file is reconstructed byte-identically —
    including a missing final newline. Otherwise shards concatenate in
    index order: different bytes, same ``load()``.
    """
    src = Path(src)
    dest = Path(dest)
    if not is_sharded_dir(src):
        raise ValueError(f"{src}: no sharded store to migrate")
    _require_fresh_dest(dest)
    store = ShardedStore(src)

    per_shard = [
        [raw.rstrip("\n") for raw, _stored in _verbatim_lines(shard_path)]
        for shard_path in store.shard_paths
    ]
    n_lines = sum(len(lines) for lines in per_shard)

    order, final_newline = _load_order(src, per_shard)
    if order is not None:
        cursors = [0] * store.n_shards
        merged: list[str] = []
        for index in order:
            merged.append(per_shard[index][cursors[index]])
            cursors[index] += 1
        order_preserved = True
    else:
        merged = [line for lines in per_shard for line in lines]
        final_newline = True
        order_preserved = False

    text = "\n".join(merged)
    if merged and final_newline:
        text += "\n"
    dest.parent.mkdir(parents=True, exist_ok=True)
    _atomic_rewrite(dest, text)
    return MigrationReport(
        source=src,
        dest=dest,
        direction="sharded->jsonl",
        n_lines=n_lines,
        n_shards=store.n_shards,
        order_preserved=order_preserved,
    )


def _load_order(src: Path, per_shard: list[list[str]]):
    """The order sidecar's routing list, but only when it still agrees
    with what the shards hold (same total, same per-shard counts) —
    a store written to since the split replays wrong, so fall back."""
    try:
        payload = json.loads((src / ORDER_NAME).read_text("utf-8"))
        order = [int(i) for i in payload["shards"]]
        final_newline = bool(payload.get("final_newline", True))
    except (OSError, ValueError, KeyError, TypeError):
        return None, True
    if len(order) != sum(len(lines) for lines in per_shard):
        return None, True
    counts = [0] * len(per_shard)
    for index in order:
        if not 0 <= index < len(per_shard):
            return None, True
        counts[index] += 1
    if counts != [len(lines) for lines in per_shard]:
        return None, True
    return order, final_newline
