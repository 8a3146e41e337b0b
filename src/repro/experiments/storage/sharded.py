"""Hash-sharded run store: one directory, N independent JSONL shards.

A million-cell single-file archive makes the first parse and every
keyed query linear in the archive. :class:`ShardedStore` splits the
archive by **cell-key hash**: each cell's canonical key string is
SHA-256'd to pick one of ``n_shards`` shard files, so

* a keyed lookup parses exactly one shard (1/N of the archive),
* two processes sharing one store (a ``serve`` daemon and a
  ``matrix --out`` sweep) serialize per shard under a ``flock`` —
  there is no cross-shard lock — and
* every shard is an ordinary :class:`~repro.experiments.store.RunStore`
  file, inheriting its tail repair, bounded append retries, parsed-key
  cache, and doctor wholesale (the ScalienDB discipline: sharding
  composes with, never replaces, the crash-safety layer).

Appends never rewrite a shard: superseded lines (a cell re-run into
the same store) stay on disk until ``store doctor --dedupe`` drops
them, exactly as for a single-file archive.

Layout::

    runs.store/
        MANIFEST.json      format marker, schema version, shard count
        shard-000.jsonl    ordinary RunStore files, one per hash bucket
        shard-001.jsonl
        ...
        failures.jsonl     FailureSidecar (created on first quarantine)

Because a cell key always routes to exactly one shard, last-write-wins
resolution per key is untouched by sharding. What sharding *does*
change is global order: append order is kept per shard only, so
:meth:`ShardedStore.load` returns runs in **canonical key order**
(sorted by :data:`~repro.experiments.store.CellKey`) — a pure function
of the run *set*, identical in whatever order the cells completed.
The digest tests pin a 4-worker sharded sweep to the serial
single-file reference through exactly this canonicalization.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

try:  # POSIX: real inter-process append locks.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.experiments.store import (
    SCHEMA_VERSION,
    CellKey,
    DoctorReport,
    RunStore,
    StoreBackend,
    StoredRun,
    _atomic_rewrite,
    cell_key_str,
)

#: Manifest file that marks a directory as a sharded store and pins
#: its shard count (routing depends on it — changing the count moves
#: keys between shards, so it is store metadata, not a knob).
MANIFEST_NAME = "MANIFEST.json"

#: Failure sidecar, inside the store directory.
SIDECAR_NAME = "failures.jsonl"

#: Format marker inside the manifest, checked on every manifest read.
STORE_FORMAT = "sharded-runstore"

#: Bump when the manifest shape itself changes incompatibly.
MANIFEST_VERSION = 1

#: Default shard count for new stores: a keyed read parses 1/16 of the
#: archive, and a full load is still a handful of file reads.
DEFAULT_SHARDS = 16


def shard_index(key: CellKey, n_shards: int) -> int:
    """Which shard holds *key*: SHA-256 of the canonical key string,
    reduced mod the shard count. Stable across processes and Python
    versions (never ``hash()`` — that is salted per process) so every
    worker and every later session routes a key identically."""
    digest = hashlib.sha256(cell_key_str(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


def shard_name(index: int) -> str:
    """Shard filename for *index* (zero-padded so lexicographic order
    is numeric order)."""
    return f"shard-{index:03d}.jsonl"


def is_sharded_store(path: Union[str, Path]) -> bool:
    """Whether *path* looks like a sharded store: a directory holding
    a manifest, or (manifest lost) at least one shard file — the
    doctor can rebuild a manifest, so shard files alone still count —
    or only a failure sidecar, which is what a sweep into a fresh
    store leaves when every one of its cells is quarantined."""
    p = Path(path)
    if not p.is_dir():
        return False
    if (p / MANIFEST_NAME).exists() or (p / SIDECAR_NAME).exists():
        return True
    return any(p.glob("shard-*.jsonl"))


class ShardedStore(StoreBackend):
    """Cell-key-hash sharded run store over per-shard ``RunStore``s.

    See the module docstring for the layout and ordering contract. The
    directory and manifest are created lazily on first append (a
    missing store reads as empty, so ``--resume`` against a fresh path
    is a no-op), or eagerly via :meth:`ensure_initialized`, which the
    first append and ``store migrate`` call.
    """

    def __init__(self, path: Union[str, Path], *, n_shards: Optional[int] = None):
        self._open(path, n_shards, tolerant=False)

    @classmethod
    def for_repair(cls, path: Union[str, Path]) -> "ShardedStore":
        """Open *path* for ``store doctor``: a garbled manifest counts
        as lost — the shard count is inferred from the shard files, as
        for a missing one — where every other way in raises, so that
        :meth:`doctor` gets to run and rebuild it."""
        store = cls.__new__(cls)
        store._open(path, None, tolerant=True)
        return store

    def _open(self, path, n_shards, tolerant) -> None:
        self.path = Path(path)
        manifest = self._read_manifest(tolerant)
        if manifest is not None:
            disk_shards = manifest["n_shards"]
            if n_shards is not None and n_shards != disk_shards:
                raise ValueError(
                    f"{self.path}: store has {disk_shards} shard(s); "
                    f"requested {n_shards} — the shard count is fixed "
                    "at creation (rerouting keys needs a migrate)"
                )
            self.n_shards = disk_shards
        else:
            # A fresh store, or the manifest is lost: shard files on
            # disk give the count, so reads still work (``doctor``
            # rewrites the manifest); none means the default.
            self.n_shards = (
                n_shards if n_shards is not None else self._infer_n_shards()
            )
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        #: One ordinary :class:`RunStore` per shard file, by shard index.
        self._shards = [
            RunStore(self.path / shard_name(index))
            for index in range(self.n_shards)
        ]

    # -- manifest --------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.path / MANIFEST_NAME

    def _read_manifest(
        self, tolerant: bool = False
    ) -> Optional[dict[str, Any]]:
        """The manifest payload, or ``None`` when there is none. A
        garbled one — what ``store doctor`` rebuilds — raises, or with
        *tolerant* (the doctor's own reads) counts as missing; one
        written by newer code raises either way."""
        try:
            payload = json.loads(self.manifest_path.read_text("utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            if tolerant:
                return None
            raise ValueError(
                f"{self.manifest_path}: unreadable manifest ({exc}); "
                "run `repro-sched store doctor` to rebuild it"
            ) from exc
        if (
            not isinstance(payload, dict)
            or payload.get("format") != STORE_FORMAT
            or not isinstance(payload.get("n_shards"), int)
            or payload["n_shards"] < 1
        ):
            if tolerant:
                return None
            raise ValueError(
                f"{self.manifest_path}: not a {STORE_FORMAT} manifest; "
                "run `repro-sched store doctor` to rebuild it"
            )
        version = payload.get("manifest_version", 0)
        if not isinstance(version, int) or version > MANIFEST_VERSION:
            raise ValueError(
                f"{self.manifest_path}: manifest_version {version!r} is "
                f"newer than supported {MANIFEST_VERSION}; upgrade the "
                "code to read it"
            )
        return payload

    def _write_manifest(self) -> None:
        """Atomic manifest write, safe against concurrent writers
        racing to initialize the same store — they all write identical
        content, last replace wins. Keys this code does not write (the
        per-shard ``superseded`` counters of earlier versions) are
        ignored on read and dropped on the next write."""
        self.path.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": STORE_FORMAT,
            "manifest_version": MANIFEST_VERSION,
            "schema_version": SCHEMA_VERSION,
            "n_shards": self.n_shards,
        }
        _atomic_rewrite(
            self.manifest_path, json.dumps(payload, sort_keys=True) + "\n"
        )

    def _infer_n_shards(self) -> int:
        indexes = []
        for shard_file in self.path.glob("shard-*.jsonl"):
            stem = shard_file.name[len("shard-"):-len(".jsonl")]
            if stem.isdigit():
                indexes.append(int(stem))
        return max(indexes) + 1 if indexes else DEFAULT_SHARDS

    def ensure_initialized(self) -> None:
        """Create the directory, manifest, and every (empty) shard
        file. Shard files are created eagerly so a lost manifest can
        always recover the exact shard count by counting files — a
        lazily-created tail shard would make the inference undercount
        and silently reroute keys."""
        if not self.manifest_path.exists():
            self._write_manifest()
        for shard_path in self.shard_paths:
            shard_path.touch(exist_ok=True)

    # -- shard plumbing --------------------------------------------------
    @property
    def shard_paths(self) -> list[Path]:
        """Every shard file's path, in shard-index order."""
        return [shard.path for shard in self._shards]

    def shard_for(self, key: CellKey) -> RunStore:
        """The per-shard :class:`RunStore` that owns *key*."""
        return self._shards[shard_index(key, self.n_shards)]

    @contextlib.contextmanager
    def _append_lock(self, index: int):
        """Exclusive inter-process lock for one shard's appends.

        Two processes may share one store (a ``serve`` daemon and a
        ``matrix --out`` sweep) and land on the same shard; ``flock``
        on a per-shard lock file serializes the tail-repair + append
        pair so two writers never interleave bytes. Locks are **per
        shard**: writers on different shards never wait on each other.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        lock_path = self.path / f".{shard_name(index)}.lock"
        with lock_path.open("a") as lock_fh:
            fcntl.flock(lock_fh.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lock_fh.fileno(), fcntl.LOCK_UN)

    # -- writing ---------------------------------------------------------
    def append(self, stored: StoredRun) -> StoredRun:
        """Persist one run into its key's shard (creating the store on
        first use), under that shard's inter-process append lock.

        Rides the per-shard :meth:`RunStore.append` wholesale — tail
        repair, bounded ENOSPC retries, and the chaos-harness write
        hook all apply per shard file. The append neither reads the
        shard nor rewrites it; a line it supersedes stays until
        ``doctor(dedupe=True)``.
        """
        if not self.manifest_path.exists():
            self.ensure_initialized()
        index = shard_index(stored.key, self.n_shards)
        with self._append_lock(index):
            self._shards[index].append(stored)
        return stored

    # -- reading ---------------------------------------------------------
    def load(self, on_corrupt: str = "raise") -> list[StoredRun]:
        """All persisted runs in **canonical key order** (sorted by
        :data:`CellKey`), last write per cell winning.

        Canonical — not append — order because a pooled sweep appends
        in completion order, which varies run to run: sorting by key makes
        the result a pure function of the run *set*, so a 4-worker
        sharded sweep loads identically to a serial one. *on_corrupt*
        is forwarded to every shard (:meth:`RunStore.load` semantics
        per shard file).
        """
        return self._scan(None, on_corrupt)

    def _scan(
        self, keys: Optional[set[CellKey]], on_corrupt: str
    ) -> list[StoredRun]:
        """Only the shards *keys* hash to are read, so a keyed
        ``iter_runs`` costs what those shards cost, not the archive."""
        indexes = (
            range(self.n_shards)
            if keys is None
            else sorted({shard_index(key, self.n_shards) for key in keys})
        )
        runs = [
            run
            for index in indexes
            for run in self._shards[index].load(on_corrupt=on_corrupt)
        ]
        runs.sort(key=lambda run: run.key)
        return runs

    def completed_keys(self) -> set[CellKey]:
        """Union of every shard's persisted keys (keys never span
        shards, so this is exact)."""
        keys: set[CellKey] = set()
        for shard in self._shards:
            keys |= shard.completed_keys()
        return keys

    def get(self, key: CellKey) -> Optional[StoredRun]:
        """The persisted run for *key*, from its one owning shard —
        a single-shard parse (then cached), never a full-store scan."""
        return self.shard_for(key).get(key)

    # -- maintenance -----------------------------------------------------
    @property
    def sidecar_path(self) -> Path:
        """Failure sidecar lives *inside* the store directory so the
        sweep's artifacts — shards, manifest, quarantines, failures —
        travel as one directory."""
        return self.path / SIDECAR_NAME

    def doctor(
        self, dry_run: bool = False, *, dedupe: bool = False
    ) -> "ShardedDoctorReport":
        """Salvage the whole store: manifest repair plus a per-shard
        :meth:`RunStore.doctor` pass.

        A missing or unreadable manifest is rebuilt from the shard
        files on disk (their count *is* the shard count — see
        :meth:`ensure_initialized`); each shard then gets the ordinary
        doctor treatment — parseable lines kept byte-verbatim,
        unparseable lines moved to that shard's ``.quarantine`` file,
        and with *dedupe* superseded lines dropped — the one way a
        sharded store sheds them, as for a single file. With *dry_run*
        nothing is written anywhere.
        """
        manifest_repaired = self._read_manifest(tolerant=True) is None
        if manifest_repaired and not dry_run:
            self._write_manifest()
        reports = tuple(
            shard.doctor(dry_run=dry_run, dedupe=dedupe)
            for shard in self._shards
        )
        return ShardedDoctorReport(
            path=self.path,
            shard_reports=reports,
            manifest_repaired=manifest_repaired,
            dry_run=dry_run,
        )


@dataclass(frozen=True)
class ShardedDoctorReport:
    """Aggregate of one :meth:`ShardedStore.doctor` pass: the manifest
    verdict plus every shard's :class:`DoctorReport`. Mirrors the
    single-file report's ``clean``/``summary()`` surface so the CLI
    exit-code contract (0 healthy / 1 salvaged) is layout-blind."""

    path: Path
    shard_reports: tuple[DoctorReport, ...]
    manifest_repaired: bool
    dry_run: bool = False

    @property
    def n_kept(self) -> int:
        return sum(r.n_kept for r in self.shard_reports)

    @property
    def n_quarantined(self) -> int:
        return sum(r.n_quarantined for r in self.shard_reports)

    @property
    def n_deduped(self) -> int:
        return sum(r.n_deduped for r in self.shard_reports)

    @property
    def clean(self) -> bool:
        """No corruption anywhere — every shard parseable end to end
        and the manifest present and readable."""
        return not self.manifest_repaired and all(
            r.clean for r in self.shard_reports
        )

    def summary(self) -> str:
        lines = []
        if self.manifest_repaired:
            verb = "would rebuild" if self.dry_run else "rebuilt"
            lines.append(
                f"{self.path}: {verb} missing/unreadable "
                f"{MANIFEST_NAME} ({len(self.shard_reports)} shard(s))"
            )
        dirty = [r for r in self.shard_reports if not r.clean]
        deduped = [r for r in self.shard_reports if r.n_deduped]
        for report in dirty:
            lines.append(report.summary())
        for report in deduped:
            if report not in dirty:
                lines.append(report.summary())
        if not lines:
            return (
                f"{self.path}: healthy — {self.n_kept} parseable "
                f"line(s) across {len(self.shard_reports)} shard(s), "
                "nothing to quarantine"
            )
        lines.append(
            f"{self.path}: {self.n_kept} line(s) kept across "
            f"{len(self.shard_reports)} shard(s), "
            f"{self.n_quarantined} quarantined, "
            f"{self.n_deduped} compacted"
        )
        return "\n".join(lines)
