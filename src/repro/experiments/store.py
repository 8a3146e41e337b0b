"""Resumable JSONL artifact store for experiment runs.

Large sweeps (scenarios × sizes × schedulers × seeds) stream each
completed run's :class:`StoredRun` to disk as one schema-versioned
JSON line the moment it finishes, so a killed or crashed sweep loses
at most the cells in flight. On restart the engine asks the store
which cells are already persisted and skips them.

What is persisted is the *measurement*, not the full simulation: the
eight §3.2 metrics, the LLM overhead summary (§3.7 accounting) and a
decision summary (action counts by kind / acceptance). Full
:class:`~repro.sim.schedule.ScheduleResult` objects stay in memory
only — they are large and re-derivable from the (scenario, seed) cell.

Layout: one JSONL file, one line per cell, append-only. A truncated
final line (interrupted write) is tolerated on load; corruption
anywhere else raises.

The line codec costs what the ``json`` module costs. Every
:class:`StoredRun` field holds a JSON value by construction (``from_run``
and ``from_json`` build nothing else), so ``to_json`` encodes a shallow
field mapping, not a deep copy. ``from_json`` checks and coerces every
value first and only then builds the instance without the frozen
``__init__``. Both read ``_RUN_FIELDS``, which an import-time guard
holds equal to the dataclass fields.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Union

from repro.experiments.runner import CellKey, ExperimentRun, cell_key

#: Bump when the serialized shape changes incompatibly. Loaders accept
#: any version up to the current one (older lines keep their shape).
#: v2 added the disruption columns (``disruption`` config dict +
#: ``disruption_sig`` identity string); v1 lines load with both
#: defaulting to "no disruptions". v3 added ``topology_sig`` (cluster
#: topology identity, part of the cell key — the correlated-failure
#: trace a spec builds depends on the rack layout, so the same seeds
#: on a different topology are a different experiment); v1/v2 lines
#: load with it defaulting to "flat", which is exactly the topology
#: they ran under.
SCHEMA_VERSION = 3


def cell_key_str(key: CellKey) -> str:
    """Canonical ``|``-joined form of a cell key — the string the
    fault-injection harness matches rules against and failure records
    carry; stable across processes because the key is."""
    return "|".join(str(part) for part in key)


#: Fields an ``iter_runs(where=...)`` filter may name — exactly the
#: cell-identity columns of a :class:`StoredRun`, in CellKey order.
WHERE_FIELDS = (
    "scenario",
    "n_jobs",
    "scheduler",
    "workload_seed",
    "scheduler_seed",
    "arrival_mode",
    "disruption_sig",
    "topology_sig",
)

_INT_WHERE_FIELDS = frozenset(("n_jobs", "workload_seed", "scheduler_seed"))


def normalize_where(
    where: Optional[dict[str, Any]]
) -> dict[str, Any]:
    """Validate and coerce an ``iter_runs`` filter.

    Unknown field names raise (a typo'd filter must not silently match
    nothing); values are coerced to the column's type so string-typed
    CLI input (``--where n_jobs=60``) compares equal to stored ints.
    """
    if not where:
        return {}
    unknown = sorted(set(where) - set(WHERE_FIELDS))
    if unknown:
        raise ValueError(
            f"unknown where field(s): {', '.join(unknown)} "
            f"(queryable fields: {', '.join(WHERE_FIELDS)})"
        )
    return {
        name: (int(value) if name in _INT_WHERE_FIELDS else str(value))
        for name, value in where.items()
    }


@dataclass(frozen=True)
class StoredRun:
    """One persisted experiment cell: identity + measurements.

    What every sweep answers with, per cell: the matrix, the figures
    (:mod:`repro.experiments.figures`), ``compare`` and the report all
    read these. :class:`~repro.experiments.runner.ExperimentRun`, with
    the schedule itself, is for callers of ``run_single``.
    """

    scenario: str
    n_jobs: int
    scheduler: str
    workload_seed: int
    scheduler_seed: int
    #: The eight §3.2 objective values, by canonical metric name.
    metrics: dict[str, float]
    arrival_mode: str = "scenario"
    #: Action counts: n_decisions / n_accepted / n_rejected plus a
    #: per-kind breakdown (``by_kind``) over accepted actions.
    decision_summary: dict[str, Any] = field(default_factory=dict)
    #: Flattened ``OverheadSummary`` for LLM schedulers, else ``None``.
    overhead: Optional[dict[str, Any]] = None
    #: Canonical disruption identity (trace config + restart policy);
    #: "none" for undisrupted cells and for schema-v1 lines.
    disruption_sig: str = "none"
    #: Disruption configuration & outcome columns for disrupted cells
    #: (spec parameters, restart policy, kill counts), else ``None``.
    disruption: Optional[dict[str, Any]] = None
    #: Cluster topology identity ("flat" = no failure domains — the
    #: default, and what every pre-v3 line ran under).
    topology_sig: str = "flat"
    schema_version: int = SCHEMA_VERSION

    @property
    def key(self) -> CellKey:
        return cell_key(
            self.scenario,
            self.n_jobs,
            self.scheduler,
            self.workload_seed,
            self.scheduler_seed,
            self.arrival_mode,
            self.disruption_sig,
            self.topology_sig,
        )

    # -- construction ----------------------------------------------------
    @classmethod
    def from_run(cls, run: "ExperimentRun") -> "StoredRun":
        """Summarize a finished :class:`ExperimentRun` for persistence."""
        by_kind = Counter(
            d.action.kind.value for d in run.result.decisions if d.accepted
        )
        summary: dict[str, Any] = {
            "n_decisions": len(run.result.decisions),
            "n_accepted": sum(1 for d in run.result.decisions if d.accepted),
            "n_rejected": sum(
                1 for d in run.result.decisions if not d.accepted
            ),
            "by_kind": dict(sorted(by_kind.items())),
        }
        overhead: Optional[dict[str, Any]] = None
        if run.overhead is not None:
            overhead = {
                "model": run.overhead.model,
                "elapsed_s": run.overhead.elapsed_s,
                "n_calls": run.overhead.n_calls,
                "n_accepted_placements": run.overhead.n_accepted_placements,
                "n_rejected": run.overhead.n_rejected,
                "latency": asdict(run.overhead.latency),
            }
        disruption: Optional[dict[str, Any]] = None
        if run.disruption_spec is not None:
            disruption = {
                "spec": run.disruption_spec.as_dict(),
                "restart_policy": run.restart_policy,
                "checkpoint_interval": run.checkpoint_interval,
                "n_preemptions": len(run.result.preemptions),
                "kills": dict(
                    run.result.extras.get("disruption_kills", {})
                ),
            }
            # Per-domain attribution only exists for correlated /
            # domain-event traces; zero-correlation lines keep the
            # exact pre-topology shape.
            domain_kills = run.result.extras.get("domain_kills")
            if domain_kills is not None:
                disruption["domain_kills"] = dict(domain_kills)
        return cls(
            scenario=run.scenario,
            n_jobs=run.n_jobs,
            scheduler=run.scheduler,
            workload_seed=run.workload_seed,
            scheduler_seed=run.scheduler_seed,
            arrival_mode=run.arrival_mode,
            metrics=dict(run.metrics.as_dict()),
            decision_summary=summary,
            overhead=overhead,
            disruption_sig=run.disruption_sig,
            disruption=disruption,
            topology_sig=run.topology_sig,
        )

    # -- (de)serialization ----------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """Field name → value, for every name in :data:`_RUN_FIELDS`.

        Shallow: nested dicts are the run's own, not copies, so the
        mapping is for encoding (a store line, a wire payload), never
        for mutating."""
        return {name: getattr(self, name) for name in _RUN_FIELDS}

    def to_json(self) -> str:
        """One compact JSON line (no newline)."""
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "StoredRun":
        """Parse one store line; raises ``ValueError`` on bad input."""
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed store line: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError("store line is not a JSON object")
        version = payload.get("schema_version", 0)
        if not isinstance(version, int) or version < 1:
            raise ValueError(f"missing/invalid schema_version: {version!r}")
        if version > SCHEMA_VERSION:
            raise ValueError(
                f"store line has schema_version {version}, newer than "
                f"supported {SCHEMA_VERSION}; upgrade the code to read it"
            )
        try:
            # In _RUN_FIELDS order, which is also the order the checks
            # run in, so the first bad field is the one reported.
            values = (
                str(payload["scenario"]),
                int(payload["n_jobs"]),
                str(payload["scheduler"]),
                int(payload["workload_seed"]),
                int(payload["scheduler_seed"]),
                {str(k): float(v) for k, v in payload["metrics"].items()},
                str(payload.get("arrival_mode", "scenario")),
                dict(payload.get("decision_summary", {})),
                payload.get("overhead"),
                str(payload.get("disruption_sig", "none")),
                payload.get("disruption"),
                str(payload.get("topology_sig", "flat")),
                version,
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"store line missing field: {exc}") from exc
        # Fast construction (the engine's SystemView idiom): every value
        # is checked and coerced above, and the frozen __init__ would
        # only repeat it as 13 guarded setattrs.
        run = object.__new__(cls)
        run.__dict__.update(zip(_RUN_FIELDS, values))
        return run


#: :class:`StoredRun`'s fields in declaration order: the keys
#: ``as_dict`` writes and the slots ``from_json``'s fast construction
#: fills. Guarded at import, as ``engine._VIEW_FIELDS`` is: a field
#: added to the dataclass, or a ``__post_init__`` the fast path would
#: skip, fails here rather than writing or loading short records.
_RUN_FIELDS = (
    "scenario",
    "n_jobs",
    "scheduler",
    "workload_seed",
    "scheduler_seed",
    "metrics",
    "arrival_mode",
    "decision_summary",
    "overhead",
    "disruption_sig",
    "disruption",
    "topology_sig",
    "schema_version",
)
if tuple(f.name for f in fields(StoredRun)) != _RUN_FIELDS or hasattr(
    StoredRun, "__post_init__"
):
    raise AssertionError(
        "StoredRun fields changed; update _RUN_FIELDS and from_json's "
        "value tuple to match"
    )


def _repair_tail(path: Path, parse) -> None:
    """Fix a final line left without its newline by a killed write.

    Shared by every append-only JSONL file here (run archive, failure
    sidecar); *parse* is that file's line parser, raising
    ``ValueError`` on a bad line. A parseable tail lost only the
    ``\\n`` — it is a complete record (``load`` already counts it), so
    the newline is restored. An unparseable tail is a genuinely
    partial write and is truncated away; without that, the next append
    would glue its JSON onto the fragment, turning a tolerated
    truncated tail into interior corruption that poisons every later
    ``load``. Costs two seeks and one byte read when the file is
    healthy.
    """
    if not path.exists():
        return
    with path.open("r+b") as fh:
        fh.seek(0, os.SEEK_END)
        size = fh.tell()
        if size == 0:
            return
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) == b"\n":
            return
        # Scan backwards for the last newline, chunk at a time.
        last_nl = -1
        pos = size
        while pos > 0 and last_nl < 0:
            start = max(0, pos - 65536)
            fh.seek(start)
            idx = fh.read(pos - start).rfind(b"\n")
            if idx >= 0:
                last_nl = start + idx
            pos = start
        fh.seek(last_nl + 1)
        tail = fh.read().decode("utf-8", errors="replace")
        try:
            parse(tail)
        except ValueError:
            fh.truncate(last_nl + 1 if last_nl >= 0 else 0)
        else:
            fh.seek(0, os.SEEK_END)
            fh.write(b"\n")


def _read_jsonl(
    path: Path, parse: Callable[[str], Any]
) -> Iterator[tuple[int, str, Any, bool]]:
    """The one reader of every append-only JSONL file here (run
    archive, shard, failure sidecar), and the home of the torn-tail
    rule.

    Yields ``(lineno, raw, parsed, torn)`` per non-blank line: 1-based
    line number, the line verbatim (newline included where the file
    has it), what *parse* returned — or the ``ValueError`` it raised —
    and whether that failure is a **torn tail**: an unparseable last
    line that also lacks its newline, the signature of a write killed
    mid-line. Any other failure is corruption, and what to do about it
    is the caller's policy. A missing file reads as empty.
    """
    try:
        with path.open("r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        return
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            parsed, torn = parse(line), False
        except ValueError as exc:
            parsed = exc
            torn = lineno == len(lines) and not line.endswith("\n")
        yield lineno, line, parsed, torn


def _atomic_rewrite(path: Path, text: str) -> None:
    """Replace *path*'s content with *text*, or leave it untouched:
    the text is fsynced into a per-process temp file and renamed over
    *path*, so a reader — or a crash at any point — sees the old bytes
    or the new ones, never a mix, and a failed rewrite leaves no temp
    file behind."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class StoreBackend:
    """The query surface of a run archive, whatever its layout.

    Everything that consumes an archive — the matrix engine, the
    service result cache, ``report`` / ``figures``, the doctor CLI,
    failure sidecars — programs against this class. A layout provides
    ``path`` (a file for JSONL, a directory for sharded) and the
    primitives ``append`` / ``load`` / ``get`` / ``completed_keys`` /
    ``doctor`` / ``sidecar_path``; the queries below are written once
    on top of them.
    """

    path: Path

    def iter_runs(
        self,
        where: Optional[dict[str, Any]] = None,
        *,
        keys: Optional[set[CellKey]] = None,
        on_corrupt: str = "raise",
    ) -> Iterator[StoredRun]:
        """Query persisted runs by identity instead of scanning.

        *where* filters on cell-identity columns (:data:`WHERE_FIELDS`;
        values are type-coerced, unknown fields raise). *keys*
        restricts to an explicit key set — what the matrix engine uses
        to report exactly its own cells out of a shared archive. Both
        compose. A *where* that pins **every** identity field resolves
        through ``get`` — one dict lookup against the parsed index of a
        single file, a single-shard parse on a sharded store — which is
        what makes keyed queries on big archives cheap; an explicit
        *keys* set reads only the shards those keys route to.

        *on_corrupt* follows ``load`` semantics. Yields runs in the
        layout's load order, last write per cell winning.
        """
        where = normalize_where(where)
        if len(where) == len(WHERE_FIELDS) and on_corrupt == "raise":
            full = cell_key(*(where[name] for name in WHERE_FIELDS))
            run = self.get(full) if keys is None or full in keys else None
            if run is not None:
                yield run
            return
        for run in self._scan(keys, on_corrupt):
            if (keys is None or run.key in keys) and all(
                getattr(run, name) == value for name, value in where.items()
            ):
                yield run

    def _scan(
        self, keys: Optional[set[CellKey]], on_corrupt: str
    ) -> list[StoredRun]:
        """Every run that may hold one of *keys* (all runs for
        ``None``), in load order. A layout that can route a key to part
        of the archive overrides this to read only that part."""
        return self.load(on_corrupt=on_corrupt)

    def __contains__(self, key: CellKey) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return len(self.completed_keys())


#: Chaos-harness slot, ``None`` unless a test installs one
#: (``tests/tooling/faults.py``): called as ``(cell-key string, line)``
#: before each write attempt of :meth:`RunStore.append`, it returns
#: ``(text, complete)`` — a torn write is ``complete=False``, written
#: without its newline — or raises ``OSError`` as a full disk would.
write_fault: Optional[Callable[[str, str], tuple[str, bool]]] = None


class RunStore(StoreBackend):
    """Append-only JSONL store of :class:`StoredRun` lines.

    The file is created lazily on first append; a missing file reads as
    an empty store, which makes ``--resume`` on a fresh path a no-op
    rather than an error.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        #: Parsed-file cache: (stat signature, key → winning run). The
        #: dict is the whole index: assigning to a key already present
        #: keeps its first-appearance slot and takes the new value,
        #: which is the archive's resolution rule. Resume scans test
        #: membership in loops and the service's result cache calls
        #: :meth:`get` per request; both cost one ``stat`` and one dict
        #: lookup after one parse. Dropped whenever the file's
        #: (mtime_ns, size) changes — including writes by other
        #: processes; our own appends update it in place.
        self._cache: Optional[
            tuple[tuple[int, int], dict[CellKey, StoredRun]]
        ] = None

    def _stat_sig(self) -> Optional[tuple[int, int]]:
        try:
            st = self.path.stat()
        except FileNotFoundError:
            return None
        return (st.st_mtime_ns, st.st_size)

    def _invalidate(self) -> None:
        self._cache = None

    # -- writing ---------------------------------------------------------
    #: How many times ``append`` retries a failed write before letting
    #: the ``OSError`` surface. Disk-full is frequently transient on
    #: shared filesystems (another sweep's temp files, a log rotation);
    #: a bounded in-place retry rides it out without corrupting the
    #: archive or losing the cell.
    APPEND_RETRIES = 3

    def append(self, stored: StoredRun) -> StoredRun:
        """Persist one run and return it. Each line is flushed to the
        OS immediately so a crash loses at most the line being written.

        A write that fails with ``OSError`` (ENOSPC and kin) is retried
        up to :attr:`APPEND_RETRIES` times; each attempt re-repairs the
        tail first, so a partial write from the failed attempt is
        truncated away rather than glued onto the retry's line. If the
        condition persists the last error propagates — with the file
        left in a loadable state.

        The parsed index survives the append when it was valid just
        before the write and the file grew by exactly the bytes
        written: k appends then parse the file once, not k times. A
        retry, an injected torn or garbled line, or another writer's
        bytes in between drop it, and the next read re-parses.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = stored.to_json()
        last_err: Optional[OSError] = None
        for _attempt in range(1 + self.APPEND_RETRIES):
            try:
                _repair_tail(self.path, StoredRun.from_json)
                text, complete = line, True
                if write_fault is not None:
                    text, complete = write_fault(cell_key_str(stored.key), line)
                before = self._stat_sig()
                with self.path.open("a", encoding="utf-8") as fh:
                    fh.write(text + ("\n" if complete else ""))
                    fh.flush()
                    os.fsync(fh.fileno())
            except OSError as exc:
                last_err = exc
                self._invalidate()
                continue
            after = self._stat_sig()
            if (
                self._cache is not None
                and self._cache[0] == before
                and complete
                and text == line
                and after is not None
                and after[1] == before[1] + len(line.encode("utf-8")) + 1
            ):
                self._cache[1][stored.key] = stored
                self._cache = (after, self._cache[1])
            else:
                self._invalidate()
            return stored
        assert last_err is not None
        raise last_err

    # -- reading ---------------------------------------------------------
    def _index(self, on_corrupt: str = "raise") -> dict[CellKey, StoredRun]:
        """Key → winning run, in first-appearance order: the cached
        index while the file is unchanged, else one parse of it."""
        if on_corrupt not in ("raise", "quarantine"):
            raise ValueError(f"unknown on_corrupt policy: {on_corrupt!r}")
        sig = self._stat_sig()
        if self._cache is not None and self._cache[0] == sig:
            return self._cache[1]
        index: dict[CellKey, StoredRun] = {}
        clean = True
        for lineno, _raw, stored, torn in _read_jsonl(
            self.path, StoredRun.from_json
        ):
            if torn:
                break
            if isinstance(stored, ValueError):
                if on_corrupt == "quarantine":
                    clean = False
                    continue
                raise ValueError(
                    f"{self.path}:{lineno}: corrupt store line "
                    "(run `repro-sched store doctor` to salvage the "
                    "parseable lines)"
                ) from stored
            index[stored.key] = stored
        if clean and sig is not None:
            # Only a fully-parsed file is cached: a quarantine-mode
            # load over a corrupt file must not masquerade as the
            # strict view on the next (default) call.
            self._cache = (sig, index)
        return index

    def load(self, on_corrupt: str = "raise") -> list[StoredRun]:
        """All persisted runs, in first-appearance order, with the
        *last* write per cell winning — re-running a sweep into the
        same store (e.g. after a code change) supersedes the old
        lines, so ``report`` shows what ``matrix`` just computed.

        An unparseable final line is dropped only when it also lacks
        its trailing newline — the actual signature of a run killed
        mid-write (the cell simply re-runs on resume). For anything
        else (interior corruption, or a complete line a newer code
        version wrote) the *on_corrupt* policy decides:

        * ``"raise"`` (default): ``ValueError`` with the parse failure
          chained — corruption is loud.
        * ``"quarantine"``: the bad line is skipped in memory (the
          file is untouched) and every parseable run is returned, so
          one corrupt line costs one cell, not the archive. Run
          :meth:`doctor` to repair the file itself.
        """
        return list(self._index(on_corrupt).values())

    def completed_keys(self) -> set[CellKey]:
        """Cell keys already persisted (what ``--resume`` skips)."""
        return set(self._index())

    def get(self, key: CellKey) -> Optional[StoredRun]:
        """The persisted run for *key* (last write wins), or ``None``
        — one ``stat`` and one dict lookup while the file is unchanged,
        so the service's result cache can consult the archive per
        request."""
        return self._index().get(key)

    def doctor(
        self, dry_run: bool = False, *, dedupe: bool = False
    ) -> "DoctorReport":
        """Salvage a corrupted archive in place.

        Every parseable line is kept **verbatim** (byte-for-byte — the
        doctor never re-serializes healthy data); every unparseable
        line moves to ``<path>.quarantine``, prefixed with its original
        1-based line number, and a :class:`DoctorReport` says what was
        lost. A parseable final line that lost only its newline gets
        the newline restored. The rewrite is atomic, so a crash
        mid-doctor leaves the original archive untouched. With
        *dry_run* nothing is written.

        With *dedupe*, superseded duplicate-key lines are compacted
        away: each cell keeps only its **winning** (last-written) line,
        placed at the key's first-appearance position — exactly the
        order and content :meth:`load` already resolves, so compaction
        never changes what loads, only the bytes on disk. Dropped
        duplicates are counted in ``n_deduped`` (they are superseded
        data, not corruption — nothing goes to quarantine).
        """
        # Slot → verbatim line: keyed by cell under *dedupe*, so a
        # later line takes its cell's first slot as in ``_index``;
        # by line number otherwise, so every line keeps its own.
        kept: dict[Any, str] = {}
        bad: list[tuple[int, str]] = []
        n_parseable = 0
        for lineno, raw, stored, _torn in _read_jsonl(
            self.path, StoredRun.from_json
        ):
            line = raw.rstrip("\n")
            if isinstance(stored, ValueError):
                bad.append((lineno, line))
            else:
                n_parseable += 1
                kept[stored.key if dedupe else lineno] = line
        n_deduped = n_parseable - len(kept)
        report = DoctorReport(
            path=self.path,
            quarantine_path=self.quarantine_path,
            n_kept=len(kept),
            n_quarantined=len(bad),
            quarantined_lines=tuple(no for no, _ in bad),
            dry_run=dry_run,
            n_deduped=n_deduped,
        )
        if dry_run or (not bad and not n_deduped):
            return report
        if bad:
            with self.quarantine_path.open("a", encoding="utf-8") as fh:
                for lineno, line in bad:
                    fh.write(f"L{lineno}\t{line}\n")
        _atomic_rewrite(
            self.path, "".join(line + "\n" for line in kept.values())
        )
        self._invalidate()
        return report

    @property
    def quarantine_path(self) -> Path:
        """Where :meth:`doctor` moves unparseable lines."""
        return self.path.with_name(self.path.name + ".quarantine")

    @property
    def sidecar_path(self) -> Path:
        """Where this store's :class:`FailureSidecar` lives. Sidecar
        placement is a layout decision (one file next to a JSONL store,
        a file *inside* a sharded store's directory), so everything
        that writes or reads failure records derives the path from the
        store, never from an assumed file layout."""
        return self.path.with_name(self.path.name + ".failures")


@dataclass(frozen=True)
class DoctorReport:
    """What :meth:`RunStore.doctor` kept, moved, and would lose."""

    path: Path
    quarantine_path: Path
    n_kept: int
    n_quarantined: int
    #: Original 1-based line numbers of the quarantined lines.
    quarantined_lines: tuple[int, ...]
    dry_run: bool = False
    #: Superseded duplicate-key lines compacted away (``--dedupe``).
    n_deduped: int = 0

    @property
    def clean(self) -> bool:
        """No corruption found. Deduped lines are superseded data, not
        corruption, so they do not make an archive unclean."""
        return self.n_quarantined == 0

    def summary(self) -> str:
        dedupe_note = ""
        if self.n_deduped:
            verb = "would compact" if self.dry_run else "compacted"
            dedupe_note = (
                f"; {verb} {self.n_deduped} superseded duplicate "
                "line(s)"
            )
        if self.clean:
            return (
                f"{self.path}: healthy — {self.n_kept} parseable "
                f"line(s), nothing to quarantine{dedupe_note}"
            )
        verb = "would move" if self.dry_run else "moved"
        lines = ", ".join(str(no) for no in self.quarantined_lines)
        return (
            f"{self.path}: salvaged {self.n_kept} line(s); {verb} "
            f"{self.n_quarantined} unparseable line(s) "
            f"(line {lines}) to {self.quarantine_path} — those cells "
            f"are lost and will re-run on --resume{dedupe_note}"
        )


#: Sidecar schema version for FailedCell records. v2 added ``config``
#: — the full cell configuration (``MatrixCell.to_config()`` shape) so
#: ``matrix --retry-failed`` can rebuild and re-run the exact cell; v1
#: lines load with ``config=None`` and cannot be retried (the CellKey
#: alone carries opaque signature strings, not the spec that built
#: them).
FAILURE_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class FailedCell:
    """One quarantined sweep cell: identity + why it kept failing.

    Written to the failure sidecar when a cell exhausts its retry
    budget under ``on_cell_failure="quarantine"`` — the structured
    record that lets a failed cell be diagnosed and re-run without
    grepping sweep logs.
    """

    key: CellKey
    #: Failure class: "exception" (the cell raised), "timeout" (the
    #: watchdog killed a hung worker), "pool-crash" (the worker died —
    #: OOM kill, segfault — and was replaced).
    kind: str
    error_type: str
    message: str
    #: Last lines of the traceback (workers ship the remote traceback
    #: chained onto the exception); enough to diagnose, small enough
    #: to keep the sidecar line-sized.
    traceback_tail: str
    attempts: int
    #: Full cell configuration (``MatrixCell.to_config()``), enough to
    #: rebuild and re-run the cell; ``None`` on schema-v1 lines.
    config: Optional[dict[str, Any]] = None
    schema_version: int = FAILURE_SCHEMA_VERSION

    @property
    def label(self) -> str:
        """Short human identity, e.g. ``adversarial/10/fcfs w0 s0``."""
        sc, n, sched, ws, ss = self.key[:5]
        return f"{sc}/{n}/{sched} w{ws} s{ss}"

    def to_json(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["key"] = list(self.key)
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "FailedCell":
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed failure line: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError("failure line is not a JSON object")
        try:
            raw = payload["key"]
            key = cell_key(*raw[:6], *raw[6:])
            return cls(
                key=key,
                kind=str(payload["kind"]),
                error_type=str(payload["error_type"]),
                message=str(payload["message"]),
                traceback_tail=str(payload["traceback_tail"]),
                attempts=int(payload["attempts"]),
                config=payload.get("config"),
                schema_version=int(
                    payload.get("schema_version", FAILURE_SCHEMA_VERSION)
                ),
            )
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"failure line missing field: {exc}") from exc


class FailureSidecar:
    """Append-only JSONL sidecar of :class:`FailedCell` records.

    Lives next to the run store (``<store>.failures``) so a sweep's
    artifacts — what succeeded and what was given up on — travel as
    one pair of files.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    @classmethod
    def for_store(cls, store) -> "FailureSidecar":
        """Sidecar for any ``StoreBackend`` — the path comes from the
        backend's :attr:`sidecar_path`, so failure records follow the
        store whatever its layout (next to a JSONL file, inside a
        sharded store's directory) instead of assuming one file."""
        return cls(store.sidecar_path)

    def append(self, failed: FailedCell) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        _repair_tail(self.path, FailedCell.from_json)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(failed.to_json() + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def load(self) -> list[FailedCell]:
        """Every record, in file order. As in :meth:`RunStore.load`, a
        torn tail (a sweep killed mid-append) is dropped; any other bad
        line raises.
        """
        records = []
        for _lineno, _raw, record, torn in _read_jsonl(
            self.path, FailedCell.from_json
        ):
            if torn:
                break
            if isinstance(record, ValueError):
                raise record
            records.append(record)
        return records

    def prune(self, keys: set[CellKey]) -> int:
        """Drop records whose key is in *keys* (cells that have since
        succeeded — ``matrix --retry-failed`` calls this after a
        retried cell lands in the store) and compact the rest to one
        record per cell, the last written winning (a cell that failed
        again appended a refreshed record). Atomic rewrite; returns how
        many records were dropped. An emptied sidecar is deleted so a
        fully-recovered sweep leaves no ``.failures`` file behind.
        """
        records = self.load()
        survivors = {r.key: r for r in records if r.key not in keys}
        removed = len(records) - len(survivors)
        if not removed:
            return 0
        if not survivors:
            self.path.unlink()
            return removed
        _atomic_rewrite(
            self.path,
            "".join(r.to_json() + "\n" for r in survivors.values()),
        )
        return removed
