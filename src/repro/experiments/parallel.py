"""Multi-process experiment engine with streaming, resumable artifacts.

The paper's evaluation matrix (scenarios × sizes × schedulers × seeds)
is embarrassingly parallel: every cell generates its workload from its
own seed and simulates independently. This module fans the cells out
over worker processes it owns — one process, one pipe and at most one
cell in flight each — streams each finished run into a
:class:`~repro.experiments.store.RunStore` the moment it completes, and
— with ``resume=True`` — skips cells the store already holds, so a
killed sweep restarts where it left off.

Determinism is part of the contract: a cell's result depends only on
its (scenario, n_jobs, scheduler, workload_seed, scheduler_seed,
arrival_mode) identity, never on worker scheduling, so
:func:`run_matrix_parallel` returns results bit-identical to the serial
:func:`~repro.experiments.runner.run_matrix` for the same seeds, in the
same deterministic cell order.

The engine is also fault-tolerant (the ScalienDB discipline: crashes
are an input, not an exception) and recovery is sized to the failure:
a crashed worker is replaced and only its cell retried, a hung worker
is killed by a per-cell watchdog (``cell_timeout``) and replaced the
same way, and a cell that keeps failing is quarantined as a structured
:class:`~repro.experiments.store.FailedCell` record while the rest of
the sweep completes. Because cells are pure
functions of their key, none of this can change a persisted byte — a
sweep that survived crashes is ``diff``-identical to one that never
saw them, which is exactly what the chaos suite
(:mod:`repro.experiments.faultinject`) asserts.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.experiments import faultinject
from repro.experiments.runner import (
    DEFAULT_SCHEDULERS,
    ExperimentRun,
    run_single,
)
from repro.experiments.store import (
    CellKey,
    FailedCell,
    FailureSidecar,
    cell_key,
    cell_key_str,
)
from repro.experiments.storage import ShardedStore, StoreBackend, open_store
from repro.schedulers.registry import scheduler_label
from repro.sim.disruptions import DisruptionSpec, disruption_signature
from repro.sim.topology import ClusterTopology, topology_signature
from repro.workloads.generator import ArrivalMode

#: Progress callback: (cell, completed runs so far, total cells).
ProgressFn = Callable[["MatrixCell", int, int], None]

#: Default per-cell retry budget: a cell may fail this many times
#: beyond its first try before it is quarantined/aborted. Transient
#: worker deaths (OOM kills, pool crashes) almost always succeed on
#: the rebuild, so 2 keeps sweeps alive without masking real bugs.
DEFAULT_MAX_RETRIES = 2

#: Base of the deterministic exponential backoff between retries of
#: the same cell (seconds): attempt k waits base * 2**(k-1).
DEFAULT_RETRY_BACKOFF_S = 0.1


class SweepInterrupted(KeyboardInterrupt):
    """Ctrl-C during a sweep, after the salvage pass: the message
    carries how many cells completed, were salvaged, and were
    cancelled. Subclasses ``KeyboardInterrupt`` so existing handlers
    (the CLI's 130-exit path) keep working unchanged."""


class CellFailedError(RuntimeError):
    """A cell exhausted its retry budget under the default
    ``on_cell_failure="abort"`` policy. Carries the failing cell's
    label, the attempt count, the original error (also chained as
    ``__cause__``), and — appended by the salvage pass — the
    completed/salvaged/cancelled accounting of the aborted sweep."""


@dataclass(frozen=True)
class MatrixCell:
    """Identity of one independent simulation in a sweep.

    The disruption and topology fields ride along because a worker
    must be able to reconstruct the cell bit-for-bit from the cell
    alone: spec and topology are frozen/picklable plain data, and the
    trace they build depends only on (spec, topology, cluster size,
    workload) — never on which worker runs it.
    """

    scenario: str
    n_jobs: int
    scheduler: str
    workload_seed: int = 0
    scheduler_seed: int = 0
    arrival_mode: ArrivalMode = "scenario"
    disruptions: Optional[DisruptionSpec] = None
    restart_policy: str = "resubmit"
    checkpoint_interval: Optional[float] = None
    topology: Optional[ClusterTopology] = None
    anneal_window: Optional[int] = None

    @property
    def scheduler_label(self) -> str:
        """Recorded scheduler name (see
        :func:`~repro.schedulers.registry.scheduler_label`)."""
        return scheduler_label(self.scheduler, self.anneal_window)

    @property
    def key(self) -> CellKey:
        return cell_key(
            self.scenario,
            self.n_jobs,
            self.scheduler_label,
            self.workload_seed,
            self.scheduler_seed,
            self.arrival_mode,
            disruption_signature(
                self.disruptions,
                self.restart_policy,
                self.checkpoint_interval,
            ),
            topology_signature(self.topology),
        )

    # -- lossless config round-trip --------------------------------------
    # The CellKey alone cannot rebuild a cell: its disruption/topology
    # parts are opaque signature strings. to_config()/from_config()
    # carry the actual constructor arguments, so a quarantined cell's
    # sidecar record is enough to re-run it (`matrix --retry-failed`).
    def to_config(self) -> dict:
        """JSON-safe dict from which :meth:`from_config` rebuilds the
        cell exactly (``from_config(to_config()) == cell``)."""
        return {
            "scenario": self.scenario,
            "n_jobs": self.n_jobs,
            "scheduler": self.scheduler,
            "workload_seed": self.workload_seed,
            "scheduler_seed": self.scheduler_seed,
            "arrival_mode": self.arrival_mode,
            "disruptions": (
                dataclasses.asdict(self.disruptions)
                if self.disruptions is not None
                else None
            ),
            "restart_policy": self.restart_policy,
            "checkpoint_interval": self.checkpoint_interval,
            "topology": (
                {
                    "n_nodes": self.topology.n_nodes,
                    "rack_size": self.topology.rack_size,
                    "racks_per_switch": self.topology.racks_per_switch,
                }
                if self.topology is not None
                else None
            ),
            "anneal_window": self.anneal_window,
        }

    @classmethod
    def from_config(cls, config: dict) -> "MatrixCell":
        """Inverse of :meth:`to_config`; raises ``ValueError`` on a
        malformed dict (e.g. hand-edited sidecar). Keys it does not
        know are ignored, so configs written before the ``"engine"``
        key was retired (PR 7–11 sidecars, older clients) still load."""
        try:
            disruptions = None
            if config.get("disruptions") is not None:
                disruptions = DisruptionSpec(**config["disruptions"])
            topology = None
            if config.get("topology") is not None:
                topology = ClusterTopology(**config["topology"])
            checkpoint = config.get("checkpoint_interval")
            window = config.get("anneal_window")
            return cls(
                scenario=str(config["scenario"]),
                n_jobs=int(config["n_jobs"]),
                scheduler=str(config["scheduler"]),
                workload_seed=int(config["workload_seed"]),
                scheduler_seed=int(config["scheduler_seed"]),
                arrival_mode=str(config["arrival_mode"]),
                disruptions=disruptions,
                restart_policy=str(config["restart_policy"]),
                checkpoint_interval=(
                    float(checkpoint) if checkpoint is not None else None
                ),
                topology=topology,
                anneal_window=int(window) if window is not None else None,
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed cell config: {exc}") from exc


def expand_cells(
    scenarios: Sequence[str],
    sizes: Sequence[int],
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    *,
    workload_seeds: Sequence[int] = (0,),
    scheduler_seeds: Sequence[int] = (0,),
    arrival_mode: ArrivalMode = "scenario",
    disruptions: Optional[DisruptionSpec] = None,
    restart_policy: str = "resubmit",
    checkpoint_interval: Optional[float] = None,
    topology: Optional[ClusterTopology] = None,
    anneal_window: Optional[int] = None,
) -> list[MatrixCell]:
    """Enumerate the full matrix in canonical (deterministic) order.

    Nesting matches :func:`~repro.experiments.runner.run_matrix` —
    scenario → size → scheduler — with seed replication innermost, so a
    single-seed parallel sweep returns runs in exactly the serial
    order. Disruption, topology, and windowing settings apply uniformly
    to every cell.
    """
    return [
        MatrixCell(
            scenario, n_jobs, scheduler, wseed, sseed, arrival_mode,
            disruptions, restart_policy, checkpoint_interval, topology,
            anneal_window,
        )
        for scenario in scenarios
        for n_jobs in sizes
        for scheduler in schedulers
        for wseed in workload_seeds
        for sseed in scheduler_seeds
    ]


def _worker_init() -> None:
    """Workers ignore SIGINT: a terminal Ctrl-C signals the whole
    process group, and without this the in-flight cells die with the
    keystroke instead of finishing and being persisted. Cancellation
    stays the parent's job (it stops feeding the workers)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _execute_cell(cell: MatrixCell, attempt: int = 1) -> ExperimentRun:
    """Worker entry point: simulate one cell (top-level for pickling).

    *attempt* (1-based) exists solely for the chaos harness: the
    parent tracks how many times a cell has been tried so injected
    faults fire on deterministic attempts regardless of which worker
    process gets the cell. The simulation itself never sees it — a
    retried cell reproduces its first-try result bit for bit.
    """
    faultinject.on_cell_attempt(cell_key_str(cell.key), attempt)
    return run_single(
        cell.scenario,
        cell.n_jobs,
        cell.scheduler,
        workload_seed=cell.workload_seed,
        scheduler_seed=cell.scheduler_seed,
        arrival_mode=cell.arrival_mode,
        disruptions=cell.disruptions,
        restart_policy=cell.restart_policy,
        checkpoint_interval=cell.checkpoint_interval,
        topology=cell.topology,
        anneal_window=cell.anneal_window,
    )


def resolve_workers(workers: Optional[int]) -> int:
    """Resolve a worker request: ``None`` → all cores, otherwise a
    floor of 1. Requests above the core count are honored as given —
    deliberate oversubscription is harmless (the OS time-slices) and
    it keeps the pool path exercisable on small machines."""
    if workers is None:
        return os.cpu_count() or 1
    return max(1, int(workers))


def _traceback_tail(exc: BaseException, limit: int = 15) -> str:
    """Last *limit* lines of the exception's formatted traceback,
    compact enough for one sidecar line. An exception that crossed a
    worker's pipe lost its traceback to the pickle; the tail the worker
    sent along is preferred, so the record names the line that died."""
    remote = getattr(exc, "worker_traceback", None)
    if remote:
        return remote
    lines = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    ).strip().splitlines()
    return "\n".join(lines[-limit:])


class WorkerLost(RuntimeError):
    """A worker's pipe read EOF: the process died without a goodbye
    (OOM kill, segfault, ``os._exit``) while running one cell."""


def _worker_main(
    conn: Connection, parent_end: Connection, store_path: Optional[str]
) -> None:
    """Body of one owned worker process: answer ``(cell, attempt)``
    tasks on *conn*, one at a time, with the run or with the exception
    the cell raised, until the explicit ``None`` task.

    With *store_path* (a sharded store) the worker persists each cell
    itself, into the shard the cell's key hashes to and under that
    shard's lock only — concurrent writers with no parent funnel.
    Safe because a key's shard is process-independent and
    last-write-wins is per shard: a retried cell that already landed
    supersedes itself with identical bytes. The store object lives as
    long as the worker, so its manifest read and parsed shards stay
    warm across cells.
    """
    _worker_init()
    # Under ``fork`` this process holds a copy of the parent's end of
    # its own pipe; while it does, a dead parent never reads as EOF.
    parent_end.close()
    store = ShardedStore(store_path) if store_path is not None else None
    try:
        while (task := conn.recv()) is not None:
            try:
                answer = _execute_cell(*task)
                if store is not None:
                    store.append(answer)
            except Exception as exc:
                exc.worker_traceback = _traceback_tail(exc)
                answer = exc
            conn.send(answer)
    except (EOFError, OSError):  # pragma: no cover - the parent died
        return


class _Worker:
    """One child process the sweep owns, its duplex pipe, and the at
    most one cell it has in flight (*index*, with its watchdog
    *deadline* when a ``cell_timeout`` was asked for)."""

    def __init__(self, store_path: Optional[str]) -> None:
        self.store_path = store_path
        self.start()

    def start(self) -> None:
        self.conn, child_end = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_worker_main, daemon=True,
            args=(child_end, self.conn, self.store_path),
        )
        self.process.start()
        # Ours must not keep the child's end open, or a *dead* worker
        # would never read as EOF.
        child_end.close()
        self.index: Optional[int] = None
        self.deadline: Optional[float] = None

    def dismiss(self) -> None:
        """Tell an idle worker to exit. Closing the pipe is not
        enough: under ``fork`` every later worker inherited our end of
        it, so the idle worker would never read EOF."""
        if self.index is None:
            try:
                self.conn.send(None)
            except OSError:  # pragma: no cover - it died idle
                pass

    def reap(self) -> None:
        """Leave no child behind: wait for a dismissed worker, kill a
        busy (hung, or already dead) one — SIGTERM, then SIGKILL."""
        if self.index is None:
            self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - SIGTERM lands
            self.process.kill()
            self.process.join(timeout=5.0)
        self.conn.close()

    def replace(self) -> None:
        """This worker is lost (dead or hung): kill it and stand a
        fresh process in its slot. No other worker is touched."""
        self.reap()
        self.start()


@dataclass
class _Sweep:
    """The state of one :func:`run_cells` call — cells, attempts,
    results, failures, and for the pooled path the FIFO queue, the
    backoff clock (``ready_at``) and the owned workers — with the loop
    bodies as methods (the ``EngineState`` pattern)."""

    pending: list[MatrixCell]
    store: Optional[StoreBackend]
    progress: Optional[ProgressFn]
    failures: Optional[list[FailedCell]]
    cell_timeout: Optional[float]
    max_retries: int
    retry_backoff_s: float
    on_cell_failure: str

    def __post_init__(self) -> None:
        self.sidecar = (
            FailureSidecar.for_store(self.store)
            if self.store is not None else None
        )
        self.attempts = [0] * len(self.pending)
        self.results: dict[int, ExperimentRun] = {}
        self.failed: dict[int, FailedCell] = {}
        self.queue: deque[int] = deque(range(len(self.pending)))
        self.ready_at: dict[int, float] = {}
        self.workers: list[_Worker] = []
        #: Sharded stores flip the write path: workers persist their
        #: own cells into per-shard files (no parent funnel, no
        #: cross-shard contention); the parent only does accounting.
        self.persisted = False

    # -- accounting (both paths) ----------------------------------------
    def record(self, index: int, run: ExperimentRun) -> None:
        self.results[index] = run
        if self.store is not None and not self.persisted:
            self.store.append(run)
        if self.progress is not None:
            self.progress(
                self.pending[index], len(self.results), len(self.pending)
            )

    def backoff_s(self, index: int) -> float:
        return self.retry_backoff_s * 2 ** (self.attempts[index] - 1)

    def exhaust(self, index: int, exc: BaseException, kind: str) -> None:
        """A cell is out of retries: quarantine it or abort the sweep."""
        cell = self.pending[index]
        if self.on_cell_failure != "quarantine":
            raise CellFailedError(
                f"cell {cell_key_str(cell.key)} failed "
                f"({kind}) after {self.attempts[index]} attempt(s): {exc}"
            ) from exc
        self.failed[index] = FailedCell(
            key=cell.key,
            kind=kind,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback_tail=_traceback_tail(exc),
            attempts=self.attempts[index],
            config=cell.to_config(),
        )
        if self.failures is not None:
            self.failures.append(self.failed[index])
        if self.sidecar is not None:
            self.sidecar.append(self.failed[index])

    def cancelled(self) -> int:
        return len(self.pending) - len(self.results) - len(self.failed)

    # -- inline ---------------------------------------------------------
    def run_inline(self) -> None:
        """Serial execution in this process, same retry/quarantine
        rules (no watchdog: a process cannot preempt itself, which is
        why a ``cell_timeout`` always gets a worker)."""
        for i, cell in enumerate(self.pending):
            while True:
                self.attempts[i] += 1
                try:
                    run = _execute_cell(cell, self.attempts[i])
                except KeyboardInterrupt as exc:
                    raise SweepInterrupted(
                        f"sweep interrupted: {len(self.results)} cell(s) "
                        f"completed (0 salvaged), "
                        f"{self.cancelled()} cancelled"
                    ) from exc
                except Exception as exc:
                    if self.attempts[i] > self.max_retries:
                        self.exhaust(i, exc, "exception")
                        break
                    if self.retry_backoff_s > 0:
                        time.sleep(self.backoff_s(i))
                else:
                    self.record(i, run)
                    break

    # -- owned workers --------------------------------------------------
    def run_pooled(self, n_workers: int) -> None:
        """The fault-tolerant loop: ``min(n_workers, cells)`` owned
        processes with at most one cell each (a dispatched cell starts
        at once, so its deadline clock is honest); an exception answer,
        a dead worker, an overdue deadline each cost that one cell."""
        store_path = None
        if isinstance(self.store, ShardedStore):
            # The manifest is written up front so every worker reads
            # one agreed shard count.
            self.store.ensure_initialized()
            store_path = str(self.store.path)
            self.persisted = True
        try:
            for _ in range(min(n_workers, len(self.pending))):
                self.workers.append(_Worker(store_path))
            while self.queue or self.busy():
                self.dispatch()
                for answer in self.collect(self.next_wake_s()):
                    self.settle(*answer)
                self.reap_overdue()
        except BaseException as exc:
            # Ctrl-C or an aborting cell: drop the queue, let in-flight
            # cells finish and persist them — a resume loses nothing.
            salvaged = self.salvage()
            if isinstance(exc, KeyboardInterrupt):
                raise SweepInterrupted(
                    f"sweep interrupted: {len(self.results)} cell(s) "
                    f"completed ({salvaged} salvaged after interrupt), "
                    f"{self.cancelled()} cancelled"
                ) from exc
            if isinstance(exc, CellFailedError):
                exc.args = (
                    f"{exc.args[0]} [{len(self.results)} cell(s) "
                    f"completed, {salvaged} salvaged after the failure, "
                    f"{self.cancelled()} cancelled]",
                )
            raise
        finally:
            for worker in self.workers:
                worker.dismiss()
            for worker in self.workers:
                worker.reap()

    def busy(self) -> list[_Worker]:
        return [w for w in self.workers if w.index is not None]

    def dispatch(self) -> None:
        """Hand ready cells to idle workers (FIFO; backoff delays only
        the head, so retry order stays deterministic)."""
        now = time.monotonic()
        for worker in self.workers:
            if not self.queue or self.ready_at.get(self.queue[0], 0.0) > now:
                return
            if worker.index is not None:
                continue
            index = self.queue.popleft()
            self.attempts[index] += 1
            try:
                worker.conn.send((self.pending[index], self.attempts[index]))
            except OSError:  # pragma: no cover - the worker died idle:
                pass  # collect() reads its EOF like any other death
            worker.index = index
            if self.cell_timeout is not None:
                worker.deadline = now + self.cell_timeout

    def next_wake_s(self) -> Optional[float]:
        """Seconds until the nearest watchdog deadline or — when a
        worker is idle — the head's backoff expiry; ``None`` waits for
        an answer alone."""
        wakes = [w.deadline for w in self.workers if w.deadline is not None]
        if self.queue and len(self.busy()) < len(self.workers):
            wakes.append(self.ready_at.get(self.queue[0], 0.0))
        return max(0.0, min(wakes) - time.monotonic()) if wakes else None

    def collect(self, timeout: Optional[float]):
        """Wait up to *timeout* for busy workers to answer and yield
        ``(cell index, ExperimentRun | Exception, failure kind)`` per
        answer. EOF on a pipe is a dead worker: it is replaced and its
        cell answers :class:`WorkerLost`, a ``"pool-crash"``.

        The worker's in-flight slot is cleared *before* the answer is
        handed out: recording it may raise (the progress callback's
        ``KeyboardInterrupt``), and the salvage pass must not wait for
        an answer already consumed.
        """
        by_conn = {w.conn: w for w in self.busy()}
        for conn in wait(list(by_conn), timeout):
            worker = by_conn[conn]
            index, kind = worker.index, "exception"
            try:
                answer = conn.recv()
            except Exception as exc:  # EOFError, ConnectionResetError
                kind = "pool-crash"
                answer = WorkerLost(f"worker died mid-cell: {exc!r}")
                worker.replace()
            worker.index = worker.deadline = None
            yield index, answer, kind

    def settle(self, index: int, answer, kind: str) -> None:
        """Book one answer: a run is recorded; an exception charges
        the cell its attempt — back of the queue after its backoff, or
        out of retries."""
        if not isinstance(answer, Exception):
            self.record(index, answer)
        elif self.attempts[index] > self.max_retries:
            self.exhaust(index, answer, kind)
        else:
            if self.retry_backoff_s > 0:
                self.ready_at[index] = (
                    time.monotonic() + self.backoff_s(index)
                )
            self.queue.append(index)

    def reap_overdue(self) -> None:
        """Watchdog: a hung cell cannot be cancelled, only killed with
        its worker — that worker, and no other."""
        now = time.monotonic()
        for worker in self.workers:
            if worker.deadline is not None and worker.deadline <= now:
                index = worker.index
                worker.replace()
                timeout = TimeoutError(
                    f"cell exceeded --cell-timeout "
                    f"({self.cell_timeout:g}s); worker killed"
                )
                self.settle(index, timeout, "timeout")

    def salvage(self) -> int:
        """After Ctrl-C or an abort: wait for the in-flight cells (no
        longer than the last watchdog deadline) and record the ones
        that finish, progress callback included; returns how many."""
        salvaged = 0
        while self.busy():
            deadlines = [w.deadline for w in self.busy() if w.deadline]
            grace = (
                max(0.0, max(deadlines) - time.monotonic())
                if deadlines else None
            )
            answers = list(self.collect(grace))
            if not answers:
                break  # still hung at the last deadline: reap() kills
            for index, answer, _ in answers:
                if not isinstance(answer, Exception):
                    self.record(index, answer)
                    salvaged += 1
        return salvaged


def run_cells(
    cells: Sequence[MatrixCell],
    *,
    workers: Optional[int] = None,
    store: Optional[Union[StoreBackend, str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
    cell_timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
    on_cell_failure: str = "abort",
    failures: Optional[list[FailedCell]] = None,
) -> list[ExperimentRun]:
    """Execute *cells* across fault-tolerant worker processes.

    Returns the runs for the cells that completed, in the order the
    cells were given (completion order never leaks into results). With
    ``resume=True`` and a store, cells whose key the store already
    holds are skipped — read them back with ``store.load()``.

    Fault tolerance (all of it inert on a healthy sweep — with no
    failures the engine behaves byte-identically to a plain pool), and
    every failure costs exactly the one cell it happened to:

    * A cell that raises is retried up to *max_retries* times with
      deterministic exponential backoff (``retry_backoff_s *
      2**(attempt-1)``). Because cells are pure functions of their
      key, a retry that succeeds is bit-identical to what the first
      try would have produced.
    * A dead worker (OOM kill, segfault — its pipe reads EOF) is
      replaced and the cell it was running charged a ``"pool-crash"``
      attempt; the other workers and their cells are not touched.
    * With *cell_timeout*, a watchdog kills the worker of any cell
      over its wall-clock budget, replaces that worker and charges the
      cell a ``"timeout"`` attempt. Such a sweep always runs in worker
      processes — even one cell, even ``workers=1`` — because a
      process cannot preempt itself.
    * A cell that exhausts its budget is handled per
      *on_cell_failure*: ``"abort"`` (default) raises
      :class:`CellFailedError` after salvaging finished cells;
      ``"quarantine"`` records a :class:`FailedCell` — appended to
      *failures* and, when a store is given, to its
      ``<store>.failures`` sidecar — and the sweep continues.

    Ctrl-C still cancels queued cells, lets in-flight cells finish and
    persists them; the raised :class:`SweepInterrupted` reports the
    completed/salvaged/cancelled split.
    """
    if on_cell_failure not in ("abort", "quarantine"):
        raise ValueError(
            f"unknown on_cell_failure policy: {on_cell_failure!r}"
        )
    if isinstance(store, (str, Path)):
        store = open_store(store)
    if resume and store is None:
        raise ValueError("resume=True requires a store")

    pending = list(cells)
    if resume and store is not None:
        done = store.completed_keys()
        pending = [c for c in pending if c.key not in done]

    sweep = _Sweep(
        pending, store, progress, failures, cell_timeout, max_retries,
        retry_backoff_s, on_cell_failure,
    )
    n_workers = resolve_workers(workers)
    if cell_timeout is None and (n_workers == 1 or len(pending) <= 1):
        sweep.run_inline()
    else:
        sweep.run_pooled(n_workers)
    return [sweep.results[i] for i in sorted(sweep.results)]


def run_matrix_parallel(
    scenarios: Sequence[str],
    sizes: Sequence[int],
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    *,
    workload_seeds: Sequence[int] = (0,),
    scheduler_seeds: Sequence[int] = (0,),
    arrival_mode: ArrivalMode = "scenario",
    disruptions: Optional[DisruptionSpec] = None,
    restart_policy: str = "resubmit",
    checkpoint_interval: Optional[float] = None,
    topology: Optional[ClusterTopology] = None,
    anneal_window: Optional[int] = None,
    workers: Optional[int] = None,
    store: Optional[Union[StoreBackend, str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
    cell_timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
    on_cell_failure: str = "abort",
    failures: Optional[list[FailedCell]] = None,
) -> list[ExperimentRun]:
    """Parallel, resumable scenarios × sizes × schedulers × seeds sweep.

    The parallel counterpart of
    :func:`~repro.experiments.runner.run_matrix`: for the same seeds it
    produces identical metrics in the identical order, just faster.
    Accepts seed *sequences* so repetition sweeps (paper Fig. 7 style)
    fan out over the same pool.

    Parameters
    ----------
    workers:
        Pool size; ``None`` uses every core, ``1`` runs inline.
    store:
        Optional store backend (or path, opened via
        :func:`~repro.experiments.storage.open_store`) that receives
        each completed run as one JSONL line, immediately on
        completion. With a :class:`ShardedStore` and ``workers >= 2``,
        pooled workers write their own cells straight into per-shard
        files — concurrent writers with no cross-shard contention.
    resume:
        Skip cells already persisted in *store*; only the remaining
        cells are executed (and returned).
    cell_timeout / max_retries / retry_backoff_s / on_cell_failure /
    failures:
        Fault-tolerance knobs, forwarded to :func:`run_cells` (per-cell
        watchdog budget, retry budget and deterministic backoff, and
        whether an exhausted cell aborts the sweep or is quarantined
        into *failures* and the store's ``.failures`` sidecar).
    """
    cells = expand_cells(
        scenarios,
        sizes,
        schedulers,
        workload_seeds=workload_seeds,
        scheduler_seeds=scheduler_seeds,
        arrival_mode=arrival_mode,
        disruptions=disruptions,
        restart_policy=restart_policy,
        checkpoint_interval=checkpoint_interval,
        topology=topology,
        anneal_window=anneal_window,
    )
    return run_cells(
        cells,
        workers=workers,
        store=store,
        resume=resume,
        progress=progress,
        cell_timeout=cell_timeout,
        max_retries=max_retries,
        retry_backoff_s=retry_backoff_s,
        on_cell_failure=on_cell_failure,
        failures=failures,
    )
