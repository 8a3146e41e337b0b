"""Multi-process experiment engine with streaming, resumable artifacts.

The paper's evaluation matrix (scenarios × sizes × schedulers × seeds)
is embarrassingly parallel: every cell generates its workload from its
own seed and simulates independently. This module fans the cells out
over worker processes it owns — one process, one pipe and at most one
cell in flight each — streams each finished run into a
:class:`~repro.experiments.store.RunStore` the moment it completes, and
— with ``resume=True`` — skips cells the store already holds, so a
killed sweep restarts where it left off.

This is the one path a grid of cells runs through: ``repro-sched
matrix``, the figure drivers of Figs. 3–7
(:mod:`repro.experiments.figures`) and
:func:`~repro.analysis.significance.compare_schedulers` each build
their cells with :func:`expand_cells` and hand them to
:func:`run_cells`, on every core unless told otherwise.

A cell answers with its measurement, the
:class:`~repro.experiments.store.StoredRun` the store persists, on the
inline and the pooled path alike: what a sweep's readers (the report,
the figures, the store) read, and no schedule. A caller that wants a
cell's schedule calls :func:`~repro.experiments.runner.run_single` for
it.

Determinism is part of the contract: a cell's result depends only on
its (scenario, n_jobs, scheduler, workload_seed, scheduler_seed,
arrival_mode) identity, never on worker scheduling, so
:func:`run_matrix_parallel` returns measurements equal to those of
running the same cells one after another in one process, for the same
seeds, in the same deterministic cell order: scenario, then size, then
scheduler, with seeds innermost.

The engine is also fault-tolerant (the ScalienDB discipline: crashes
are an input, not an exception) and recovery is sized to the failure:
a crashed worker is replaced and only its cell retried, a hung worker
is killed by a per-cell watchdog (``cell_timeout``) and replaced the
same way, and a cell that keeps failing is quarantined as a structured
:class:`~repro.experiments.store.FailedCell` record while the rest of
the sweep completes. Because cells are pure
functions of their key, none of this can change a persisted byte — a
sweep that survived crashes is ``diff``-identical to one that never
saw them, which is exactly what the chaos suite asserts, with faults
that ``tests/tooling/faults.py`` installs into :data:`cell_fault` and
the store's write slot.
"""

from __future__ import annotations

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

from repro.experiments.runner import DEFAULT_SCHEDULERS, MatrixCell, run_single
from repro.experiments.store import (
    FailedCell,
    FailureSidecar,
    StoredRun,
    cell_key_str,
)
from repro.experiments.storage import StoreBackend, open_store
from repro.sim.disruptions import DisruptionSpec
from repro.sim.topology import ClusterTopology
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

#: Chaos-harness slot, ``None`` unless a test installs one: called as
#: ``(cell-key string, attempt)`` before a cell simulates, it may
#: sleep, raise, or end the worker. Forked workers inherit it.
cell_fault: Optional[Callable[[str, int], None]] = None


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
) -> list[MatrixCell]:
    """Enumerate the full matrix in canonical (deterministic) order.

    The nesting is a serial sweep's — scenario → size → scheduler —
    with seed replication innermost, so a single-seed parallel sweep
    returns runs in exactly the order one process running the loops
    would. Disruption and topology settings apply uniformly to every
    cell.
    """
    return [
        MatrixCell(
            scenario, n_jobs, scheduler, wseed, sseed, arrival_mode,
            disruptions, restart_policy, checkpoint_interval, topology,
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


def _execute_cell(cell: MatrixCell, attempt: int = 1) -> StoredRun:
    """Worker entry point: simulate one cell (top-level for pickling)
    and answer with its measurement, the :class:`StoredRun` the store
    persists — the schedule itself never crosses a worker's pipe.

    *attempt* (1-based) exists solely for the chaos harness: the
    parent tracks how many times a cell has been tried so injected
    faults fire on deterministic attempts regardless of which worker
    process gets the cell. The simulation itself never sees it — a
    retried cell reproduces its first-try result bit for bit.
    """
    if cell_fault is not None:
        cell_fault(cell_key_str(cell.key), attempt)
    return StoredRun.from_run(run_single(
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
    ))


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


def _worker_main(conn: Connection, parent_end: Connection) -> None:
    """Body of one owned worker process: answer ``(cell, attempt)``
    tasks on *conn*, one at a time, with the cell's :class:`StoredRun`
    or with the exception the cell raised, until the explicit ``None``
    task. A worker computes and never opens a store: the parent
    persists every answer it receives.
    """
    _worker_init()
    # Under ``fork`` this process holds a copy of the parent's end of
    # its own pipe; while it does, a dead parent never reads as EOF.
    parent_end.close()
    try:
        while (task := conn.recv()) is not None:
            try:
                answer = _execute_cell(*task)
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

    def __init__(self) -> None:
        self.start()

    def start(self) -> None:
        self.conn, child_end = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_worker_main, daemon=True, args=(child_end, self.conn),
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
        self.results: dict[int, StoredRun] = {}
        self.failed: dict[int, FailedCell] = {}
        self.queue: deque[int] = deque(range(len(self.pending)))
        self.ready_at: dict[int, float] = {}
        self.workers: list[_Worker] = []

    # -- accounting (both paths) ----------------------------------------
    def record(self, index: int, run: StoredRun) -> None:
        self.results[index] = run
        if self.store is not None:
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
        try:
            for _ in range(min(n_workers, len(self.pending))):
                self.workers.append(_Worker())
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
        ``(cell index, StoredRun | Exception, failure kind)`` per
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
) -> list[StoredRun]:
    """Execute *cells* across fault-tolerant worker processes.

    Returns the :class:`StoredRun` measurements of the cells that
    completed, in the order the cells were given (completion order
    never leaks into results) — ``StoredRun.from_run(run_single(...))``
    of each, whether it ran inline or in a worker. With
    ``resume=True`` and a store, cells whose key the store already
    holds are skipped — read them back with ``store.load()``.

    *workers* is the pool size: ``None`` uses every core, ``1`` runs
    inline. *store* (a backend, or a path opened with
    :func:`~repro.experiments.storage.open_store`) receives each run
    the moment it completes. The parent appends it, whichever path ran
    the cell and whatever the store's layout: workers only compute.

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
    **sweep,
) -> list[StoredRun]:
    """Parallel, resumable scenarios × sizes × schedulers × seeds sweep:
    :func:`run_cells` over :func:`expand_cells`, with *sweep* (workers,
    store, resume, progress and the fault-tolerance knobs) passed on.

    Returns one :class:`StoredRun` per executed cell. For the same
    seeds they hold the metrics a serial loop over scenarios, sizes and
    schedulers (one workload per scenario and size, shared by its
    schedulers) produces, in the identical order, just faster.
    Accepts seed *sequences* so repetition sweeps (paper Fig. 7 style)
    fan out over the same pool.
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
    )
    return run_cells(cells, **sweep)
