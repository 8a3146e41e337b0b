"""Process-pool experiment engine with streaming, resumable artifacts.

The paper's evaluation matrix (scenarios × sizes × schedulers × seeds)
is embarrassingly parallel: every cell generates its workload from its
own seed and simulates independently. This module fans the cells out
over a :class:`~concurrent.futures.ProcessPoolExecutor` (the SimCash
replication idiom), streams each finished run into a
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
are an input, not an exception): a crashed worker rebuilds the pool
and retries only the unfinished cells, a hung worker is killed by a
per-cell watchdog (``cell_timeout``), and a cell that keeps failing is
quarantined as a structured :class:`~repro.experiments.store.FailedCell`
record while the rest of the sweep completes. Because cells are pure
functions of their key, none of this can change a persisted byte — a
sweep that survived crashes is ``diff``-identical to one that never
saw them, which is exactly what the chaos suite
(:mod:`repro.experiments.faultinject`) asserts.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
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
    stays the parent's job (it stops feeding the pool)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


#: Per-process cache of open sharded stores for worker-side appends —
#: keeps each worker's manifest read and per-shard parsed caches warm
#: across the cells it executes.
_WORKER_STORES: dict[str, ShardedStore] = {}


def _execute_and_store_cell(
    cell: MatrixCell, attempt: int, store_path: str
) -> ExperimentRun:
    """Worker entry point for sharded stores: simulate one cell, then
    persist it **from inside the worker** into the cell's own shard.

    This is what makes sharded pooled sweeps truly concurrent writers:
    each worker appends directly to the shard its cell's key hashes
    to, under that shard's lock only — workers on different shards
    never serialize against each other, and the parent's funnel (every
    result crossing back before any byte is written) is gone. Safe
    because a key's shard assignment is process-independent and
    last-write-wins per key is per-shard; a retried cell that already
    landed just supersedes itself with identical bytes.
    """
    run = _execute_cell(cell, attempt)
    store = _WORKER_STORES.get(store_path)
    if store is None:
        store = ShardedStore(store_path)
        _WORKER_STORES[store_path] = store
    store.append(run)
    return run


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
    """Last *limit* lines of the exception's formatted traceback —
    workers chain the remote traceback onto the exception, so this
    captures where the cell actually died, compact enough for one
    sidecar line."""
    lines = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    ).strip().splitlines()
    return "\n".join(lines[-limit:])


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly stop a pool *now*: SIGTERM (escalating to SIGKILL)
    every worker, then shut the executor down without waiting.

    This is the watchdog's only option — ``ProcessPoolExecutor``
    cannot cancel a running task, so a hung worker is reclaimed by
    killing the whole pool and rebuilding it. Reaches into the private
    ``_processes`` map deliberately; the fallback (shutdown without
    waiting) still detaches us if that attribute ever moves.
    """
    procs = getattr(pool, "_processes", None)
    procs = list(procs.values()) if procs else []
    for proc in procs:
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - already-dead races
            pass
    for proc in procs:
        proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - SIGTERM almost always lands
            try:
                proc.kill()
                proc.join(timeout=5.0)
            except Exception:
                pass
    pool.shutdown(wait=False, cancel_futures=True)


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
    """Execute *cells* across a fault-tolerant process pool.

    Returns the runs for the cells that completed, in the order the
    cells were given (completion order never leaks into results). With
    ``resume=True`` and a store, cells whose key the store already
    holds are skipped — read them back with ``store.load()``.

    Fault tolerance (all of it inert on a healthy sweep — with no
    failures the engine behaves byte-identically to a plain pool):

    * A cell that raises is retried up to *max_retries* times with
      deterministic exponential backoff (``retry_backoff_s *
      2**(attempt-1)``). Because cells are pure functions of their
      key, a retry that succeeds is bit-identical to what the first
      try would have produced.
    * A dead worker (OOM kill, segfault — surfacing as
      ``BrokenExecutor``) breaks the whole pool: the pool is rebuilt
      and every unfinished in-flight cell is resubmitted. Cells whose
      futures carried the break are charged a retry attempt;
      bystanders re-ride free.
    * With *cell_timeout*, a watchdog kills the pool when any cell
      exceeds its wall-clock budget, charges the overdue cell(s) a
      timeout attempt, and reschedules the rest — a hung worker costs
      one rebuild, not the sweep. (Inline/1-worker sweeps cannot
      preempt themselves; the timeout is ignored there.)
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

    n_workers = resolve_workers(workers)
    results: dict[int, ExperimentRun] = {}
    failed: dict[int, FailedCell] = {}
    attempts = [0] * len(pending)
    sidecar = FailureSidecar.for_store(store) if store is not None else None

    def record(
        index: int, run: ExperimentRun, *, persisted: bool = False
    ) -> None:
        results[index] = run
        if store is not None and not persisted:
            store.append(run)
        if progress is not None:
            progress(pending[index], len(results), len(pending))

    def quarantine(index: int, exc: BaseException, kind: str) -> None:
        cell = pending[index]
        failed[index] = FailedCell(
            key=cell.key,
            kind=kind,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback_tail=_traceback_tail(exc),
            attempts=attempts[index],
            config=cell.to_config(),
        )
        if failures is not None:
            failures.append(failed[index])
        if sidecar is not None:
            sidecar.append(failed[index])

    def exhaust(index: int, exc: BaseException, kind: str) -> None:
        """A cell is out of retries: quarantine it or abort the sweep."""
        if on_cell_failure == "quarantine":
            quarantine(index, exc, kind)
            return
        raise CellFailedError(
            f"cell {cell_key_str(pending[index].key)} failed "
            f"({kind}) after {attempts[index]} attempt(s): {exc}"
        ) from exc

    if n_workers == 1 or len(pending) <= 1:
        _run_inline(
            pending, attempts, results, failed, record, exhaust,
            max_retries=max_retries, retry_backoff_s=retry_backoff_s,
        )
    else:
        # Sharded stores flip the write path: workers persist their
        # own cells into per-shard files (no parent funnel, no
        # cross-shard contention); the parent only does accounting.
        # The manifest is written up front so every worker reads one
        # agreed shard count.
        worker_store_path: Optional[str] = None
        if isinstance(store, ShardedStore):
            store.ensure_initialized()
            worker_store_path = str(store.path)
        _run_pooled(
            pending, attempts, results, failed, record, exhaust,
            n_workers=n_workers, cell_timeout=cell_timeout,
            max_retries=max_retries, retry_backoff_s=retry_backoff_s,
            worker_store_path=worker_store_path,
        )
    return [results[i] for i in range(len(pending)) if i in results]


def _run_inline(
    pending, attempts, results, failed, record, exhaust,
    *, max_retries: int, retry_backoff_s: float,
) -> None:
    """Serial execution with the same retry/quarantine semantics as
    the pool (minus the watchdog — a process cannot preempt itself)."""
    for i, cell in enumerate(pending):
        while True:
            attempts[i] += 1
            try:
                run = _execute_cell(cell, attempts[i])
            except KeyboardInterrupt as exc:
                cancelled = len(pending) - len(results) - len(failed)
                raise SweepInterrupted(
                    f"sweep interrupted: {len(results)} cell(s) "
                    f"completed (0 salvaged), {cancelled} cancelled"
                ) from exc
            except Exception as exc:
                if attempts[i] <= max_retries:
                    if retry_backoff_s > 0:
                        time.sleep(
                            retry_backoff_s * 2 ** (attempts[i] - 1)
                        )
                    continue
                exhaust(i, exc, "exception")
                break
            else:
                record(i, run)
                break


def _run_pooled(
    pending, attempts, results, failed, record, exhaust,
    *, n_workers: int, cell_timeout: Optional[float],
    max_retries: int, retry_backoff_s: float,
    worker_store_path: Optional[str] = None,
) -> None:
    """The fault-tolerant pool loop: windowed submission (at most
    *n_workers* cells in flight, so a submitted cell starts
    immediately and its deadline clock is honest), a watchdog over
    per-cell deadlines, and pool rebuilds on breakage.

    With *worker_store_path* (a sharded store), workers persist their
    own cells (:func:`_execute_and_store_cell`) and ``record`` runs
    with ``persisted=True`` — accounting only, no parent-side append.
    """
    persisted = worker_store_path is not None
    queue: deque[int] = deque(range(len(pending)))
    ready_at: dict[int, float] = {}
    inflight: dict = {}
    deadlines: dict = {}
    pool = ProcessPoolExecutor(
        max_workers=n_workers, initializer=_worker_init
    )
    consecutive_submit_breaks = 0

    def requeue(index: int, charged: bool) -> None:
        """Schedule a retry; charged failures back off, bystanders of
        a pool rebuild go back to the front at once, uncharged."""
        if charged:
            if retry_backoff_s > 0:
                ready_at[index] = time.monotonic() + (
                    retry_backoff_s * 2 ** (attempts[index] - 1)
                )
            queue.append(index)
        else:
            attempts[index] -= 1
            queue.appendleft(index)

    def retry_or_exhaust(index: int, exc: BaseException, kind: str) -> None:
        if attempts[index] <= max_retries:
            requeue(index, charged=True)
        else:
            exhaust(index, exc, kind)

    def drain_and_rebuild() -> None:
        """Kill the (broken/hung) pool, keep any finished results,
        resubmit the rest uncharged, and stand up a fresh pool."""
        nonlocal pool
        _kill_pool(pool)
        for fut, i in list(inflight.items()):
            if fut.done() and not fut.cancelled() and fut.exception() is None:
                record(i, fut.result(), persisted=persisted)
            else:
                requeue(i, charged=False)
        inflight.clear()
        deadlines.clear()
        pool = ProcessPoolExecutor(
            max_workers=n_workers, initializer=_worker_init
        )

    try:
        while queue or inflight:
            now = time.monotonic()
            # Fill free slots with ready cells (FIFO; backoff delays
            # only the head so retry order stays deterministic).
            while (
                queue
                and len(inflight) < n_workers
                and ready_at.get(queue[0], 0.0) <= now
            ):
                i = queue.popleft()
                att = attempts[i] + 1
                try:
                    if persisted:
                        fut = pool.submit(
                            _execute_and_store_cell, pending[i], att,
                            worker_store_path,
                        )
                    else:
                        fut = pool.submit(_execute_cell, pending[i], att)
                except BrokenExecutor:
                    # The pool died between batches; put the cell back
                    # (uncharged — it never ran) and rebuild.
                    queue.appendleft(i)
                    consecutive_submit_breaks += 1
                    if consecutive_submit_breaks > 3:
                        raise RuntimeError(
                            "process pool keeps breaking before any "
                            "cell can start; giving up"
                        )
                    drain_and_rebuild()
                    break
                consecutive_submit_breaks = 0
                attempts[i] = att
                inflight[fut] = i
                if cell_timeout is not None:
                    deadlines[fut] = now + cell_timeout

            if not inflight:
                # Everything runnable is backing off; sleep until the
                # head of the queue is ready.
                time.sleep(
                    max(0.0, ready_at.get(queue[0], 0.0) - time.monotonic())
                )
                continue

            # Wake for the first completion, the nearest watchdog
            # deadline, or the next backoff expiry — whichever first.
            wakes = []
            if deadlines:
                wakes.append(min(deadlines.values()))
            if queue and len(inflight) < n_workers:
                wakes.append(ready_at.get(queue[0], 0.0))
            timeout = (
                max(0.0, min(wakes) - time.monotonic()) if wakes else None
            )
            done, _ = wait(
                set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
            )

            pool_broken = False
            for fut in done:
                i = inflight.pop(fut)
                deadlines.pop(fut, None)
                exc = fut.exception()
                if exc is None:
                    record(i, fut.result(), persisted=persisted)
                elif isinstance(exc, BrokenExecutor):
                    # The worker died without a goodbye (OOM kill,
                    # segfault, os._exit): the pool is toast.
                    pool_broken = True
                    retry_or_exhaust(i, exc, "pool-crash")
                else:
                    retry_or_exhaust(i, exc, "exception")

            now = time.monotonic()
            overdue = [f for f, dl in deadlines.items() if dl <= now]
            if overdue:
                # Watchdog: a hung worker cannot be cancelled, only
                # killed with its pool. Charge the overdue cell(s); the
                # drain below resubmits the innocent rest uncharged.
                for fut in overdue:
                    i = inflight.pop(fut)
                    deadlines.pop(fut)
                    retry_or_exhaust(
                        i,
                        TimeoutError(
                            f"cell exceeded --cell-timeout "
                            f"({cell_timeout:g}s); worker killed"
                        ),
                        "timeout",
                    )
                pool_broken = True

            if pool_broken:
                drain_and_rebuild()

        pool.shutdown(wait=True)
    except BaseException as exc:
        # Ctrl-C or an aborting cell failure: drop the queued cells,
        # let the <= n_workers in-flight cells finish, and persist
        # those — a resumed sweep then loses nothing that actually
        # completed. The salvage pass fires the progress callback with
        # the same monotone completed/total accounting as the main
        # loop, and the raised error reports the salvaged/cancelled
        # split.
        futs = set(inflight)
        if futs:
            grace = None
            if deadlines:
                grace = max(
                    0.0, max(deadlines.values()) - time.monotonic()
                )
            wait(futs, timeout=grace)
        salvaged = 0
        for fut, i in list(inflight.items()):
            if (
                i not in results
                and fut.done()
                and not fut.cancelled()
                and fut.exception() is None
            ):
                record(i, fut.result(), persisted=persisted)
                salvaged += 1
        _kill_pool(pool)
        cancelled = len(pending) - len(results) - len(failed)
        if isinstance(exc, KeyboardInterrupt):
            raise SweepInterrupted(
                f"sweep interrupted: {len(results)} cell(s) completed "
                f"({salvaged} salvaged after interrupt), "
                f"{cancelled} cancelled"
            ) from exc
        if isinstance(exc, CellFailedError):
            exc.args = (
                f"{exc.args[0]} [{len(results)} cell(s) completed, "
                f"{salvaged} salvaged after the failure, "
                f"{cancelled} cancelled]",
            )
        raise


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
