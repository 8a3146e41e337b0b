"""The service layer: sessions, the cell cache, and the process pool.

:class:`SchedulingService` is transport-agnostic — the socket server
(:mod:`repro.service.server`) drives its
:meth:`SchedulingService.handle` dispatch, and the tests run that same
server on a background thread, so every behaviour they pin holds for
real connections too.

Concurrency model, by workload class:

* **Session replays** run on the default thread executor: the
  session's accumulated jobs and its memoized result live in this
  process, so a replay in a pool worker would pickle the whole
  workload out and the whole schedule back on every generation, and
  the pool stays free for ``run_cell``. A per-session
  :class:`asyncio.Lock` serializes operations *within* one session —
  isolation between sessions, ordering inside one.
* **Sweep cells** (``run_cell``) are pure functions of their
  :class:`~repro.experiments.store.CellKey` and go to a process pool
  through the same ``_execute_cell`` entry point the sweep engine
  uses, which answers with the cell's
  :class:`~repro.experiments.store.StoredRun`: only the measurement
  crosses the pool's pipe.
  Identical concurrent requests coalesce onto one in-flight
  simulation; finished cells land in the two-tier
  :class:`~repro.service.cache.ResultCache`, so a repeat request never
  simulates again — the counters prove it.

Graceful shutdown: new requests are refused, in-flight ones drain
(bounded by a grace period), subscribers get a final ``shutdown``
event, and the pool is torn down.
"""

from __future__ import annotations

import asyncio
import itertools
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.experiments.parallel import (
    MatrixCell,
    _execute_cell,
    _worker_init,
    resolve_workers,
)
from repro.experiments.store import StoredRun, cell_key_str
from repro.experiments.storage import open_store
from repro.service import protocol
from repro.service.cache import DEFAULT_CACHE_SIZE, ResultCache
from repro.service.session import Session, SessionConfig, SessionError
from repro.sim.job import Job


class ServiceClosing(RuntimeError):
    """Request refused because the daemon is shutting down."""


class WorkerDied(RuntimeError):
    """A ``run_cell`` worker process died mid-simulation (OOM kill,
    segfault). The broken pool was dropped; the next request builds a
    fresh one, so the client may simply retry."""


class UnknownSession(KeyError):
    """The request named a session this daemon does not hold."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep it plain
        return self.args[0] if self.args else ""


#: Ops a client may invoke, mapped to handler method names.
_OPS = {
    "ping": "op_ping",
    "open_session": "op_open_session",
    "submit_jobs": "op_submit_jobs",
    "get_schedule": "op_get_schedule",
    "get_metrics": "op_get_metrics",
    "close_session": "op_close_session",
    "run_cell": "op_run_cell",
    "stats": "op_stats",
    "shutdown": "op_shutdown",
}


class SchedulingService:
    """Engine room shared by every transport (see module docstring)."""

    def __init__(
        self,
        *,
        store_path: Optional[Union[str, Path]] = None,
        workers: Optional[int] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        self.cache = ResultCache(
            None if store_path is None else open_store(store_path),
            cache_size,
        )
        self.workers = resolve_workers(workers or None)
        self._sessions: dict[str, Session] = {}
        self._session_locks: dict[str, asyncio.Lock] = {}
        self._session_counter = itertools.count(1)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._inflight_cells: dict[Any, asyncio.Future] = {}
        self._subscribers: set[asyncio.Queue] = set()
        self._closing = False
        self._active = 0
        self._drained = asyncio.Event()
        self._drained.set()
        #: Set by op_shutdown; the server awaits it to stop serving.
        self.shutdown_requested = asyncio.Event()

    # -- dispatch --------------------------------------------------------
    async def handle(
        self, op: str, params: Mapping[str, Any]
    ) -> dict[str, Any]:
        """Execute one request; raises on error (the transport maps
        exceptions to error responses)."""
        if self._closing and op not in ("ping", "stats"):
            raise ServiceClosing("service is shutting down")
        method = _OPS.get(op)
        if method is None:
            raise ValueError(f"unknown op: {op!r}")
        self._active += 1
        self._drained.clear()
        try:
            return await getattr(self, method)(dict(params))
        finally:
            self._active -= 1
            if self._active == 0:
                self._drained.set()

    # -- events ----------------------------------------------------------
    def subscribe(self) -> asyncio.Queue:
        """Register an event queue (the ``subscribe_events`` stream)."""
        queue: asyncio.Queue = asyncio.Queue(maxsize=1024)
        self._subscribers.add(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        self._subscribers.discard(queue)

    def publish(self, event: str, data: Mapping[str, Any]) -> None:
        """Fan an event out to every subscriber; a subscriber that
        stopped draining loses events, never blocks the service."""
        message = protocol.event_message(event, data)
        for queue in list(self._subscribers):
            try:
                queue.put_nowait(message)
            except asyncio.QueueFull:  # a slow reader
                pass

    # -- session ops -----------------------------------------------------
    def _session(self, params: Mapping[str, Any]) -> Session:
        session_id = str(params.get("session_id", ""))
        session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSession(f"unknown session: {session_id!r}")
        return session

    def _session_lock(self, session_id: str) -> asyncio.Lock:
        return self._session_locks[session_id]

    async def op_ping(self, params: dict) -> dict:
        return {"protocol": protocol.PROTOCOL_VERSION}

    async def op_open_session(self, params: dict) -> dict:
        config = SessionConfig(
            scheduler=str(params.get("scheduler", "fcfs")),
            scheduler_seed=int(params.get("scheduler_seed", 0)),
            max_retries=int(params.get("max_retries", 3)),
            max_decisions=(
                int(params["max_decisions"])
                if params.get("max_decisions") is not None
                else None
            ),
            enforce_walltime=bool(params.get("enforce_walltime", False)),
        )
        session_id = f"s{next(self._session_counter)}"
        self._sessions[session_id] = Session(session_id, config)
        self._session_locks[session_id] = asyncio.Lock()
        self.publish(
            "session_opened",
            {"session_id": session_id, "scheduler": config.scheduler},
        )
        return {"session_id": session_id}

    async def op_submit_jobs(self, params: dict) -> dict:
        session = self._session(params)
        raw = params.get("jobs")
        if not isinstance(raw, list):
            raise SessionError("submit_jobs needs a 'jobs' list")
        jobs: list[Job] = [protocol.job_from_wire(j) for j in raw]
        async with self._session_lock(session.session_id):
            added = session.append_jobs(jobs)
        self.publish(
            "jobs_submitted",
            {
                "session_id": session.session_id,
                "added": added,
                "n_jobs": session.n_jobs,
            },
        )
        return {
            "added": added,
            "n_jobs": session.n_jobs,
            "generation": session.generation,
        }

    async def _session_result(self, session: Session):
        loop = asyncio.get_running_loop()
        async with self._session_lock(session.session_id):
            return await loop.run_in_executor(None, session.ensure_result)

    async def op_get_schedule(self, params: dict) -> dict:
        session = self._session(params)
        result, metrics = await self._session_result(session)
        payload = {
            "session_id": session.session_id,
            "scheduler": session.config.scheduler,
            "n_jobs": session.n_jobs,
            "generation": session.generation,
            "records": [protocol.record_to_wire(r) for r in result.records],
            "decisions": [
                protocol.decision_to_wire(d) for d in result.decisions
            ],
            "preemptions": [
                protocol.preemption_to_wire(p) for p in result.preemptions
            ],
            "metrics": metrics,
            "digest": protocol.schedule_digest(result, metrics),
        }
        self.publish(
            "schedule_served",
            {
                "session_id": session.session_id,
                "n_jobs": session.n_jobs,
                "digest": payload["digest"],
            },
        )
        return payload

    async def op_get_metrics(self, params: dict) -> dict:
        session = self._session(params)
        result, metrics = await self._session_result(session)
        return {
            "session_id": session.session_id,
            "n_jobs": session.n_jobs,
            "metrics": metrics,
            "digest": protocol.schedule_digest(result, metrics),
        }

    async def op_close_session(self, params: dict) -> dict:
        session = self._session(params)
        async with self._session_lock(session.session_id):
            self._sessions.pop(session.session_id, None)
        self._session_locks.pop(session.session_id, None)
        self.publish("session_closed", {"session_id": session.session_id})
        return {"closed": session.session_id}

    # -- sweep cells -----------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_worker_init
            )
        return self._pool

    async def op_run_cell(self, params: dict) -> dict:
        config = params.get("config")
        if not isinstance(config, dict):
            raise ValueError("run_cell needs a 'config' object")
        # A cell that cannot run is a bad_request here, before the
        # cache counts a miss or the pool starts.
        cell = MatrixCell.from_config(config)
        key = cell.key
        stored, source = self.cache.lookup(key)
        if stored is not None:
            return self._cell_payload(stored, source)
        inflight = self._inflight_cells.get(key)
        if inflight is not None:
            # Identical request already simulating: ride along. shield
            # so one rider's disconnect cannot cancel the shared run.
            self.cache.stats.coalesced += 1
            stored = await asyncio.shield(inflight)
            return self._cell_payload(stored, "coalesced")
        task = asyncio.ensure_future(self._simulate_cell(cell))
        self._inflight_cells[key] = task
        try:
            stored = await asyncio.shield(task)
        finally:
            self._inflight_cells.pop(key, None)
        return self._cell_payload(stored, "simulated")

    async def _simulate_cell(self, cell: MatrixCell) -> StoredRun:
        loop = asyncio.get_running_loop()
        pool = self._ensure_pool()
        try:
            stored = await loop.run_in_executor(pool, _execute_cell, cell)
        except BrokenExecutor as exc:
            # One dead worker breaks a ProcessPoolExecutor for good:
            # drop it, or every later run_cell fails the same way.
            if self._pool is pool:
                self._pool = None
                pool.shutdown(wait=False, cancel_futures=True)
            raise WorkerDied(
                f"a worker died simulating {cell_key_str(cell.key)}; "
                f"the pool was replaced, retry the request"
            ) from exc
        self.cache.stats.simulations += 1
        self.cache.put(stored)
        self.publish(
            "cell_completed",
            {"key": list(stored.key), "scheduler": stored.scheduler},
        )
        return stored

    @staticmethod
    def _cell_payload(stored: StoredRun, source: str) -> dict:
        return {"source": source, "run": stored.as_dict()}

    # -- introspection / lifecycle ---------------------------------------
    async def op_stats(self, params: dict) -> dict:
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "closing": self._closing,
            "n_sessions": len(self._sessions),
            "sessions": {
                sid: s.stats() for sid, s in sorted(self._sessions.items())
            },
            "cache": self.cache.stats.as_dict(),
            "inflight_cells": len(self._inflight_cells),
        }

    async def op_shutdown(self, params: dict) -> dict:
        self.shutdown_requested.set()
        return {"stopping": True}

    async def aclose(self, grace_s: float = 30.0) -> None:
        """Drain and stop: refuse new requests, give in-flight ones
        *grace_s* seconds to finish, notify subscribers, kill the
        pool."""
        self._closing = True
        try:
            await asyncio.wait_for(self._drained.wait(), timeout=grace_s)
        except asyncio.TimeoutError:  # pragma: no cover - pathological
            pass
        self.publish("shutdown", {"reason": "daemon stopping"})
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
