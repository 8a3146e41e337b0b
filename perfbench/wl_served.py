"""``served``: a real daemon subprocess and two closed-loop clients.

Set-up starts ``python -m repro.experiments.cli serve --socket … --store …
--workers 1``. One repetition is a *session pair*: two client connections,
each in its own thread, each sending its next request when the previous
reply has arrived. A client streams one session in batches (``submit_jobs``
→ ``get_schedule``, every fifth pair also ``get_metrics``) and then asks
for a few sweep cells twice (``run_cell``: first simulated, then from
memory). After the timed repetitions the daemon is restarted on the same
store once and the last cells are asked for again: they must come from the
store tier without a simulation.

The untraced pass uses the stock ``ServiceClient``. The traced pass uses a
subclass that splits every round trip into client encode, wire + daemon,
and client decode.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from repro.experiments.parallel import MatrixCell
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError, wait_for_server
from repro.service.session import Session, SessionConfig
from repro.workloads.generator import generate_workload

from perfbench.harness import Checks, Rep, Workload, percentile
from perfbench.simcells import Cell, check_cell, run_cell
from perfbench.tracing import NULL

SCENARIO = "heterogeneous_mix"
POLICY = "fcfs_backfill"
N_CLIENTS = 2
BATCH = 8
TIMEOUT_S = 60.0
#: A backlog submitted in batches: every job is due at t=0. With scenario
#: arrivals the cost of the replays per generation differed by 25 % from
#: seed to seed (quartile distance over ten seeds), so by 3 %.
ARRIVALS = {"arrival_mode": "zero"}


class TracedClient(ServiceClient):
    """``ServiceClient`` that records each round trip in three parts:
    ``(op, start, encoded, received, decoded, reply_bytes)``."""

    def __init__(self, sock) -> None:
        super().__init__(sock)
        self._wire = sock.makefile("rwb")
        self._sent = 0
        self.records: list[tuple] = []

    def request(self, op, params=None):
        self._sent += 1
        t0 = perf_counter()
        line = protocol.encode(protocol.request(self._sent, op, params))
        t1 = perf_counter()
        self._wire.write(line)
        self._wire.flush()
        reply = self._wire.readline()
        t2 = perf_counter()
        if not reply:
            raise ConnectionError("daemon closed the connection")
        response = protocol.decode(reply)
        self.records.append((op, t0, t1, t2, perf_counter(), len(reply)))
        if response.get("ok"):
            return response.get("result", {})
        error = response.get("error") or {}
        raise ServiceError(
            str(error.get("type", "unknown")), str(error.get("message", ""))
        )

    def close(self) -> None:
        self._wire.close()
        super().close()


class _ClientRun:
    """What one client thread did in one repetition."""

    def __init__(self) -> None:
        self.start = self.end = 0.0
        self.replies = 0
        self.errors = 0
        self.schedule_s: list[float] = []
        self.payloads: list[dict] = []
        self.sources: list[tuple[str, str]] = []
        self.records: list[tuple] = []
        self.crash: Exception | None = None


class Served(Workload):
    name = "served"
    work_unit = "replies from the daemon at 2 closed-loop clients"
    op_name = "one get_schedule as the client sees it, the mean over session ages"

    # -- daemon ----------------------------------------------------------
    def start_daemon(self) -> float:
        t0 = perf_counter()
        self.log = open(self.tmp / "daemon.log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "serve",
             "--socket", self.socket, "--store", self.store,
             "--workers", "1"],
            stdout=self.log, stderr=self.log,
        )
        self.control = wait_for_server(socket_path=self.socket, timeout=30.0)
        self.control.ping()
        return perf_counter() - t0

    def stop_daemon(self) -> None:
        """Ask the daemon to stop and wait until it has ended."""
        if getattr(self, "proc", None) is None:
            return
        try:
            if self.proc.poll() is None:
                self.control.shutdown()
            self.control.close()
        except (OSError, ServiceError):
            self.proc.terminate()
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()
        self.proc = None

    # -- phases ----------------------------------------------------------
    def setup(self) -> dict[str, float]:
        self.n_jobs, self.n_cells = (24, 1) if self.smoke else (200, 3)
        t0 = perf_counter()
        self.jobs = generate_workload(
            SCENARIO, self.n_jobs, seed=self.seed, **ARRIVALS
        )
        generate_s = perf_counter() - t0
        # What the final served schedule of every session must equal.
        cell = Cell("batch", SCENARIO, self.jobs, POLICY, self.seed, ARRIVALS)
        self.batch_digest = check_cell(run_cell(NULL, cell), cell, Checks())
        # Short relative paths: a unix socket path is at most 107 bytes.
        self.socket = os.path.relpath(self.tmp / "d.sock")
        self.store = os.path.relpath(self.tmp / "cells.jsonl")
        self.n_reps = 0
        self.last_configs: list[dict] = []
        self.last_payload: dict = {}
        return {
            "workloads.generate_s": generate_s,
            "workloads.jobs": float(self.n_jobs),
            "service.daemon_start_s": self.start_daemon(),
        }

    def cell_configs(self, client: int) -> list[dict]:
        """Sweep cells no earlier repetition or client has asked for."""
        first = (self.n_reps * N_CLIENTS + client) * self.n_cells
        return [
            MatrixCell(
                SCENARIO, 40, "fcfs",
                workload_seed=self.seed * 1_000_000 + first + i,
            ).to_config()
            for i in range(self.n_cells)
        ]

    def client_session(self, traced: bool, configs, run: _ClientRun) -> None:
        kind = TracedClient if traced else ServiceClient
        try:
            with kind.connect_unix(self.socket, timeout=TIMEOUT_S) as client:
                run.start = perf_counter()
                try:
                    self.drive(client, configs, run)
                except ServiceError as exc:
                    run.errors += 1
                    print(f"served: {exc}", file=sys.stderr)
                run.end = perf_counter()
                run.records = getattr(client, "records", [])
        except Exception as exc:  # re-raised by the main thread
            run.crash = exc

    def drive(self, client, configs, run: _ClientRun) -> None:
        sid = client.open_session(scheduler=POLICY, scheduler_seed=self.seed)
        run.replies += 1
        for k, i in enumerate(range(0, self.n_jobs, BATCH)):
            client.submit_jobs(sid, self.jobs[i:i + BATCH])
            t0 = perf_counter()
            payload = client.get_schedule(sid)
            run.schedule_s.append(perf_counter() - t0)
            run.payloads.append(payload)
            run.replies += 2
            if k % 5 == 4:
                client.get_metrics(sid)
                run.replies += 1
        for tier in ("simulated", "memory"):
            for config in configs:
                run.sources.append((tier, client.run_cell(config)["source"]))
                run.replies += 1
        client.close_session(sid)
        run.replies += 1

    def body(self, tr) -> Rep:
        runs = [_ClientRun() for _ in range(N_CLIENTS)]
        configs = [self.cell_configs(c) for c in range(N_CLIENTS)]
        self.n_reps += 1
        threads = [
            threading.Thread(
                target=self.client_session, args=(tr.enabled, configs[c], runs[c])
            )
            for c in range(N_CLIENTS)
        ]
        t0 = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        pair_s = perf_counter() - t0
        for run in runs:
            if run.crash is not None:
                raise run.crash
        self.last_configs = configs[-1]
        self.last_payload = runs[-1].payloads[-1]
        if tr.enabled:
            self.add_spans(tr, runs)
        replies = sum(r.replies for r in runs)
        errors = sum(r.errors for r in runs)
        return Rep(
            work=replies,
            work_s=pair_s,
            op_s=statistics.mean(s for r in runs for s in r.schedule_s),
            attempted=replies + errors,
            failed=errors,
            outputs=runs,
        )

    @staticmethod
    def add_spans(tr, runs) -> None:
        """request → {client.encode, service.wire_daemon, client.decode},
        one ``client`` span per connection under the repetition."""
        for run in runs:
            tr.next_op()
            client = len(tr.spans)
            tr.spans.append(["client", run.start, run.end, 0, tr.op_id])
            for op, t0, t1, t2, t3, _ in run.records:
                op_id = tr.next_op()
                request = len(tr.spans)
                tr.spans.append(["request", t0, t3, client, op_id])
                tr.spans.append(["client.encode", t0, t1, request, op_id])
                tr.spans.append(["service.wire_daemon", t1, t2, request, op_id])
                tr.spans.append(["client.decode", t2, t3, request, op_id])

    def check(self, rep: Rep, checks: Checks) -> None:
        digests = {}
        for c, run in enumerate(rep.outputs):
            wire_ok = all(
                protocol.wire_digest(
                    p["records"], p["decisions"], p["preemptions"], p["metrics"]
                ) == p["digest"]
                for p in run.payloads
            )
            checks.ok(wire_ok, "each served payload's wire_digest equals its digest")
            final = run.payloads[-1]
            checks.ok(final["n_jobs"] == self.n_jobs
                      and final["digest"] == self.batch_digest,
                      "final served schedule equals batch simulate()")
            checks.ok(all(tier == source for tier, source in run.sources),
                      f"run_cell tiers as expected: {run.sources}")
            digests[f"session{c}"] = final["digest"]
        self.record(checks, digests, {})

    def layers(self, tr, rep: Rep) -> dict[str, float]:
        if not tr.enabled:
            return {}
        runs = rep.outputs
        by_op: dict[str, list[float]] = {}
        for run in runs:
            for op, t0, _, _, t3, _ in run.records:
                by_op.setdefault(op, []).append(t3 - t0)
        schedule = [s for run in runs for s in run.schedule_s]
        quarter = max(1, len(runs[0].schedule_s) // 4)
        young = [s for run in runs for s in run.schedule_s[:quarter]]
        old = [s for run in runs for s in run.schedule_s[-quarter:]]
        n_cells = len(self.last_configs)
        cell_s = [
            [t3 - t0 for op, t0, _, _, t3, _ in run.records if op == "run_cell"]
            for run in runs
        ]
        busy = sum(t3 - t0 for run in runs for _, t0, _, _, t3, _ in run.records)
        return {
            "service.open_session_ms": statistics.median(by_op["open_session"]),
            "service.submit_jobs_ms_p50": statistics.median(by_op["submit_jobs"]),
            "service.get_metrics_ms_p50": statistics.median(
                by_op.get("get_metrics", [0.0])
            ),
            "service.get_schedule_ms_p95": percentile(schedule, 95),
            "service.get_schedule_ms_p99": percentile(schedule, 99),
            "service.get_schedule_ms_young": statistics.median(young),
            "service.get_schedule_ms_old": statistics.median(old),
            "service.age_growth_ratio": (
                statistics.median(old) / statistics.median(young)
            ),
            "service.payload_bytes_p50": statistics.median(
                size for run in runs for op, *_, size in run.records
                if op == "get_schedule"
            ),
            "service.run_cell_ms_simulated": statistics.mean(
                s for cells in cell_s for s in cells[:n_cells]
            ),
            "service.run_cell_ms_memory": statistics.mean(
                s for cells in cell_s for s in cells[n_cells:]
            ),
            "service.errors": float(sum(run.errors for run in runs)),
            "host.trace_coverage_ratio": busy / sum(
                run.end - run.start for run in runs
            ),
        }

    def finish(self, traced: bool, checks: Checks) -> dict[str, float]:
        cache = self.control.stats()["cache"]
        lookups = cache["hits_memory"] + cache["hits_store"] + cache["misses"]
        self.stop_daemon()
        self.start_daemon()
        t0 = perf_counter()
        sources = [
            self.control.run_cell(config)["source"]
            for config in self.last_configs
        ]
        store_s = (perf_counter() - t0) / len(sources)
        checks.ok(all(s == "store" for s in sources)
                  and self.control.stats()["cache"]["simulations"] == 0,
                  f"restarted daemon serves cells from the store: {sources}")
        if not traced:
            return {}
        layers = {
            "service.run_cell_ms_store": store_s,
            "service.cache_hit_ratio": (
                (cache["hits_memory"] + cache["hits_store"]) / lookups
            ),
            "service.simulations": float(cache["simulations"]),
        }
        # The same batches through an in-process Session: what the
        # daemon's replay per generation costs without the wire.
        session = Session("perfbench", SessionConfig(POLICY, self.seed))
        t0 = perf_counter()
        for i in range(0, self.n_jobs, BATCH):
            session.append_jobs(self.jobs[i:i + BATCH])
            result, metrics = session.ensure_result()
        layers["service.session_replay_s"] = perf_counter() - t0
        checks.ok(protocol.schedule_digest(result, metrics) == self.batch_digest,
                  "in-process session equals batch simulate()")
        t0 = perf_counter()
        line = protocol.encode(protocol.ok_response(1, self.last_payload))
        layers["service.protocol_encode_ms"] = perf_counter() - t0
        t0 = perf_counter()
        protocol.decode(line)
        layers["service.protocol_decode_ms"] = perf_counter() - t0
        return layers

    def teardown(self) -> None:
        self.stop_daemon()
