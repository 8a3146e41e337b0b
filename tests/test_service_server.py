"""End-to-end daemon tests: real socket, real protocol, sync client.

Driven through :class:`~tests.embedded_server.EmbeddedServer`, which
runs the exact ``run_server`` code path the ``repro-sched serve`` CLI
uses (minus signal handlers) on a background thread. Pins the ISSUE-8
serving invariants:

* served schedules are byte-identical to batch ``run_single`` — the
  digest crosses the wire intact (``wire_digest`` == server digest ==
  batch digest);
* interleaved sessions equal their serial batch references;
* a repeated ``run_cell`` never simulates twice (memory hit), and a
  store-backed cache answers across a daemon restart;
* graceful shutdown completes in-flight requests;
* error responses carry stable types;
* a worker death costs one request, not the daemon.
"""

import math
import threading
import time

import pytest

from repro.experiments.runner import run_single
from repro.service.client import ServiceError
from repro.service.protocol import schedule_digest, wire_digest
from repro.workloads.generator import generate_workload

from tests.embedded_server import EmbeddedServer


def sorted_jobs(scenario, n, seed):
    return sorted(
        generate_workload(scenario, n, seed=seed),
        key=lambda j: (j.submit_time, j.job_id),
    )


def batch_digest(scenario, n, scheduler, wseed, sseed=0) -> str:
    run = run_single(
        scenario, n, scheduler, workload_seed=wseed, scheduler_seed=sseed
    )
    return schedule_digest(run.result, run.metrics.as_dict())


def cell_config(scheduler="fcfs", n_jobs=10, workload_seed=0):
    return {
        "scenario": "adversarial",
        "n_jobs": n_jobs,
        "scheduler": scheduler,
        "workload_seed": workload_seed,
        "scheduler_seed": 0,
        "arrival_mode": "scenario",
        "disruptions": None,
        "restart_policy": "resubmit",
        "checkpoint_interval": None,
        "topology": None,
    }


@pytest.fixture(scope="module")
def server():
    with EmbeddedServer(workers=1) as srv:
        yield srv


class TestServedSchedules:
    def test_round_trip_digest_equals_batch(self, server):
        jobs = sorted_jobs("heterogeneous_mix", 30, 5)
        with server.client() as client:
            sid = client.open_session(scheduler="fcfs", scheduler_seed=0)
            for i in range(0, len(jobs), 10):
                ack = client.submit_jobs(sid, jobs[i:i + 10])
                assert ack["added"] == len(jobs[i:i + 10])
            sched = client.get_schedule(sid)
            client.close_session(sid)
        # Server-side digest == digest recomputed from the JSON that
        # actually crossed the socket == batch reference digest.
        assert sched["digest"] == wire_digest(
            sched["records"],
            sched["decisions"],
            sched["preemptions"],
            sched["metrics"],
        )
        assert sched["digest"] == batch_digest(
            "heterogeneous_mix", 30, "fcfs", 5
        )

    def test_jobs_accepted_as_wire_dicts(self, server):
        with server.client() as client:
            sid = client.open_session(scheduler="fcfs")
            client.submit_jobs(
                sid,
                [
                    {
                        "job_id": 1,
                        "submit_time": 0.0,
                        "duration": 10.0,
                        "nodes": 2,
                        "memory_gb": 8.0,
                    }
                ],
            )
            sched = client.get_schedule(sid)
            client.close_session(sid)
        assert [r["job_id"] for r in sched["records"]] == [1]

    def test_get_metrics_digest_matches_schedule(self, server):
        with server.client() as client:
            sid = client.open_session(scheduler="sjf")
            client.submit_jobs(sid, sorted_jobs("adversarial", 15, 1))
            metrics = client.get_metrics(sid)
            sched = client.get_schedule(sid)
            stats = client.stats()["sessions"][sid]
            client.close_session(sid)
        assert metrics["digest"] == sched["digest"]
        assert metrics["metrics"] == sched["metrics"]
        # The second query reused the memoized replay.
        assert stats["n_runs"] == 1
        assert stats["n_result_reuses"] >= 1

    def test_interleaved_sessions_equal_serial_batches(self, server):
        jobs_a = sorted_jobs("heterogeneous_mix", 24, 3)
        jobs_b = sorted_jobs("bursty_idle", 24, 9)
        with server.client() as client:
            sa = client.open_session(scheduler="fcfs", scheduler_seed=0)
            sb = client.open_session(scheduler="sjf", scheduler_seed=0)
            # Strict interleaving, with mid-stream queries on both.
            for i in range(0, 24, 8):
                client.submit_jobs(sa, jobs_a[i:i + 8])
                client.submit_jobs(sb, jobs_b[i:i + 8])
                client.get_schedule(sa)
                client.get_schedule(sb)
            da = client.get_schedule(sa)["digest"]
            db = client.get_schedule(sb)["digest"]
            client.close_session(sa)
            client.close_session(sb)
        assert da == batch_digest("heterogeneous_mix", 24, "fcfs", 3)
        assert db == batch_digest("bursty_idle", 24, "sjf", 9)


class TestCellCache:
    def test_repeat_request_hits_memory_not_simulation(self, tmp_path):
        store = tmp_path / "cells.jsonl"
        with EmbeddedServer(store_path=store, workers=1, cache_size=8) as srv:
            assert srv.server.address == str(srv.socket_path)
            with srv.wait_client() as client:
                r1 = client.run_cell(cell_config())
                r2 = client.run_cell(cell_config())
                stats = client.stats()
        assert r1["source"] == "simulated"
        assert r2["source"] == "memory"
        assert r1["run"] == r2["run"]
        cache = stats["cache"]
        assert cache["simulations"] == 1
        assert cache["hits_memory"] == 1
        assert cache["store_appends"] == 1

    def test_store_answers_across_daemon_restart(self, tmp_path):
        store = tmp_path / "cells.jsonl"
        with EmbeddedServer(store_path=store, workers=1) as srv:
            with srv.client() as client:
                first = client.run_cell(cell_config())
        assert first["source"] == "simulated"
        # A fresh daemon, same store: the cell must come back from the
        # persisted tier with zero simulations.
        with EmbeddedServer(store_path=store, workers=1) as srv:
            with srv.client() as client:
                again = client.run_cell(cell_config())
                stats = client.stats()
        assert again["source"] == "store"
        assert again["run"] == first["run"]
        assert stats["cache"]["simulations"] == 0

    def test_distinct_cells_simulate_independently(self, tmp_path):
        with EmbeddedServer(
            store_path=tmp_path / "cells.jsonl", workers=1
        ) as srv:
            with srv.client() as client:
                a = client.run_cell(cell_config(workload_seed=0))
                b = client.run_cell(cell_config(workload_seed=1))
                stats = client.stats()
        assert a["source"] == b["source"] == "simulated"
        assert a["run"] != b["run"]
        assert stats["cache"]["simulations"] == 2

    def test_legacy_engine_key_is_the_same_cell(self, tmp_path):
        """Clients written against PRs 7-11 send ``"engine"`` in the
        cell config; it is ignored, so the request lands on the same
        CellKey (a memory hit) and returns the same run."""
        with EmbeddedServer(
            store_path=tmp_path / "cells.jsonl", workers=1
        ) as srv:
            with srv.client() as client:
                first = client.run_cell(cell_config())
                legacy = client.run_cell({**cell_config(), "engine": "soa"})
                stats = client.stats()
        assert first["source"] == "simulated"
        assert legacy["source"] == "memory"
        assert legacy["run"] == first["run"]
        assert stats["cache"]["simulations"] == 1

    def test_windowed_cell_config_rejected(self, server):
        """A window is refused, not dropped: dropping it would answer
        with a full-search run under the plain ``ortools_like`` key."""
        config = {**cell_config("ortools_like"), "anneal_window": 16}
        with server.client() as client:
            before = client.stats()["cache"]["simulations"]
            with pytest.raises(ServiceError) as excinfo:
                client.run_cell(config)
            after = client.stats()["cache"]["simulations"]
        assert excinfo.value.error_type == "bad_request"
        assert "windowed annealing was removed" in str(excinfo.value)
        assert after == before

    def test_malformed_cell_config_rejected(self, server):
        with server.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.run_cell({"scenario": "adversarial"})
        assert excinfo.value.error_type == "bad_request"


class TestShutdownAndErrors:
    def test_graceful_shutdown_completes_inflight_request(self):
        with EmbeddedServer(workers=1) as srv:
            with srv.client() as client:
                sid = client.open_session(scheduler="fcfs")
                client.submit_jobs(
                    sid, sorted_jobs("heterogeneous_mix", 200, 0)
                )
                outcome = {}

                def query():
                    try:
                        outcome["schedule"] = client.get_schedule(sid)
                    except BaseException as exc:  # pragma: no cover
                        outcome["error"] = exc

                worker = threading.Thread(target=query)
                worker.start()
                time.sleep(0.05)
                with srv.client() as other:
                    other.shutdown()
                worker.join(timeout=30)
            assert "error" not in outcome, outcome.get("error")
            sched = outcome["schedule"]
            assert sched["digest"] == wire_digest(
                sched["records"],
                sched["decisions"],
                sched["preemptions"],
                sched["metrics"],
            )

    def test_requests_refused_while_closing(self):
        srv = EmbeddedServer(workers=1).start()
        try:
            with srv.client() as client:
                client.shutdown()
            # The daemon is now draining/stopped: either the socket is
            # gone or a late request is refused with a stable type.
            try:
                with srv.client(timeout=5.0) as late:
                    late.open_session(scheduler="fcfs")
            except (ServiceError, OSError, ConnectionError) as exc:
                if isinstance(exc, ServiceError):
                    assert exc.error_type == "service_closing"
            else:  # pragma: no cover - shutdown won the race
                pytest.fail("open_session accepted after shutdown")
        finally:
            srv.stop()

    def test_daemon_recovers_after_a_worker_death(self):
        # One dead worker breaks a ProcessPoolExecutor for good; the
        # daemon must drop it, answer the failing request with a typed
        # error, and serve the next cell from a fresh pool.
        from tests.tooling import faults as faultinject

        faultinject.install(
            faultinject.FaultPlan(
                rules=(
                    faultinject.FaultRule(
                        kind="crash", mode="exit", match="|sjf|"
                    ),
                )
            )
        )
        try:
            with EmbeddedServer(workers=1) as srv:
                with srv.client() as client:
                    with pytest.raises(ServiceError) as excinfo:
                        client.run_cell(cell_config(scheduler="sjf"))
                    after = client.run_cell(cell_config(scheduler="fcfs"))
                    stats = client.stats()
        finally:
            faultinject.install(None)
        assert excinfo.value.error_type == "worker_died"
        assert "adversarial|10|sjf|" in excinfo.value.message
        assert after["source"] == "simulated"
        assert stats["cache"]["simulations"] == 1
        assert stats["inflight_cells"] == 0

    def test_unknown_session_error(self, server):
        with server.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.get_schedule("s999999")
        assert excinfo.value.error_type == "unknown_session"

    def test_closed_session_becomes_unknown(self, server):
        with server.client() as client:
            sid = client.open_session(scheduler="fcfs")
            client.close_session(sid)
            assert sid not in client.stats()["sessions"]
            with pytest.raises(ServiceError) as excinfo:
                client.get_metrics(sid)
        assert excinfo.value.error_type == "unknown_session"

    def test_streaming_contract_violation_is_session_error(self, server):
        with server.client() as client:
            sid = client.open_session(scheduler="fcfs")
            job = {
                "job_id": 1,
                "submit_time": 5.0,
                "duration": 1.0,
                "nodes": 1,
                "memory_gb": 1.0,
            }
            client.submit_jobs(sid, [job])
            with pytest.raises(ServiceError) as excinfo:
                client.submit_jobs(sid, [dict(job, job_id=2, submit_time=1.0)])
            assert excinfo.value.error_type == "session_error"
            # The rejected batch left the session untouched.
            assert client.stats()["sessions"][sid]["n_jobs"] == 1
            client.close_session(sid)

    @pytest.mark.parametrize("field, value", [
        ("submit_time", math.nan),
        ("duration", math.nan),
        ("submit_time", math.inf),
    ])
    def test_non_finite_job_is_refused_at_submit(self, server, field, value):
        # JSON carries NaN and Infinity; they must bounce off
        # submit_jobs, as any malformed field value does, rather than
        # sit in the session and fail every later query.
        job = {
            "job_id": 1,
            "submit_time": 0.0,
            "duration": 1.0,
            "nodes": 1,
            "memory_gb": 1.0,
        }
        with server.client() as client:
            sid = client.open_session(scheduler="fcfs")
            with pytest.raises(ServiceError) as excinfo:
                client.submit_jobs(sid, [dict(job, **{field: value})])
            assert excinfo.value.error_type == "bad_request"
            assert client.stats()["sessions"][sid]["n_jobs"] == 0
            client.submit_jobs(sid, [job])
            sched = client.get_schedule(sid)
            client.close_session(sid)
        assert [r["job_id"] for r in sched["records"]] == [1]

    def test_unknown_op_and_unknown_scheduler(self, server):
        with server.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request("no_such_op")
            assert excinfo.value.error_type == "bad_request"
            with pytest.raises(ServiceError):
                client.open_session(scheduler="no_such_scheduler")

    def test_ping_and_stats(self, server):
        with server.client() as client:
            assert client.ping()["protocol"] == 1
            stats = client.stats()
        assert stats["protocol"] == 1
        assert stats["closing"] is False
        assert "cache" in stats


class TestTcpAndCli:
    def test_cli_serve_over_tcp_round_trips(self, tmp_path, capsys):
        # The real CLI entry (`repro-sched serve`) on an ephemeral TCP
        # port, driven with the TCP flavor of the sync client. The
        # handler installs signal handlers only on the main thread, so
        # running it on a worker thread exercises the fallback path.
        from repro.experiments.cli import main
        from repro.service.client import wait_for_server

        store = tmp_path / "cells.jsonl"
        exit_code = {}

        def serve():
            exit_code["rc"] = main(
                [
                    "serve",
                    "--host",
                    "127.0.0.1",
                    "--store",
                    str(store),
                    "--workers",
                    "1",
                ]
            )

        daemon = threading.Thread(target=serve, daemon=True)
        daemon.start()
        # Ephemeral port: parse the advertised address from stdout.
        deadline = time.monotonic() + 15
        port = None
        while port is None and time.monotonic() < deadline:
            out = capsys.readouterr().out
            for line in out.splitlines():
                if "listening on 127.0.0.1:" in line:
                    port = int(line.rsplit(":", 1)[1])
            time.sleep(0.02)
        assert port is not None, "daemon never advertised its address"
        client = wait_for_server(host="127.0.0.1", port=port, timeout=15)
        with client:
            assert client.ping()["protocol"] == 1
            sid = client.open_session(scheduler="fcfs")
            client.submit_jobs(sid, sorted_jobs("adversarial", 10, 0))
            sched = client.get_schedule(sid)
            assert client.run_cell(cell_config())["source"] == "simulated"
            client.shutdown()
        daemon.join(timeout=30)
        assert exit_code.get("rc") == 0
        assert sched["digest"] == batch_digest("adversarial", 10, "fcfs", 0)
        assert store.exists()

    def test_serve_cli_rejects_port_without_host(self, tmp_path, capsys):
        from repro.experiments.cli import main

        sock = tmp_path / "d.sock"
        assert main(["serve", "--socket", str(sock), "--port", "9999"]) == 2


class TestEventStream:
    def test_subscriber_sees_lifecycle_events(self):
        srv = EmbeddedServer(workers=1).start()
        events = []
        try:
            sub = srv.client()

            def collect():
                for event in sub.events():
                    events.append(event)

            reader = threading.Thread(target=collect)
            reader.start()
            deadline = time.monotonic() + 10
            while not srv.server.service._subscribers:
                assert time.monotonic() < deadline, "subscriber not registered"
                time.sleep(0.01)
            with srv.client() as client:
                sid = client.open_session(scheduler="fcfs")
                client.submit_jobs(sid, sorted_jobs("adversarial", 10, 0))
                client.get_schedule(sid)
                client.close_session(sid)
                client.shutdown()
            reader.join(timeout=30)
            assert not reader.is_alive()
            sub.close()
        finally:
            srv.stop()
        names = [e["event"] for e in events]
        for expected in (
            "session_opened",
            "jobs_submitted",
            "schedule_served",
            "session_closed",
            "shutdown",
        ):
            assert expected in names
        served = next(e for e in events if e["event"] == "schedule_served")
        assert served["data"]["digest"] == batch_digest(
            "adversarial", 10, "fcfs", 0
        )
        assert names[-1] == "shutdown"
