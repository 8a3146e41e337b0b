"""Unit tests for the service's protocol, cache, and coalescing edges.

The e2e suite (test_service_server.py) drives the happy paths over a
real socket; these tests pin the corners that are awkward to reach
from a live daemon — malformed frames, the preemption digest lanes,
LRU eviction, and the in-flight coalescing fast path.
"""

import asyncio
import hashlib
from types import SimpleNamespace

import pytest

from repro.experiments.runner import run_single
from repro.experiments.storage import open_store
from repro.experiments.store import StoredRun
from repro.service import protocol
from repro.service.cache import CacheStats, ResultCache
from repro.service.client import ServiceError, wait_for_server
from repro.service.server import ServiceServer
from repro.service.service import SchedulingService
from repro.sim.disruptions import DisruptionSpec
from repro.sim.job import Job

from tests.embedded_server import EmbeddedServer


class TestProtocolFraming:
    def test_decode_rejects_malformed_json(self):
        with pytest.raises(ValueError, match="malformed protocol line"):
            protocol.decode(b"{not json}\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ValueError, match="not a JSON object"):
            protocol.decode(b"[1, 2]\n")

    def test_encode_decode_round_trip(self):
        message = protocol.request(7, "ping", {"a": 1.5})
        assert protocol.decode(protocol.encode(message)) == message

    def test_job_wire_round_trip_is_lossless(self):
        job = Job(
            job_id=3,
            submit_time=1.25,
            duration=10.5,
            nodes=4,
            memory_gb=32.0,
            walltime=20.0,
            user="user_7",
            group="group_2",
            name="batch-3",
        )
        assert protocol.job_from_wire(protocol.job_to_wire(job)) == job

    def test_job_from_wire_names_unknown_keys(self):
        payload = {**protocol.job_to_wire(Job(1, 0.0, 5.0, 1, 1.0)), "x": 0}
        with pytest.raises(ValueError, match=r"unknown job payload keys: \['x'\]"):
            protocol.job_from_wire(payload)

    def test_dependency_edges_are_refused_not_dropped(self):
        """Jobs carry no dependencies: a served schedule that ignored a
        client's edges would look like one that honoured them, so the
        key is a ``bad_request`` and the session keeps no job of the
        batch."""
        jobs = [Job(1, 0.0, 5.0, 1, 1.0), Job(2, 0.0, 5.0, 1, 1.0)]
        wire = [protocol.job_to_wire(job) for job in jobs]
        wire[1]["depends_on"] = [1]
        with EmbeddedServer(workers=1) as server:
            with server.client() as client:
                sid = client.open_session(scheduler="fcfs")
                with pytest.raises(ServiceError) as excinfo:
                    client.submit_jobs(sid, wire)
                assert client.submit_jobs(sid, jobs)["n_jobs"] == 2
        assert excinfo.value.error_type == "bad_request"
        assert "depends_on" in str(excinfo.value)

    def test_job_from_wire_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="malformed job payload"):
            protocol.job_from_wire({"job_id": 1})

    def test_job_from_wire_rejects_wrong_types(self):
        with pytest.raises(ValueError, match="malformed job payload"):
            protocol.job_from_wire(
                {
                    "job_id": 1,
                    "submit_time": None,
                    "duration": 1.0,
                    "nodes": 1,
                    "memory_gb": 1.0,
                }
            )


class TestDigestParity:
    def test_preemption_lane_crosses_the_wire_intact(self):
        # Preempted-and-restarted plus killed-for-good: both
        # restart_time shapes must hash identically on either side of
        # the JSON boundary.
        preemptions = [
            SimpleNamespace(
                job_id=4,
                time=12.5,
                reason="node_failure",
                work_saved=3.25,
                work_lost=1.75,
                restart_time=20.0,
            ),
            SimpleNamespace(
                job_id=9,
                time=40.0,
                reason="walltime",
                work_saved=0.0,
                work_lost=7.5,
                restart_time=None,
            ),
        ]
        result = SimpleNamespace(
            records=[], decisions=[], preemptions=preemptions
        )
        metrics = {"makespan": 123.0625}
        wire = [protocol.preemption_to_wire(p) for p in preemptions]
        assert protocol.schedule_digest(result, metrics) == (
            protocol.wire_digest([], [], wire, metrics)
        )

    def test_one_update_hashes_what_one_update_per_line_did(self):
        """``schedule_digest`` joins its lines and hashes them at once;
        on a disrupted run with preemptions it equals the line-by-line
        hash it replaced."""
        run = run_single(
            "checkpoint_stress", 40, "fcfs_backfill",
            disruptions=DisruptionSpec(mtbf=20_000.0, mttr=1_200.0, seed=3),
            restart_policy="checkpoint", checkpoint_interval=900.0,
        )
        result, metrics = run.result, run.metrics.as_dict()
        assert result.preemptions
        h = hashlib.sha256()
        for rec in result.records:
            h.update(
                f"{rec.job.job_id},{rec.start_time.hex()},"
                f"{rec.end_time.hex()},{rec.killed}\n".encode()
            )
        for d in result.decisions:
            h.update(
                f"{d.time.hex()},{d.action.kind.value},{d.accepted},"
                f"{len(d.violations)}\n".encode()
            )
        for p in result.preemptions:
            restart = (
                p.restart_time.hex() if p.restart_time is not None
                else "None"
            )
            h.update(
                f"{p.job_id},{p.time.hex()},{p.reason},"
                f"{p.work_saved.hex()},{p.work_lost.hex()},"
                f"{restart}\n".encode()
            )
        for k, v in sorted(metrics.items()):
            h.update(f"{k}={float(v).hex()}\n".encode())
        assert protocol.schedule_digest(result, metrics) == h.hexdigest()

    def test_wire_digest_distinguishes_restart_shapes(self):
        base = dict(
            job_id=1,
            time=1.0,
            reason="r",
            work_saved=0.5,
            work_lost=0.5,
            restart_time=None,
        )
        with_restart = dict(base, restart_time=2.0)
        assert protocol.wire_digest([], [], [base], {}) != (
            protocol.wire_digest([], [], [with_restart], {})
        )


@pytest.fixture(scope="module")
def stored_runs():
    return [
        StoredRun.from_run(
            run_single("adversarial", 8, "fcfs", workload_seed=seed)
        )
        for seed in (0, 1, 2)
    ]


class TestResultCache:
    def test_lru_evicts_oldest(self, stored_runs):
        cache = ResultCache(max_entries=2)
        for stored in stored_runs:
            cache.put(stored)
        assert len(cache) == 2
        assert cache.lookup(stored_runs[0].key)[0] is None
        assert cache.lookup(stored_runs[2].key)[0] is stored_runs[2]
        # lookup() refreshes recency: [1] is now the eviction candidate.
        cache.lookup(stored_runs[2].key)
        cache.put(stored_runs[0])
        assert cache.lookup(stored_runs[1].key)[0] is None
        assert cache.lookup(stored_runs[2].key)[0] is stored_runs[2]

    @pytest.mark.parametrize("max_entries", [-1, -5])
    def test_negative_capacity_refused(self, max_entries):
        with pytest.raises(ValueError, match="max_entries must be >= 0"):
            ResultCache(max_entries=max_entries)

    def test_storeless_cache_counts_misses(self, stored_runs):
        cache = ResultCache()
        assert cache.store is None
        assert cache.lookup(stored_runs[0].key) == (None, "miss")
        assert cache.stats.misses == 1

    def test_store_hit_promotes_into_memory(self, tmp_path, stored_runs):
        cache = ResultCache(open_store(tmp_path / "cells.jsonl"))
        cache.put(stored_runs[0])
        # A fresh cache over the same store: first lookup is a store
        # hit, the second a memory hit.
        fresh = ResultCache(open_store(tmp_path / "cells.jsonl"))
        assert fresh.lookup(stored_runs[0].key)[1] == "store"
        assert fresh.lookup(stored_runs[0].key)[1] == "memory"
        assert fresh.stats.as_dict()["hits_store"] == 1
        assert fresh.stats.as_dict()["hits_memory"] == 1

    def test_stats_dict_is_complete(self):
        assert set(CacheStats().as_dict()) == {
            "hits_memory",
            "hits_store",
            "misses",
            "simulations",
            "coalesced",
            "store_appends",
        }


def run_cell_params(workload_seed=0):
    return {
        "config": {
            "scenario": "adversarial",
            "n_jobs": 8,
            "scheduler": "fcfs",
            "workload_seed": workload_seed,
            "scheduler_seed": 0,
            "arrival_mode": "scenario",
            "disruptions": None,
            "restart_policy": "resubmit",
            "checkpoint_interval": None,
            "topology": None,
        }
    }


class TestServiceUnit:
    def test_concurrent_identical_cells_coalesce(self):
        async def scenario():
            service = SchedulingService(workers=1)
            try:
                first, second = await asyncio.gather(
                    service.handle("run_cell", run_cell_params()),
                    service.handle("run_cell", run_cell_params()),
                )
                return first, second, service.cache.stats
            finally:
                await service.aclose(grace_s=1.0)

        first, second, stats = asyncio.run(scenario())
        # One of them simulated; the other rode along on the same
        # in-flight future without a second pool submission.
        assert {first["source"], second["source"]} == {
            "simulated",
            "coalesced",
        }
        assert first["run"] == second["run"]
        assert stats.simulations == 1
        assert stats.coalesced == 1

    def test_malformed_params_raise_value_errors(self):
        async def scenario():
            service = SchedulingService()
            with pytest.raises(ValueError, match="'config' object"):
                await service.handle("run_cell", {"config": None})
            opened = await service.handle(
                "open_session",
                {"scheduler": "fcfs", "max_decisions": 500},
            )
            sid = opened["session_id"]
            from repro.service.session import SessionError

            with pytest.raises(SessionError, match="'jobs' list"):
                await service.handle(
                    "submit_jobs", {"session_id": sid, "jobs": "nope"}
                )
            assert service._sessions[sid].config.max_decisions == 500
            await service.aclose(grace_s=1.0)

        asyncio.run(scenario())


    def test_a_subscriber_that_never_reads_loses_events_not_service(self):
        """A subscriber's queue holds 1024 events; past that, publishing
        drops the newest for it instead of waiting, so the service keeps
        answering, and ``unsubscribe`` stops the fan-out to it."""
        published = 1100

        async def scenario():
            service = SchedulingService()
            stalled = service.subscribe()
            try:
                for k in range(published):
                    service.publish("tick", {"k": k})
                assert await service.handle("ping", {}) == {
                    "protocol": protocol.PROTOCOL_VERSION
                }
                sid = (
                    await service.handle("open_session", {"scheduler": "fcfs"})
                )["session_id"]
                job = Job(job_id=1, submit_time=0.0, duration=10.0, nodes=1,
                          memory_gb=1.0)
                await service.handle(
                    "submit_jobs",
                    {"session_id": sid, "jobs": [protocol.job_to_wire(job)]},
                )
                metrics = await service.handle(
                    "get_metrics", {"session_id": sid}
                )
                assert metrics["metrics"]["makespan"] == 10.0
                assert stalled.qsize() == stalled.maxsize == 1024
                kept = [stalled.get_nowait()["data"]["k"] for _ in range(3)]
                assert kept == [0, 1, 2]  # the oldest stay, the newest drop
                service.unsubscribe(stalled)
                assert stalled not in service._subscribers
                service.publish("tick", {"k": published})
                assert stalled.qsize() == 1024 - 3
            finally:
                await service.aclose(grace_s=1.0)

        asyncio.run(scenario())


class TestServerBinding:
    def test_exactly_one_bind_required(self):
        service = SchedulingService()
        with pytest.raises(ValueError, match="exactly one"):
            ServiceServer(service)
        with pytest.raises(ValueError, match="exactly one"):
            ServiceServer(
                service, socket_path="/tmp/x.sock", host="127.0.0.1"
            )

    def test_wait_for_server_times_out(self, tmp_path):
        with pytest.raises(TimeoutError, match="not reachable"):
            wait_for_server(
                socket_path=tmp_path / "nobody-home.sock", timeout=0.2
            )
