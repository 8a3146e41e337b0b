"""Unit tests for the service's protocol, cache, and coalescing edges.

The e2e suite (test_service_server.py) drives the happy paths over a
real socket; these tests pin the corners that are awkward to reach
from a live daemon — malformed frames, the preemption digest lanes,
LRU eviction, and the in-flight coalescing fast path.
"""

import asyncio
from types import SimpleNamespace

import pytest

from repro.experiments.runner import run_single
from repro.experiments.store import StoredRun
from repro.service import protocol
from repro.service.cache import CacheStats, ResultCache
from repro.service.client import wait_for_server
from repro.service.server import ServiceServer
from repro.service.service import SchedulingService
from repro.sim.job import Job


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
            depends_on=(1, 2),
        )
        assert protocol.job_from_wire(protocol.job_to_wire(job)) == job

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
        assert cache.get(stored_runs[0].key) is None
        assert cache.get(stored_runs[2].key) is stored_runs[2]
        # get() refreshes recency: [1] is now the eviction candidate.
        cache.get(stored_runs[2].key)
        cache.put(stored_runs[0])
        assert cache.get(stored_runs[1].key) is None
        assert cache.get(stored_runs[2].key) is stored_runs[2]

    def test_storeless_cache_counts_misses(self, stored_runs):
        cache = ResultCache.for_path(None)
        assert cache.store is None
        assert cache.lookup(stored_runs[0].key) == (None, "miss")
        assert cache.stats.misses == 1

    def test_store_hit_promotes_into_memory(self, tmp_path, stored_runs):
        cache = ResultCache.for_path(tmp_path / "cells.jsonl")
        cache.put(stored_runs[0])
        # A fresh cache over the same file: first lookup is a store
        # hit, the second a memory hit.
        fresh = ResultCache.for_path(tmp_path / "cells.jsonl")
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
            "anneal_window": None,
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
