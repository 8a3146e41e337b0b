"""The committed SWF fixture round-trips through the full pipeline.

``tests/data/heterogeneous_mix_30.swf`` is a checked-in Standard
Workload Format trace (generated once from the heterogeneous_mix
scenario, seed 13). It must parse through ``workloads/swf.py``,
simulate on *both* engines, and keep producing the pinned metric
digest — so the trace-archive ingestion path (parse → simulate →
metrics) is pinned end to end, not just unit-by-unit.
"""

import hashlib
from contextlib import nullcontext
from pathlib import Path

import pytest

from repro.metrics.objectives import compute_metrics
from repro.schedulers.registry import create_scheduler
from repro.sim.simulator import simulate
from repro.workloads.swf import jobs_from_swf, jobs_to_swf

FIXTURE = Path(__file__).parent / "data" / "heterogeneous_mix_30.swf"

#: SHA-256 over the full-precision metric floats of an FCFS replay of
#: the fixture, generated by the object engine when the fixture landed.
PINNED_METRICS_DIGEST = (
    "2fed8fa8dfbc046b6b409f74ae4b9bf1fe2ad434a5978144586e9b654a17c8a3"
)


def metrics_digest(result) -> str:
    h = hashlib.sha256()
    for k, v in sorted(compute_metrics(result).as_dict().items()):
        h.update(f"{k}={float(v).hex()}\n".encode())
    return h.hexdigest()


class TestFixtureRoundTrip:
    def test_parses_to_expected_workload(self):
        jobs = jobs_from_swf(FIXTURE)
        assert len(jobs) == 30
        assert jobs[0].submit_time == 0.0
        assert all(job.duration > 0 for job in jobs)
        assert all(job.nodes >= 1 for job in jobs)

    def test_rewrite_is_stable(self, tmp_path):
        """Parse → write → parse is a fixed point (the quantization in
        jobs_to_swf already happened when the fixture was written)."""
        jobs = jobs_from_swf(FIXTURE)
        copy = tmp_path / "copy.swf"
        jobs_to_swf(jobs, copy)
        assert jobs_from_swf(copy) == jobs

    @pytest.mark.parametrize("engine", ["object", "soa"])
    def test_replay_metrics_pinned(self, engine, object_engine):
        jobs = jobs_from_swf(FIXTURE)
        with object_engine() if engine == "object" else nullcontext():
            result = simulate(jobs, create_scheduler("fcfs"))
        assert len(result.records) == 30
        assert metrics_digest(result) == PINNED_METRICS_DIGEST
