"""Property-based tests for the extension modules."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.agent import create_llm_scheduler
from repro.sim.cluster import ResourcePool
from repro.sim.job import Job
from repro.sim.simulator import HPCSimulator
from repro.workloads.swf import jobs_from_swf, jobs_to_swf


# ---------------------------------------------------------------------------
# Batched agent invariants
# ---------------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(
    raw=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=300.0),
            st.floats(min_value=1.0, max_value=500.0),
            st.integers(min_value=1, max_value=8),
        ),
        min_size=1,
        max_size=12,
    ),
    batch_size=st.integers(min_value=1, max_value=6),
    cooldown=st.sampled_from([0.0, 120.0]),
)
def test_batched_agent_invariants(raw, batch_size, cooldown):
    jobs = [
        Job(
            job_id=i + 1,
            submit_time=submit,
            duration=duration,
            nodes=nodes,
            memory_gb=2.0,
        )
        for i, (submit, duration, nodes) in enumerate(raw)
    ]
    agent = create_llm_scheduler(
        batch_size=batch_size, delay_cooldown_s=cooldown, seed=0
    )
    sim = HPCSimulator(
        jobs=jobs,
        scheduler=agent,
        cluster=ResourcePool(total_nodes=8, total_memory_gb=64.0),
    )
    result = sim.run()
    result.verify_capacity()
    assert len(result.records) == len(jobs)
    for rec in result.records:
        assert rec.start_time >= rec.job.submit_time - 1e-9


# ---------------------------------------------------------------------------
# SWF round trip
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    raw=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e5),
            st.floats(min_value=1.0, max_value=1e5),
            st.integers(min_value=1, max_value=256),
            st.integers(min_value=0, max_value=20),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_swf_round_trip_preserves_core_fields(raw):
    jobs = [
        Job(
            job_id=i + 1,
            submit_time=round(submit, 2),
            duration=round(duration, 2),
            nodes=nodes,
            memory_gb=float(nodes),  # 1 GB per node: exactly representable
            user=f"user_{user}",
        )
        for i, (submit, duration, nodes, user) in enumerate(raw)
    ]
    buf = io.StringIO()
    jobs_to_swf(jobs, buf)
    buf.seek(0)
    back = jobs_from_swf(buf)
    assert len(back) == len(jobs)
    for orig, new in zip(
        sorted(jobs, key=lambda j: (j.submit_time, j.job_id)), back
    ):
        assert new.job_id == orig.job_id
        assert new.nodes == orig.nodes
        assert new.user == orig.user
        assert new.submit_time == pytest.approx(orig.submit_time, abs=0.01)
        assert new.duration == pytest.approx(orig.duration, abs=0.01)
