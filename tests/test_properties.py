"""Property-based tests (hypothesis) for core invariants."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.grammar import parse_reply, render_reply
from repro.metrics.fairness import jain_index
from repro.metrics.normalize import normalize_to_baseline
from repro.metrics.objectives import compute_metrics
from repro.schedulers.fcfs import EasyBackfillScheduler, FCFSScheduler
from repro.schedulers.heuristics import FirstFitScheduler
from repro.schedulers.packing import IncrementalPacker, ResourceProfile
from repro.schedulers.sjf import SJFScheduler
from repro.sim.actions import BackfillJob, Delay, StartJob, Stop
from repro.sim.cluster import ResourcePool
from repro.sim.events import ArrayCalendar, EventKind
from repro.sim.job import Job
from repro.sim.simulator import HPCSimulator

from tests.conftest import pop_earliest
from tests.event_reference import Event, EventQueue
from tests.random_policy import RandomScheduler

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

job_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=500.0),   # submit
        st.floats(min_value=1.0, max_value=1000.0),  # duration
        st.integers(min_value=1, max_value=8),       # nodes
        st.floats(min_value=0.5, max_value=64.0),    # memory
        st.integers(min_value=0, max_value=3),       # user index
    ),
    min_size=1,
    max_size=15,
)


def build_jobs(raw):
    return [
        Job(
            job_id=i + 1,
            submit_time=submit,
            duration=duration,
            nodes=nodes,
            memory_gb=memory,
            user=f"user_{user}",
        )
        for i, (submit, duration, nodes, memory, user) in enumerate(raw)
    ]


SCHEDULER_FACTORIES = [
    lambda: FCFSScheduler(),
    lambda: EasyBackfillScheduler(),
    lambda: SJFScheduler(),
    lambda: FirstFitScheduler(),
    lambda: RandomScheduler(seed=0),
]


# ---------------------------------------------------------------------------
# Simulator invariants
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(raw=job_lists, which=st.integers(min_value=0, max_value=4))
def test_simulation_invariants(raw, which):
    """For arbitrary feasible workloads under arbitrary policies:
    every job runs exactly once, never before submission, never beyond
    cluster capacity, for exactly its duration."""
    jobs = build_jobs(raw)
    sim = HPCSimulator(
        jobs=jobs,
        scheduler=SCHEDULER_FACTORIES[which](),
        cluster=ResourcePool(total_nodes=8, total_memory_gb=64.0),
    )
    result = sim.run()
    result.verify_capacity()
    assert sorted(r.job.job_id for r in result.records) == [
        j.job_id for j in jobs
    ]
    for rec in result.records:
        assert rec.start_time >= rec.job.submit_time - 1e-9
        assert rec.end_time - rec.start_time == pytest.approx(
            rec.job.duration, rel=1e-12, abs=1e-6
        )


@settings(max_examples=20, deadline=None)
@given(raw=job_lists)
def test_llm_agent_invariants(raw):
    """The ReAct agent obeys the same invariants under hallucination."""
    from repro.core.agent import create_llm_scheduler

    jobs = build_jobs(raw)
    agent = create_llm_scheduler(
        "claude-3.7-sim", seed=0, hallucination_rate=0.3
    )
    sim = HPCSimulator(
        jobs=jobs,
        scheduler=agent,
        cluster=ResourcePool(total_nodes=8, total_memory_gb=64.0),
    )
    result = sim.run()
    result.verify_capacity()
    assert len(result.records) == len(jobs)


# ---------------------------------------------------------------------------
# Metric invariants
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50
    )
)
def test_jain_index_bounds(values):
    j = jain_index(values)
    assert 1.0 / len(values) - 1e-9 <= j <= 1.0 + 1e-9


@settings(max_examples=25, deadline=None)
@given(raw=job_lists)
def test_metric_sanity_on_fcfs(raw):
    jobs = build_jobs(raw)
    sim = HPCSimulator(
        jobs=jobs,
        scheduler=FCFSScheduler(),
        cluster=ResourcePool(total_nodes=8, total_memory_gb=64.0),
    )
    report = compute_metrics(sim.run())
    assert report["makespan"] >= max(j.duration for j in jobs) - 1e-9
    assert report["avg_wait_time"] >= 0.0
    assert report["avg_turnaround_time"] >= report["avg_wait_time"]
    assert 0.0 < report["node_utilization"] <= 1.0 + 1e-9
    assert 0.0 < report["memory_utilization"] <= 1.0 + 1e-9
    assert report["throughput"] > 0.0


@settings(max_examples=40, deadline=None)
@given(
    vals=st.dictionaries(
        st.sampled_from(["a", "b", "c"]),
        st.floats(min_value=0.0, max_value=1e3),
        min_size=1,
    )
)
def test_normalization_identity(vals):
    out = normalize_to_baseline(vals, vals)
    for key, value in vals.items():
        if value == 0.0:
            assert math.isnan(out[key])
        else:
            assert out[key] == 1.0


# ---------------------------------------------------------------------------
# Grammar round-trip
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    job_id=st.integers(min_value=0, max_value=10**6),
    kind=st.sampled_from(["start", "backfill", "delay", "stop"]),
    thought=st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
        max_size=200,
    ),
)
def test_grammar_round_trip(job_id, kind, thought):
    action = {
        "start": lambda: StartJob(job_id),
        "backfill": lambda: BackfillJob(job_id),
        "delay": lambda: Delay,
        "stop": lambda: Stop,
    }[kind]()
    text = render_reply(thought, action)
    assert parse_reply(text).action == action


# ---------------------------------------------------------------------------
# Packing invariants
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(raw=job_lists)
def test_packing_never_oversubscribes(raw):
    jobs = build_jobs(raw)
    packed = IncrementalPacker(now=0.0, free_nodes=8, free_memory_gb=64.0).pack(
        jobs
    )
    points = []
    for p in packed:
        assert p.start >= p.job.submit_time - 1e-9
        points.append((p.end, 0, -p.job.nodes, -p.job.memory_gb))
        points.append((p.start, 1, p.job.nodes, p.job.memory_gb))
    points.sort(key=lambda x: (x[0], x[1]))
    nodes = mem = 0.0
    for _, _, dn, dm in points:
        nodes += dn
        mem += dm
        assert nodes <= 8 + 1e-6
        assert mem <= 64.0 + 1e-6


@settings(max_examples=40, deadline=None)
@given(
    releases=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.integers(min_value=1, max_value=4),
        ),
        max_size=5,
    ),
    nodes=st.integers(min_value=1, max_value=8),
    duration=st.floats(min_value=1.0, max_value=50.0),
)
def test_profile_earliest_start_is_feasible(releases, nodes, duration):
    """Whatever earliest_start returns must be reservable."""
    profile = ResourceProfile(
        0.0, 2, 64.0, releases=[(t, n, 0.0) for t, n in releases]
    )
    total = 2 + sum(n for _, n in releases)
    if nodes > total:
        return  # would legitimately never fit
    start = profile.earliest_start(nodes, 1.0, duration, not_before=0.0)
    profile.reserve(start, duration, nodes, 1.0)  # must not raise


# ---------------------------------------------------------------------------
# Event queue ordering
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(
    times=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e4),
            st.sampled_from([EventKind.ARRIVAL, EventKind.COMPLETION]),
        ),
        max_size=30,
    ),
    n_static=st.integers(min_value=0, max_value=30),
)
def test_event_queue_pop_order(times, n_static):
    """The object queue pops in (time, kind) order, and the calendar
    pops exactly its sequence for the same inserts — the first
    *n_static* into the static lane, the rest pushed after sealing."""
    q = EventQueue()
    cal = ArrayCalendar()
    for i, (t, kind) in enumerate(times):
        q.push(Event(t, kind, i))
        if i < n_static:
            cal.add_static(t, kind, i)
    cal.seal()
    for i, (t, kind) in enumerate(times[n_static:], n_static):
        cal.push(t, kind, i)
    popped = [q.pop() for _ in range(len(times))]
    keys = [(e.time, int(e.kind)) for e in popped]
    assert keys == sorted(keys)
    assert [pop_earliest(cal) for _ in times] == [
        (e.time, int(e.kind), e.job_id) for e in popped
    ]
