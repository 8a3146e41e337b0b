"""Answers known without the engine: classical scheduling and queueing
results, checked on generated workloads.

Every other correctness test compares the engine with itself, with a
second implementation or with its own bookkeeping. These compare it
with results that hold for any correct simulator:

1. **The work bound.** No schedule of jobs released at t = 0 beats
   ``max(Σ nodes·duration / total_nodes, max duration)``: the machine
   must deliver every node-second, and no job runs shorter than its
   duration. Every registered scheduler, the agents that ``Delay``
   included (delaying only lengthens a schedule).
2. **Graham's list-scheduling bound** (Graham 1966). A policy that
   never idles a node while a job waits finishes 1-node jobs released
   at t = 0 on *m* nodes within ``Σp/m + (1 − 1/m)·max p``.
3. **SPT is optimal for P||ΣC** (Conway, Maxwell & Miller 1967). On
   the same inputs shortest-first's total completion time equals the
   closed form ``Σ ceil(k/m)·p(k)``, ``p(k)`` the k-th longest.
4. **Little's law on the sample path** (Little 1961, finite-horizon
   form). For a run that starts and ends empty, the integral of the
   queue length over time equals the sum of every wait a job spent
   queued, a requeue after a kill included, and the integral of the
   running count equals the sum of every attempt's run time. The left
   sides are read step by step off the engine's counters, the right
   sides off the finished schedule's records.

Each side of a comparison adds the same floats in a different order, so
equalities and bounds hold to a relative slack of :data:`REL_SLACK`;
Little's law subtracts killed runs from waits, so it also allows
:data:`ABS_SLACK_S`.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.schedulers.registry import available_schedulers, create_scheduler
from repro.sim.cluster import ResourcePool
from repro.sim.disruptions import DisruptionSpec, estimate_horizon
from repro.sim.engine import EngineState
from repro.sim.job import Job
from repro.sim.simulator import HPCSimulator

from tests.test_properties import build_jobs, job_lists

#: Relative slack between two sums of the same durations added in
#: different orders: at most a few ulps for the 15 jobs drawn here.
REL_SLACK = 1e-12

#: Absolute slack, in seconds, for a difference of such sums.
ABS_SLACK_S = 1e-6

TOTAL_NODES = 8

#: Policies that never leave a node idle while a 1-node job waits:
#: each starts some queued job whenever one fits.
WORK_CONSERVING = (
    "fcfs",
    "fcfs_backfill",
    "sjf",
    "sjf_firstfit",
    "first_fit",
    "largest_first",
    "random",
)

#: 1-node jobs released at t = 0, durations only.
durations = st.lists(
    st.floats(min_value=1.0, max_value=1000.0), min_size=1, max_size=15
)


def pool_sim(jobs, name, seed=0, **kwargs) -> HPCSimulator:
    return HPCSimulator(
        jobs=jobs,
        scheduler=create_scheduler(name, seed=seed),
        cluster=ResourcePool(total_nodes=TOTAL_NODES, total_memory_gb=64.0),
        **kwargs,
    )


def unit_jobs(durations):
    return [
        Job(job_id=i + 1, submit_time=0.0, duration=d, nodes=1, memory_gb=1.0)
        for i, d in enumerate(durations)
    ]


@pytest.mark.parametrize("name", available_schedulers())
@settings(max_examples=40, deadline=None)
@given(raw=job_lists)
def test_makespan_is_at_least_the_work_bound(name, raw):
    jobs = [replace(job, submit_time=0.0) for job in build_jobs(raw)]
    result = pool_sim(jobs, name).run()
    bound = max(
        sum(job.nodes * job.duration for job in jobs) / TOTAL_NODES,
        max(job.duration for job in jobs),
    )
    assert result.makespan >= bound * (1.0 - REL_SLACK)


@pytest.mark.parametrize("name", WORK_CONSERVING)
@settings(max_examples=40, deadline=None)
@given(ps=durations)
def test_work_conserving_makespan_within_grahams_bound(name, ps):
    result = pool_sim(unit_jobs(ps), name).run()
    m = TOTAL_NODES
    bound = sum(ps) / m + (1.0 - 1.0 / m) * max(ps)
    assert result.makespan <= bound * (1.0 + REL_SLACK)


@pytest.mark.parametrize("name", ["sjf", "sjf_firstfit"])
@settings(max_examples=40, deadline=None)
@given(ps=durations)
def test_shortest_first_total_completion_time_is_optimal(name, ps):
    result = pool_sim(unit_jobs(ps), name).run()
    longest_first = sorted(ps, reverse=True)
    optimum = sum(
        math.ceil(k / TOTAL_NODES) * p
        for k, p in enumerate(longest_first, start=1)
    )
    total = sum(rec.end_time for rec in result.records)
    assert total == pytest.approx(optimum, rel=REL_SLACK)


def stepped_integrals(sim: HPCSimulator):
    """Run *sim* step by step; return its result with the integrals over
    time of the queue length and of the running count. What a step
    leaves queued and running holds until the next step's instant."""
    state = EngineState(sim)
    queued_s = running_s = 0.0
    alive = True
    while alive:
        before = state.now
        alive = state.step()
        queued_s += state.n_queued * (state.now - before)
        running_s += len(state.running) * (state.now - before)
    return state.result(), queued_s, running_s


#: The restart policies a killed job's requeue can take, and no
#: disruption at all.
REGIMES = (None, "resubmit", "checkpoint", "preempt_migrate")


@pytest.mark.parametrize("policy", REGIMES)
@pytest.mark.parametrize("name", available_schedulers())
@settings(max_examples=8, deadline=None)
@given(raw=job_lists, seed=st.integers(0, 2**16))
def test_littles_law_on_the_sample_path(name, policy, raw, seed):
    jobs = build_jobs(raw)
    kwargs = {}
    if policy is not None:
        spec = DisruptionSpec(
            mtbf=2_000.0,
            mttr=120.0,
            drain_every=1_000.0,
            drain_nodes=4,
            drain_duration=200.0,
            drain_lead=100.0,
            drain_first=150.0,
            seed=seed,
        )
        kwargs = {
            "disruptions": spec.build(
                n_nodes=TOTAL_NODES,
                horizon=estimate_horizon(jobs, TOTAL_NODES),
            ),
            "restart_policy": policy,
            "checkpoint_interval": 50.0,
        }
    result, queued_s, running_s = stepped_integrals(
        pool_sim(jobs, name, seed, **kwargs)
    )
    # A job waits from its submission to its first start and from each
    # kill to the next start: its last start minus its submission,
    # less the time its killed attempts ran.
    killed_runs = sum(p.time - p.start_time for p in result.preemptions)
    waits = sum(r.start_time - r.job.submit_time for r in result.records)
    runs = sum(r.end_time - r.start_time for r in result.records)
    slack = {"rel": REL_SLACK, "abs": ABS_SLACK_S}
    assert queued_s == pytest.approx(waits - killed_runs, **slack)
    assert running_s == pytest.approx(runs + killed_runs, **slack)
