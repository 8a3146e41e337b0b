"""A decision pays for the queue tuple and its columns only when its
policy reads them.

An engine-built view carries its queue as the snapshot's copy of the
queued positions (:class:`~repro.sim.columns.QueueColumns`);
``view.queued`` is built from it on first read and cached on the
snapshot, and ``view.queue`` — the snapshot itself — answers the
length, the head and single-position reads without building it. Two
halves are pinned here:

1. **Isolation**: a tuple first built long after its view's instant —
   after later starts, kills and requeues — is still the queue of that
   instant (a hypothesis property over generated runs).
2. **Counts, not a stopwatch**: ``fcfs`` on a deep backlog,
   ``fcfs_backfill`` at any depth and the columnar kernels on a
   40-deep queue hand back every view with ``queued`` never built;
   only the facade kernels of short queues build it. The same holds
   for the columns: ``fcfs`` and ``fcfs_backfill`` build no
   :class:`~repro.sim.columns.JobColumns` masters and gather no
   column, the columnar kernels build the run's masters once and
   gather nothing below ``COLUMNAR_MIN_QUEUE``, and a hand-built view
   always takes the facade path while an engine view of the same depth
   takes the kernel.
"""

from __future__ import annotations

from array import array
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.schedulers.registry import available_schedulers, create_scheduler
from repro.sim.cluster import ResourcePool
from repro.sim.columns import (
    COLUMNAR_MIN_QUEUE,
    JobColumns,
    QueueColumns,
    queue_columns_from_jobs,
)
from repro.sim.disruptions import DisruptionSpec, estimate_horizon
from repro.sim.engine import EngineState
from repro.sim.simulator import HPCSimulator, simulate
from repro.workloads.generator import generate_workload

from tests.conftest import make_job
from tests.test_core_reasoning import make_view
from tests.test_properties import build_jobs, job_lists


def built(view) -> bool:
    """Has *view* built its ``queued`` tuple? (It lives in the instance
    dict from the first read on.)"""
    return "queued" in vars(view)


@settings(max_examples=40, deadline=None)
@given(
    raw=job_lists,
    scheduler=st.sampled_from(available_schedulers()),
    mtbf=st.one_of(st.none(), st.floats(200.0, 5_000.0)),
    seed=st.integers(0, 2**16),
)
def test_a_late_first_read_shows_the_queue_of_its_instant(
    raw, scheduler, mtbf, seed
):
    """A wrapping ``decide`` copies each view's queue position by
    position before the policy sees it; after the run, each view's
    ``queued`` — built then for every view the policy left alone —
    equals that copy."""
    jobs = build_jobs(raw)
    policy = create_scheduler(scheduler, seed=seed)
    decide = policy.decide
    held = []

    def copying(view):
        queue = view.queue
        held.append((view, tuple(queue[k] for k in range(queue.n))))
        return decide(view)

    policy.decide = copying
    kw = {}
    if mtbf is not None:
        kw = {
            "disruptions": DisruptionSpec(mtbf=mtbf, mttr=120.0, seed=seed)
            .build(n_nodes=8, horizon=estimate_horizon(jobs, 8)),
            "restart_policy": "checkpoint",
            "checkpoint_interval": 50.0,
        }
    simulate(
        jobs, policy, cluster=ResourcePool(total_nodes=8, total_memory_gb=64.0),
        **kw,
    )
    late = [view for view, _ in held if not built(view)]
    if scheduler == "fcfs":  # reads only the head: every read is late
        assert len(late) == len(held) > 0
    for view, then in held:
        assert view.queued == then
        assert view.queue.n == len(then)


def test_iterating_a_snapshot_reads_only_the_jobs_taken():
    """``iter(view.queue)`` walks the position copy in queue order, one
    job-list read per job taken, and caches neither the tuple nor a
    column; over a hand-built queue it walks the jobs themselves."""
    jobs = [make_job(i, nodes=i) for i in range(1, 7)]
    reads = []

    class ReadLogging(list):
        def __getitem__(self, i):
            reads.append(i)
            return super().__getitem__(i)

    snapshot = QueueColumns(
        ReadLogging(jobs), JobColumns(jobs), array("q", [4, 1, 3])
    )
    assert reads == [4]  # the head, read once when the snapshot is taken
    walk = iter(snapshot)
    assert next(walk) is jobs[4] and reads == [4, 4]
    assert list(walk) == [jobs[1], jobs[3]] and reads == [4, 4, 1, 3]
    assert snapshot._queued is None and not snapshot._gathered
    assert list(queue_columns_from_jobs(tuple(jobs))) == jobs


@pytest.fixture
def column_work(monkeypatch) -> Counter:
    """Column work as it happens: ``"masters"`` counts
    :class:`JobColumns` builds, ``"gathers"`` the queue-order columns a
    snapshot gathers off them."""
    work: Counter = Counter()
    build, gather = JobColumns.__init__, QueueColumns._gather

    def counted_build(self, jobs):
        work["masters"] += 1
        build(self, jobs)

    def counted_gather(self, name, master):
        work["gathers"] += 1
        return gather(self, name, master)

    monkeypatch.setattr(JobColumns, "__init__", counted_build)
    monkeypatch.setattr(QueueColumns, "_gather", counted_gather)
    return work


def depth_and_built(name: str, jobs, work: Counter):
    """Per decision of *name* over *jobs*: the queue depth of the view
    handed to the policy, whether ``queued`` was built once the policy
    had answered, and the masters built and columns gathered while it
    decided."""
    policy = create_scheduler(name)
    decide = policy.decide
    log = []

    def watched(view):
        before = work.copy()
        action = decide(view)
        done = work - before
        log.append(
            (view.queue.n, built(view), done["masters"], done["gathers"])
        )
        return action

    policy.decide = watched
    simulate(jobs, policy)
    # All column work happened inside a decision the log saw.
    assert sum(entry[2] for entry in log) == work["masters"]
    assert sum(entry[3] for entry in log) == work["gathers"]
    return log


def test_fcfs_on_a_deep_backlog_never_builds_the_tuple(column_work):
    log = depth_and_built(
        "fcfs",
        generate_workload("heterogeneous_mix", 400, seed=0),
        column_work,
    )
    assert max(depth for depth, _, _, _ in log) > 200
    assert sum(was_built for _, was_built, _, _ in log) == 0
    assert not column_work


def test_columnar_kernels_never_build_the_tuple(column_work):
    """On a 40-deep queue every decision the columnar kernel takes
    reads the queue through the snapshot; the run builds its masters
    once and each snapshot gathers a column at most once (``nodes``,
    ``memory_gb`` and the walltime rank: three at most per decision).
    The facade twin, below ``COLUMNAR_MIN_QUEUE``, may build the tuple
    and builds and gathers no column."""
    jobs = generate_workload(
        "heterogeneous_mix", 40, seed=0, arrival_mode="zero"
    )
    log = depth_and_built("sjf_firstfit", jobs, column_work)
    deep = [entry for entry in log if entry[0] >= COLUMNAR_MIN_QUEUE]
    assert len(deep) >= 40 - COLUMNAR_MIN_QUEUE
    assert sum(was_built for _, was_built, _, _ in deep) == 0
    assert column_work["masters"] == 1
    assert 0 < max(gathers for _, _, _, gathers in deep) <= 3
    assert not any(
        masters or gathers for depth, _, masters, gathers in log
        if depth < COLUMNAR_MIN_QUEUE
    )


def test_easy_backfill_builds_neither_at_any_depth(column_work):
    """``fcfs_backfill`` walks the snapshot itself: from a full
    40-deep queue down to the last job, no decision builds the tuple
    or a column."""
    jobs = generate_workload(
        "heterogeneous_mix", 40, seed=0, arrival_mode="zero"
    )
    log = depth_and_built("fcfs_backfill", jobs, column_work)
    depths = {depth for depth, _, _, _ in log}
    assert max(depths) == 40 and min(depths) <= 1
    assert sum(was_built for _, was_built, _, _ in log) == 0
    assert not column_work


COLUMNAR_POLICIES = [
    name for name in available_schedulers()
    if create_scheduler(name).supports_columns
]


@pytest.mark.parametrize("name", COLUMNAR_POLICIES)
def test_hand_built_views_take_the_facade_engine_views_the_kernel(
    name, column_work
):
    """The engine's first view of a 40-deep queue dispatches to the
    kernel, which gathers columns; the same queue and capacity on a
    hand-built view takes the facade, which builds and gathers none,
    and picks the same job."""
    jobs = generate_workload(
        "heterogeneous_mix", 40, seed=0, arrival_mode="zero"
    )
    policy = create_scheduler(name)
    state = EngineState(HPCSimulator(jobs=jobs, scheduler=policy))
    state.apply_events(state.now)
    engine_view = state.build_view()
    hand_built = make_view(
        engine_view.queue, free_nodes=engine_view.free_nodes,
        free_mem=engine_view.free_memory_gb,
    )
    assert hand_built.queue.n == engine_view.queue.n == 40
    facade = policy.decide(hand_built)
    assert not policy.columnar(hand_built) and not column_work
    assert policy.columnar(engine_view)
    assert policy.decide(engine_view) == facade
    assert column_work["masters"] == 1 and column_work["gathers"] > 0
