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
   for a view's :class:`~repro.sim.columns.ViewColumns`, built on the
   first ``columns()`` call: ``fcfs`` and ``fcfs_backfill`` build
   none, the columnar kernels at most one per view and none below
   ``COLUMNAR_MIN_QUEUE``, and a hand-built view takes the facade path
   until columns are attached.
"""

from __future__ import annotations

from array import array
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.columns as columns
from repro.schedulers.registry import available_schedulers, create_scheduler
from repro.sim.cluster import ResourcePool
from repro.sim.columns import (
    COLUMNAR_MIN_QUEUE,
    JobColumns,
    QueueColumns,
    queue_columns_from_jobs,
)
from repro.sim.disruptions import DisruptionSpec, estimate_horizon
from repro.sim.simulator import simulate
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
def column_builds(monkeypatch) -> Counter:
    """``ViewColumns`` builds, counted by the id of the view they are
    built for (``SystemView.columns`` looks the class up per build)."""
    builds: Counter = Counter()

    class Counted(columns.ViewColumns):
        __slots__ = ()

        def __init__(self, queue_cols, view):
            builds[id(view)] += 1
            super().__init__(queue_cols, view)

    monkeypatch.setattr(columns, "ViewColumns", Counted)
    return builds


def depth_and_built(name: str, jobs, builds: Counter):
    """Per decision of *name* over *jobs*: the queue depth of the view
    handed to the policy, whether ``queued`` was built once the policy
    had answered, and how many ``ViewColumns`` it built for the view."""
    policy = create_scheduler(name)
    decide = policy.decide
    log = []

    def watched(view):
        action = decide(view)
        log.append((view.queue.n, built(view), builds.pop(id(view), 0)))
        return action

    policy.decide = watched
    simulate(jobs, policy)
    assert not builds  # every build was for a view the policy was shown
    return log


def test_fcfs_on_a_deep_backlog_never_builds_the_tuple(column_builds):
    log = depth_and_built(
        "fcfs",
        generate_workload("heterogeneous_mix", 400, seed=0),
        column_builds,
    )
    assert max(depth for depth, _, _ in log) > 200
    assert sum(was_built for _, was_built, _ in log) == 0
    assert sum(n_columns for _, _, n_columns in log) == 0


def test_columnar_kernels_never_build_the_tuple(column_builds):
    """On a 40-deep queue every decision the columnar kernel takes
    reads the queue through the snapshot and builds the view's columns
    at most once; the facade twin, below ``COLUMNAR_MIN_QUEUE``, may
    build the tuple and builds no columns."""
    jobs = generate_workload(
        "heterogeneous_mix", 40, seed=0, arrival_mode="zero"
    )
    log = depth_and_built("sjf_firstfit", jobs, column_builds)
    deep = [
        (was_built, n_columns) for depth, was_built, n_columns in log
        if depth >= COLUMNAR_MIN_QUEUE
    ]
    assert len(deep) >= 40 - COLUMNAR_MIN_QUEUE
    assert sum(was_built for was_built, _ in deep) == 0
    assert max(n_columns for _, n_columns in deep) == 1
    assert sum(
        n_columns for depth, _, n_columns in log
        if depth < COLUMNAR_MIN_QUEUE
    ) == 0


def test_easy_backfill_builds_neither_at_any_depth(column_builds):
    """``fcfs_backfill`` walks the snapshot itself: from a full
    40-deep queue down to the last job, no decision builds the tuple
    or the columns."""
    jobs = generate_workload(
        "heterogeneous_mix", 40, seed=0, arrival_mode="zero"
    )
    log = depth_and_built("fcfs_backfill", jobs, column_builds)
    depths = {depth for depth, _, _ in log}
    assert max(depths) == 40 and min(depths) <= 1
    assert sum(was_built for _, was_built, _ in log) == 0
    assert sum(n_columns for _, _, n_columns in log) == 0


COLUMNAR_POLICIES = [
    name for name in available_schedulers()
    if create_scheduler(name).supports_columns
]


@pytest.mark.parametrize("name", COLUMNAR_POLICIES)
def test_hand_built_views_take_the_facade_until_columns_are_attached(
    name, column_builds
):
    """A hand-built view of a 40-deep queue: deciding on it builds no
    columns, and the kernel switches to columnar only once
    ``columns()`` has been attached."""
    jobs = generate_workload(
        "heterogeneous_mix", 40, seed=0, arrival_mode="zero"
    )
    policy = create_scheduler(name)
    view = make_view(jobs, free_nodes=2, free_mem=16.0)
    assert view.queue.n >= COLUMNAR_MIN_QUEUE
    facade = policy.decide(view)
    assert not policy.columnar(view) and not column_builds
    view.columns()
    assert policy.columnar(view) and sum(column_builds.values()) == 1
    assert policy.decide(view) == facade
