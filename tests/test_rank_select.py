"""The SJF family selects, it does not sort (PR 18).

A job's sort key ``(attribute, job_id)`` never changes during a run, so
:meth:`JobColumns.rank` sorts the workload once per key and the
decision is an argmin / argmax over the queue's gathered ranks.

1. **Picks**: on generated queues with heavy ties, the columnar pick,
   the facade pick and ``sorted(queued, key=...)``'s first (fitting)
   job are the same job, for ``sjf``, ``sjf_firstfit`` and
   ``largest_first``; engine views retained across later starts still
   answer for their own queue, and agree with a rebuilt view of it;
   and across later starts, completions and kills they keep their own
   capacity, running set and remaining runtimes.
2. **The guard is a count**: one ``np.lexsort`` per (run, key) for the
   SJF family, none for the policies that never rank; and the
   schedulers' source holds no sort call at all (counted on the stdlib
   ``ast``, like ``test_core_shape.py``).
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.schedulers.sjf
from repro.schedulers.heuristics import LargestFirstScheduler
from repro.schedulers.registry import create_scheduler
from repro.schedulers.sjf import SJFScheduler
from repro.sim.actions import Delay, StartJob
from repro.sim.columns import COLUMNAR_MIN_QUEUE, JobColumns, QueueColumns
from repro.sim.engine import EngineState
from repro.sim.simulator import HPCSimulator, simulate
from repro.workloads.generator import generate_workload

from tests.conftest import make_job
from tests.test_core_reasoning import make_view
from tests.test_engine_state import _checkpoint_disrupted


def _sjf_key(job):
    return (job.walltime, job.job_id)


def _largest_key(job):
    return (job.node_seconds, job.job_id)


#: (scheduler factory, its order over the queue as ``sorted`` kwargs,
#: whether it skips past jobs that do not fit).
POLICIES = {
    "sjf": (SJFScheduler, {"key": _sjf_key}, False),
    "sjf_firstfit": (
        lambda: SJFScheduler(strict=False),
        {"key": _sjf_key},
        True,
    ),
    "largest_first": (
        LargestFirstScheduler,
        {"key": _largest_key, "reverse": True},
        True,
    ),
}


def sorted_pick(view, order, skips):
    """What the policy means: sort the whole queue, take the first job
    (strict) or the first job that fits."""
    ordered = sorted(view.queued, **order)
    if not skips:
        ordered = ordered[:1]
    for job in ordered:
        if view.can_fit(job):
            return StartJob(job.job_id)
    return Delay


def engine_shaped(view):
    """*view* with an engine-shaped snapshot of its own queue in place
    of the hand-built one: positions into a job list with its own
    masters, so the columnar kernels dispatch on it."""
    jobs = view.queued
    object.__setattr__(
        view,
        "queue",
        QueueColumns(jobs, JobColumns(jobs), array("q", range(len(jobs)))),
    )
    return view


def assert_all_picks_agree(view, facade_only):
    """*view* carries an engine snapshot deep enough for the columnar
    kernels to dispatch on it."""
    for name, (make, order, skips) in POLICIES.items():
        columnar = make()
        assert columnar.columnar(view), name
        expected = sorted_pick(view, order, skips)
        assert columnar.decide(view) == expected, name
        assert facade_only(make()).decide(view) == expected, name


def test_rank_is_the_sorted_place_read_only_and_built_once():
    jobs = [make_job(3, walltime=5.0), make_job(1, walltime=5.0),
            make_job(2, walltime=1.0)]
    masters = JobColumns(jobs)
    rank = masters.rank("walltime")
    assert rank.tolist() == [2, 1, 0]  # ids 2 < 1 < 3: the tie is on id
    assert masters.rank("walltime") is rank
    assert not rank.flags.writeable
    queue = QueueColumns(jobs, masters, [0, 1])
    assert queue.rank("walltime").tolist() == [2, 1]
    assert queue.rank("walltime") is queue.rank("walltime")
    assert not queue.rank("walltime").flags.writeable
    assert queue.first_by("walltime") == 1


@st.composite
def tied_queue_views(draw):
    """Views of queues deep enough for the columnar kernels, with
    engine-shaped snapshots, whose every sort attribute takes 2-3
    values, so almost every comparison is decided by the job-id
    tie-break; ids arrive shuffled."""
    n = draw(st.integers(COLUMNAR_MIN_QUEUE, 3 * COLUMNAR_MIN_QUEUE))
    ids = draw(st.permutations(range(1, n + 1)))
    few = st.sampled_from
    jobs = [
        make_job(
            job_id,
            duration=draw(few([50.0, 100.0, 200.0])),
            walltime=draw(few([200.0, 400.0])),
            nodes=draw(few([1, 2, 4])),
            memory=draw(few([8.0, 64.0])),
        )
        for job_id in ids
    ]
    return engine_shaped(
        make_view(
            jobs,
            free_nodes=draw(st.integers(0, 5)),
            free_mem=draw(few([0.0, 8.0, 32.0, 64.0])),
        )
    )


@given(tied_queue_views())
@settings(
    max_examples=60,
    deadline=None,
    # ``facade_only`` hands out a stateless function: nothing to reset
    # between generated inputs.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_columnar_facade_and_sorted_pick_the_same_job(facade_only, view):
    assert_all_picks_agree(view, facade_only)


def test_retained_engine_views_answer_for_their_own_queue(facade_only):
    """Hold every view of a run that starts jobs from the middle of
    the queue, rank nothing until the run is over, then ask."""
    jobs = generate_workload(
        "heterogeneous_mix", 90, seed=2, arrival_mode="zero"
    )
    scheduler = create_scheduler("first_fit")
    held = []
    decide = scheduler.decide

    def keeping(view):
        held.append(view)
        return decide(view)

    scheduler.decide = keeping
    simulate(jobs, scheduler)
    deep = [v for v in held if len(v.queued) >= COLUMNAR_MIN_QUEUE]
    assert len({v.queued for v in deep}) > 30
    # Not the identity selector: jobs have left from mid-queue.
    assert any(
        v.queue.sel.tolist() != list(range(len(v.queued))) for v in deep
    )
    for view in deep:
        assert_all_picks_agree(view, facade_only)
        # The same queue and capacity, rebuilt over a fresh job list.
        rebuilt = engine_shaped(dataclasses.replace(view))
        assert rebuilt.queue.sel.tolist() == list(range(len(view.queued)))
        assert_all_picks_agree(rebuilt, facade_only)


def test_retained_engine_views_keep_their_own_instant():
    """Hold every view of a disrupted run with what it answered when
    the policy was shown it. After the run — later starts, completions
    and kills since — each still answers the same, and the template
    every view dict was copied from still holds only the run's
    constants: no copy of it aliased engine state."""
    jobs = generate_workload("checkpoint_stress", 60, seed=1)
    scheduler = create_scheduler("fcfs_backfill")
    decide = scheduler.decide
    held = []

    def answers(view):
        return (
            view.free_nodes,
            view.free_memory_gb,
            [run.job.job_id for run in view.running],
            [run.job.job_id for run in view.running_by_walltime_end()],
            view.next_completion_time,
            dict(view.remaining_runtimes),
        )

    def keeping(view):
        held.append((view, answers(view), view.queue.n))
        return decide(view)

    scheduler.decide = keeping
    state = EngineState(
        HPCSimulator(
            jobs=jobs, scheduler=scheduler, **_checkpoint_disrupted(jobs)
        )
    )
    template = dict(state._view_template)
    while state.step():
        pass
    assert state.result().preemptions
    running = [set(then[2]) for _, then, _ in held]
    assert any(b - a for a, b in zip(running, running[1:]))  # starts
    assert any(a - b for a, b in zip(running, running[1:]))  # departures
    assert len({then[0] for _, then, _ in held}) > 1
    assert len({then[4] for _, then, _ in held}) > 1
    for view, then, depth in held:
        assert answers(view) == then
        assert view.queue.n == depth
    assert state._view_template == template
    dicts = {id(vars(view)) for view, _, _ in held}
    assert len(dicts) == len(held) and id(state._view_template) not in dicts


# -- the guard is a count, not a stopwatch ------------------------------


class CountingNumpy:
    """``numpy`` as ``repro.sim.columns`` sees it, counting lexsorts."""

    def __init__(self):
        self.lexsorts = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def lexsort(self, keys):
        self.lexsorts += 1
        return np.lexsort(keys)


@pytest.mark.parametrize(
    "name, sorts_per_run",
    [
        ("sjf", 1),
        ("sjf_firstfit", 1),
        ("largest_first", 1),
        ("fcfs", 0),
        ("first_fit", 0),
        ("fcfs_backfill", 0),
    ],
)
def test_one_sort_per_run_and_key(monkeypatch, name, sorts_per_run):
    counting = CountingNumpy()
    monkeypatch.setattr("repro.sim.columns.np", counting)
    jobs = generate_workload(
        "heterogeneous_mix", 300, seed=0, arrival_mode="zero"
    )
    for run in (1, 2):
        result = simulate(jobs, create_scheduler(name))
        assert len(result.decisions) >= len(jobs)
        assert counting.lexsorts == run * sorts_per_run


def _sort_calls(tree: ast.AST) -> set[str]:
    """Every sort-shaped call under *tree*: ``sorted(...)``,
    ``x.lexsort(...)``, ``x.argsort(...)``, ``x.sort(...)``."""
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in ("sorted", "lexsort", "argsort", "sort"):
                called.add(name)
    return called


def test_the_guard_sees_what_it_counts():
    assert _sort_calls(
        ast.parse(
            "order = np.lexsort((ids, runtime))\n"
            "ordered = sorted(queued, key=key)\n"
            "first = runtime.argsort()[0]\n"
            "best = min(queued, key=key)\n"
        )
    ) == {"lexsort", "sorted", "argsort"}


def test_the_sjf_family_holds_no_sort_call():
    sjf = ast.parse(inspect.getsource(repro.schedulers.sjf))
    largest = ast.parse(inspect.getsource(LargestFirstScheduler))
    assert _sort_calls(sjf) == set()
    assert _sort_calls(largest) == set()
