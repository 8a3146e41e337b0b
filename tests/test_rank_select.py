"""The SJF family selects, it does not sort (PR 18).

A job's sort key ``(attribute, job_id)`` never changes during a run, so
:meth:`JobColumns.rank` sorts the workload once per key and the
decision is an argmin / argmax over the queue's gathered ranks.

1. **Picks**: on generated queues with heavy ties, the columnar pick,
   the facade pick and ``sorted(queued, key=...)``'s first (fitting)
   job are the same job, for ``sjf``, ``sjf_firstfit`` and
   ``largest_first``; engine views retained across later starts still
   answer for their own queue, and agree with a hand-built view of it.
2. **The guard is a count**: one ``np.lexsort`` per (run, key) for the
   SJF family, none for the policies that never rank; and the
   schedulers' source holds no sort call at all (counted on the stdlib
   ``ast``, like ``test_core_shape.py``).
"""

from __future__ import annotations

import ast
import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.schedulers.sjf
from repro.schedulers.heuristics import LargestFirstScheduler
from repro.schedulers.registry import create_scheduler
from repro.schedulers.sjf import SJFScheduler
from repro.sim.actions import Delay, StartJob
from repro.sim.columns import COLUMNAR_MIN_QUEUE, JobColumns, QueueColumns
from repro.sim.simulator import simulate
from repro.workloads.generator import generate_workload

from tests.conftest import make_job
from tests.test_core_reasoning import make_view


def _sjf_key(use_walltime):
    attribute = "walltime" if use_walltime else "duration"
    return lambda job: (getattr(job, attribute), job.job_id)


def _largest_key(job):
    return (job.node_seconds, job.job_id)


#: (scheduler factory, its order over the queue as ``sorted`` kwargs,
#: whether it skips past jobs that do not fit).
POLICIES = {
    "sjf": (SJFScheduler, {"key": _sjf_key(True)}, False),
    "sjf_duration": (
        lambda: SJFScheduler(use_walltime=False),
        {"key": _sjf_key(False)},
        False,
    ),
    "sjf_firstfit": (
        lambda: SJFScheduler(strict=False),
        {"key": _sjf_key(True)},
        True,
    ),
    "sjf_firstfit_duration": (
        lambda: SJFScheduler(strict=False, use_walltime=False),
        {"key": _sjf_key(False)},
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


def assert_all_picks_agree(view, facade_only):
    """*view* has a columnar projection attached and a queue deep
    enough to dispatch on it."""
    for name, (make, order, skips) in POLICIES.items():
        columnar = make()
        assert columnar.columnar(view), name
        expected = sorted_pick(view, order, skips)
        assert columnar.decide(view) == expected, name
        assert facade_only(make()).decide(view) == expected, name


def test_rank_is_the_sorted_place_read_only_and_built_once():
    masters = JobColumns(
        [make_job(3, walltime=5.0), make_job(1, walltime=5.0),
         make_job(2, walltime=1.0)]
    )
    rank = masters.rank("walltime")
    assert rank.tolist() == [2, 1, 0]  # ids 2 < 1 < 3: the tie is on id
    assert masters.rank("walltime") is rank
    assert not rank.flags.writeable
    queue = QueueColumns(masters, [0, 1], 2)
    assert queue.rank("walltime").tolist() == [2, 1]
    assert queue.rank("walltime") is queue.rank("walltime")
    assert not queue.rank("walltime").flags.writeable
    assert queue.first_by("walltime") == 1


@st.composite
def tied_queue_views(draw):
    """Hand-built views of queues deep enough for the columnar kernels whose every sort
    attribute takes 2-3 values, so almost every comparison is decided
    by the job-id tie-break; ids arrive shuffled."""
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
    return make_view(
        jobs,
        free_nodes=draw(st.integers(0, 5)),
        free_mem=draw(few([0.0, 8.0, 32.0, 64.0])),
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
    view.columns()  # attach the identity-selector projection
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
        v.columns().sel.tolist() != list(range(len(v.queued))) for v in deep
    )
    for view in deep:
        assert_all_picks_agree(view, facade_only)
        # The same queue and capacity, rebuilt by hand.
        rebuilt = dataclasses.replace(view)
        assert rebuilt.columns().sel.tolist() == list(range(len(view.queued)))
        assert_all_picks_agree(rebuilt, facade_only)


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
