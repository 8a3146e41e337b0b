"""Shared test fixtures and helpers."""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest

from repro.schedulers.registry import SCHEDULER_FACTORIES, register_scheduler
from repro.service.protocol import schedule_digest
from repro.sim.cluster import ResourcePool
from repro.sim.job import Job
from repro.sim.simulator import HPCSimulator

from tests.object_reference import run_object
from tests.packing_reference import (
    ReferenceResourceProfile,
    plan_values,
    reference_pack_order,
)
from tests.random_policy import RandomScheduler
from tests.tooling import faults

# Not a paper baseline, so not in the package; registered here so that
# every audit over ``available_schedulers()`` still runs the engine
# under arbitrary feasible choices.
register_scheduler("random", lambda seed=0, **kw: RandomScheduler(seed=seed))


def _broken(seed=0, **kw):
    raise RuntimeError("the broken scheduler cannot be built")


@pytest.fixture
def broken_scheduler(monkeypatch):
    """Registers ``broken``, a scheduler whose factory raises, for the
    test's duration: a valid cell that fails inside its worker, which
    is what the retry and quarantine paths need. Forked workers
    inherit the registration."""
    monkeypatch.setitem(SCHEDULER_FACTORIES, "broken", _broken)
    return "broken"


@pytest.fixture(autouse=True)
def _clean_faults():
    """Every test starts and ends with fault injection off."""
    faults.install(None)
    yield
    faults.install(None)


def make_job(
    job_id: int = 1,
    *,
    submit: float = 0.0,
    duration: float = 100.0,
    nodes: int = 2,
    memory: float = 8.0,
    user: str = "user_0",
    walltime: float | None = None,
) -> Job:
    """Compact job factory for hand-crafted scheduling scenarios."""
    return Job(
        job_id=job_id,
        submit_time=submit,
        duration=duration,
        nodes=nodes,
        memory_gb=memory,
        user=user,
        walltime=duration if walltime is None else walltime,
    )


def run_digest(run) -> str:
    """Full-precision behavioural digest of one ExperimentRun — the
    digest the service pins streamed schedules with."""
    return schedule_digest(run.result, run.metrics.as_dict())


def pop_earliest(calendar):
    """The earliest ``(time, kind, payload)`` of an ``ArrayCalendar``,
    removed (``None`` when empty): ``pop_due`` with no horizon."""
    return calendar.pop_due(math.inf)


def neumaier_sum(values) -> float:
    """Compensated summation: the float path of builtin ``sum()`` from
    Python 3.12 on."""
    total = comp = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp


def left_fold(values) -> float:
    """Plain left-to-right float summation: builtin ``sum()`` up to
    Python 3.11, and the stated order of every digest-bearing sum."""
    total = 0.0
    for x in values:
        total += x
    return total


def profile_columns(profile) -> tuple[list, list, list]:
    """``(times, free nodes, free memory)`` as lists, of the kernel's
    ``ResourceProfile`` or of the reference's arrays."""
    if isinstance(profile, ReferenceResourceProfile):
        return (
            profile.times.tolist(),
            profile.free_nodes.tolist(),
            profile.free_memory.tolist(),
        )
    snap = profile.snapshot()
    return snap.times, snap.free_nodes, snap.free_memory


def run_sim(jobs, scheduler, *, nodes: int = 256, memory: float = 2048.0):
    """Run a simulation on a fresh default cluster and verify capacity."""
    sim = HPCSimulator(
        jobs=list(jobs),
        scheduler=scheduler,
        cluster=ResourcePool(total_nodes=nodes, total_memory_gb=memory),
    )
    result = sim.run()
    result.verify_capacity()
    return result


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_cluster() -> ResourcePool:
    """A 8-node / 64 GB partition where contention is easy to craft."""
    return ResourcePool(total_nodes=8, total_memory_gb=64.0)


@pytest.fixture
def paper_cluster() -> ResourcePool:
    """The paper's 256-node / 2048 GB partition."""
    return ResourcePool(total_nodes=256, total_memory_gb=2048.0)


# -- oracle seams ------------------------------------------------------
# The retained reference implementations (object-graph event loop,
# naive packer, facade decision kernels) are reachable from tests
# only, by substitution at a seam the product already has — never
# through a product option.


@contextmanager
def _substituted(*setattr_args):
    """Context manager form of ``monkeypatch.setattr``, so one test
    can run the product path and the oracle side by side."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(*setattr_args)
        yield


@pytest.fixture
def object_engine():
    """``with object_engine(): ...`` runs every :class:`HPCSimulator`
    inside the block on the object-graph reference loop."""
    return partial(_substituted, HPCSimulator, "run", run_object)


class NaivePacker:
    """:class:`~repro.schedulers.packing.SerialPacker`'s surface over
    the naive reference packer: every candidate is packed from scratch
    on a fresh ``np.insert`` profile."""

    def __init__(self, **profile):
        self._profile = profile
        self.jobs_packed = 0

    def pack(self, order):
        self.jobs_packed += len(order)
        return plan_values(
            reference_pack_order(order, **self._profile), self._profile["now"]
        )


@pytest.fixture
def naive_packer():
    """``with naive_packer(): ...`` makes the annealer plan with
    :class:`NaivePacker` instead of the list-backed packing kernel."""
    return partial(
        _substituted,
        "repro.schedulers.optimizer.SerialPacker",
        NaivePacker,
    )


@pytest.fixture
def facade_only():
    """``facade_only(scheduler)`` pins *scheduler* to its ``Job``-facade
    decision kernel by shadowing the class capability flag on the
    instance, and returns it."""

    def shadow(scheduler):
        scheduler.supports_columns = False
        return scheduler

    return shadow
