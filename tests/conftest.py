"""Shared test fixtures and helpers."""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from repro.sim._object_ref import run_object
from repro.sim.cluster import ResourcePool
from repro.sim.job import Job
from repro.sim.simulator import HPCSimulator

from tests.packing_reference import reference_pack_order


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
    """:class:`~repro.schedulers.packing.IncrementalPacker`'s surface
    over the naive reference packer: every candidate is packed from
    scratch, no prefix cache, no incumbent state."""

    def __init__(self, **profile):
        self._profile = profile
        self.stats = SimpleNamespace(jobs_packed=0)

    def pack(self, order):
        self.stats.jobs_packed += len(order)
        return reference_pack_order(order, **self._profile)

    def pack_from(self, order, pivot):
        return self.pack(order)

    def commit(self, order, pivot, placements):
        pass


@pytest.fixture
def naive_packer():
    """``with naive_packer(): ...`` makes the annealer plan with
    :class:`NaivePacker` instead of the incremental packing kernel."""
    return partial(
        _substituted,
        "repro.schedulers.optimizer.IncrementalPacker",
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
