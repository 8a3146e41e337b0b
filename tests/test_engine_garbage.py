"""A run leaves nothing to the cyclic collector.

Every decision point builds a :class:`~repro.sim.simulator.SystemView`
that holds the queue snapshot (a copy of the queued positions, and the
queue tuple and gathered columns once a policy reads them), the running
tuples and the completion log. Nothing it holds refers back to it, so
a view is freed by reference count as soon as the engine and the
scheduler drop it. A cycle anywhere in that graph would
instead leave every snapshot (thousands of jobs deep on a backlog) for
the collector to walk, again at each gen-0 pass until it is freed.

Each scheduler gets one warm-up cell first: a first run may create
one-time objects (imports, caches) that are cycles by nature. The
measured run then happens with automatic collection off and
``DEBUG_SAVEALL`` on, so the one explicit ``gc.collect()`` afterwards
hands over every object that only a cycle kept alive.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest

from repro.experiments.runner import run_single
from repro.schedulers.registry import available_schedulers
from repro.sim.disruptions import DisruptionSpec
from repro.sim.simulator import SystemView

from tests.conftest import make_job

#: Seeded node failures with checkpoint restart: kills, requeues and
#: restarts with remaining runtimes, besides arrivals and completions.
DISRUPTED = {
    "disruptions": DisruptionSpec(mtbf=40000.0, mttr=1200.0, seed=1),
    "restart_policy": "checkpoint",
    "checkpoint_interval": 600.0,
}


def _cell(name: str, **kw) -> None:
    # 40 jobs queued at t=0 put the columnar kernels (32+ deep) to work.
    run_single("heterogeneous_mix", 40, name, arrival_mode="zero", **kw)


def repro_cycle_garbage(run) -> Counter:
    """Types of ``repro.*`` objects that only the cyclic collector
    frees after *run*, by count."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return Counter(
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage
            if type(obj).__module__.startswith("repro.")
        )
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if enabled:
            gc.enable()


@pytest.mark.parametrize("disrupted", [False, True], ids=["plain", "disrupted"])
@pytest.mark.parametrize("name", available_schedulers())
def test_a_run_leaves_no_cycle_garbage(name, disrupted):
    kw = DISRUPTED if disrupted else {}
    _cell(name, **kw)
    assert repro_cycle_garbage(lambda: _cell(name, **kw)) == Counter()


def test_a_hand_built_view_dies_with_its_last_reference():
    view = SystemView(
        now=0.0,
        queued=tuple(make_job(i, nodes=i) for i in range(1, 5)),
        running=(),
        completed_ids=(),
        free_nodes=2,
        free_memory_gb=64.0,
        total_nodes=8,
        total_memory_gb=64.0,
        pending_arrivals=0,
        next_arrival_time=None,
        next_completion_time=None,
    )
    queue = view.queue
    mask = queue.fits_mask(view.free_nodes, view.free_memory_gb)
    assert mask.tolist() == [True, True, False, False]
    # The snapshot refers to no view at all, not even weakly.
    assert not any(ref is view for ref in gc.get_referents(queue))
    alive = weakref.ref(view)
    # ``queue`` stays referenced: the snapshot must not keep the view.
    enabled = gc.isenabled()
    gc.disable()
    try:
        del view
        assert alive() is None
        assert queue.n == 4 and queue.col("nodes").tolist() == [1, 2, 3, 4]
    finally:
        if enabled:
            gc.enable()
