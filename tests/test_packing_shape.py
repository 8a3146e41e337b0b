"""The shape of the planner, so deleted machinery does not grow back.

``ResourceProfile``'s query and mutation path is plain lists and
floats, and the preallocation machinery is deleted rather than renamed.
There is one planner — the annealer — and its packer places every
candidate order from scratch: no saved incumbents, no prefix cache, no
checkpoints, no late-pivot move. The paper cells still make the
replans and accept the moves they did on arrays; each candidate now
pays for its whole order.

Guarded by structure and by counts, never by a stopwatch.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.runner import run_single
from repro.schedulers import optimizer, packing
from repro.workloads.scenarios import PAPER_SCENARIOS

TREE = ast.parse(Path(packing.__file__).read_text(encoding="utf-8"))
PROFILE = next(
    node for node in TREE.body
    if isinstance(node, ast.ClassDef) and node.name == "ResourceProfile"
)
METHODS = {
    node.name: node for node in PROFILE.body
    if isinstance(node, ast.FunctionDef)
}

HOT_PATH = (
    "earliest_start", "_ensure_breakpoint", "reserve", "reserve_trusted",
    "snapshot", "restore",
)


@pytest.mark.parametrize("method", HOT_PATH)
def test_hot_path_never_names_numpy(method):
    names = {
        node.id for node in ast.walk(METHODS[method])
        if isinstance(node, ast.Name)
    }
    assert not names & {"np", "numpy"}


def test_preallocation_is_gone_not_renamed():
    identifiers = set()
    for node in ast.walk(TREE):
        if isinstance(node, ast.Name):
            identifiers.add(node.id)
        elif isinstance(node, ast.Attribute):
            identifiers.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            identifiers.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            identifiers.add(node.value)  # ``__slots__`` entries
    assert not identifiers & {"_alloc", "_grow", "_b_feas", "_b_tmp", "_size"}
    # One profile class, and its whole state is the three columns.
    assert [
        node.name for node in TREE.body
        if isinstance(node, ast.ClassDef) and node.name.endswith("Profile")
    ] == ["ResourceProfile"]
    assert packing.ResourceProfile.__slots__ == ("_times", "_fn", "_fm")


def test_one_planner():
    assert importlib.util.find_spec("repro.schedulers.genetic") is None
    assert not list(Path(packing.__file__).parent.glob("genetic*"))


def test_packer_has_no_prefix_cache_and_no_knobs():
    for module in (packing, optimizer):
        source = Path(module.__file__).read_text(encoding="utf-8")
        for name in (
            "IncrementalPacker", "_Incumbent", "PackStats", "pack_from",
            "commit", "_restore_to", "_stride_for", "checkpoints",
            "jobs_replayed", "incumbent", "_saved", "_stride_override",
        ):
            assert name not in source, (module.__name__, name)
    keywords = inspect.signature(packing.SerialPacker).parameters
    assert list(keywords) == ["now", "free_nodes", "free_memory_gb", "releases"]
    public = {
        name for name in vars(packing.SerialPacker) if not name.startswith("_")
    }
    assert public == {"pack"}


#: ``AnnealingConfig``'s fields once ``late_pivot_p`` and the windowed
#: search's ``window`` were deleted.
ANNEALER_OPTIONS = [
    "base_iterations", "per_job_iterations", "max_iterations",
    "t0_fraction", "cooling", "flow_time_weight",
]


def test_annealer_options_and_uniform_move():
    fields = [f.name for f in dataclasses.fields(optimizer.AnnealingConfig)]
    assert fields == ANNEALER_OPTIONS
    assert not hasattr(optimizer, "WINDOW_EPOCHS")
    tree = ast.parse(Path(optimizer.__file__).read_text(encoding="utf-8"))
    sample_move = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_sample_move"
    )
    called = {
        node.func.attr for node in ast.walk(sample_move)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert called == {"integers"}


@pytest.mark.parametrize("seed", range(4))
def test_moves_draw_the_sized_draw_stream(seed):
    """``_sample_move`` consumes the generator exactly as one
    ``integers(0, m, size=2)`` draw per move did, with the acceptance
    test's ``random()`` calls between moves — the seeded digests rest
    on this stream."""
    annealer = optimizer.AnnealingOptimizer(seed=seed)
    twin = np.random.default_rng(seed)
    for k in range(1500):
        m = 2 + k % 300
        i, j = twin.integers(0, m, size=2)
        want = None if i == j else (int(min(i, j)), int(max(i, j)))
        assert annealer._sample_move(m) == want
        if k % 3 == 0:
            assert annealer._rng.random() == twin.random()


#: ``(replans, packed_jobs, accepted_moves)`` of the annealer on the
#: paper's cells (workload seed 0, scheduler seed 0). ``replans`` and
#: ``accepted_moves`` were recorded on the numpy profile at d4d1a39;
#: ``packed_jobs`` counts whole-order packs of every candidate, 22,394
#: placements in all.
RECORDED_WORK = {
    ("homogeneous_short", 10): (10, 10, 0),
    ("homogeneous_short", 20): (20, 20, 0),
    ("heterogeneous_mix", 10): (10, 201, 77),
    ("heterogeneous_mix", 20): (20, 1613, 408),
    ("long_job_dominant", 10): (10, 1088, 290),
    ("long_job_dominant", 20): (20, 5266, 702),
    ("high_parallelism", 10): (10, 2011, 257),
    ("high_parallelism", 20): (20, 11817, 1280),
    ("resource_sparse", 10): (10, 10, 0),
    ("resource_sparse", 20): (20, 20, 0),
    ("bursty_idle", 10): (10, 10, 0),
    ("bursty_idle", 20): (20, 298, 80),
    ("adversarial", 10): (10, 10, 0),
    ("adversarial", 20): (20, 20, 0),
}


def test_paper_cells_do_the_recorded_planning_work():
    assert set(RECORDED_WORK) == {
        (scenario, n) for scenario in PAPER_SCENARIOS for n in (10, 20)
    }
    assert sum(work[1] for work in RECORDED_WORK.values()) == 22_394
    measured = {}
    for scenario, n in RECORDED_WORK:
        extras = run_single(
            scenario, n, "ortools_like", workload_seed=0, scheduler_seed=0
        ).result.extras
        measured[scenario, n] = (
            extras["replans"], extras["packed_jobs"], extras["accepted_moves"]
        )
    assert measured == RECORDED_WORK
