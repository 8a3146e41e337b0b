"""The shape of ``ResourceProfile``, so the numpy kernel does not grow
back: the query and mutation path is plain lists and floats, the
preallocation machinery is deleted rather than renamed, and the paper
cells still do exactly the planning work they did on arrays — the work
got cheaper, none of it was skipped.

Guarded by structure and by counts, never by a stopwatch.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.experiments.runner import run_single
from repro.schedulers import packing
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


#: ``(replans, packed_jobs, accepted_moves)`` of the annealer on the
#: paper's cells (workload seed 0, scheduler seed 0), recorded on the
#: numpy profile at d4d1a39: 17,429 placements in all.
RECORDED_WORK = {
    ("homogeneous_short", 10): (10, 10, 0),
    ("homogeneous_short", 20): (20, 20, 0),
    ("heterogeneous_mix", 10): (10, 201, 77),
    ("heterogeneous_mix", 20): (20, 1382, 408),
    ("long_job_dominant", 10): (10, 927, 290),
    ("long_job_dominant", 20): (20, 4016, 702),
    ("high_parallelism", 10): (10, 1647, 257),
    ("high_parallelism", 20): (20, 8880, 1280),
    ("resource_sparse", 10): (10, 10, 0),
    ("resource_sparse", 20): (20, 20, 0),
    ("bursty_idle", 10): (10, 10, 0),
    ("bursty_idle", 20): (20, 276, 80),
    ("adversarial", 10): (10, 10, 0),
    ("adversarial", 20): (20, 20, 0),
}


def test_paper_cells_do_the_recorded_planning_work():
    assert set(RECORDED_WORK) == {
        (scenario, n) for scenario in PAPER_SCENARIOS for n in (10, 20)
    }
    assert sum(work[1] for work in RECORDED_WORK.values()) == 17_429
    measured = {}
    for scenario, n in RECORDED_WORK:
        extras = run_single(
            scenario, n, "ortools_like", workload_seed=0, scheduler_seed=0
        ).result.extras
        measured[scenario, n] = (
            extras["replans"], extras["packed_jobs"], extras["accepted_moves"]
        )
    assert measured == RECORDED_WORK
