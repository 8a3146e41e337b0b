"""The shape of ``experiments/parallel.py``, so the pool rebuild does
not grow back: the sweep owns its worker processes (nothing from
``concurrent.futures``, no reach into an executor's ``_processes``),
the books are kept without a refund rule, a worker computes and never
opens a store (the parent persists every answer), and the module has no
per-file exemption from the complexity gate ``test_src_shape.py`` runs
over all of ``src/repro``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.experiments import parallel

SOURCE = Path(parallel.__file__).read_text(encoding="utf-8")
TREE = ast.parse(SOURCE)
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def test_the_per_file_exemption_is_gone():
    assert "parallel.py" not in PYPROJECT.read_text(encoding="utf-8")


def test_the_sweep_owns_its_workers():
    imported = {
        (node.module if isinstance(node, ast.ImportFrom) else alias.name)
        for node in ast.walk(TREE)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not {m for m in imported if m.startswith("concurrent")}
    assert {"multiprocessing", "multiprocessing.connection"} <= imported


def test_the_pool_rebuild_is_gone_not_renamed():
    names = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(TREE)
        if isinstance(node, (ast.Name, ast.Attribute))
    } | {
        node.name for node in ast.walk(TREE)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert not names & {
        "_processes", "_kill_pool", "drain_and_rebuild", "requeue",
        "consecutive_submit_breaks", "BrokenExecutor",
        "ProcessPoolExecutor", "_run_pooled", "_run_inline",
    }
    # No refund: an attempt, once charged, is never taken back.
    refunds = [
        ast.unparse(node) for node in ast.walk(TREE)
        if isinstance(node, ast.AugAssign)
        and isinstance(node.op, ast.Sub)
        and "attempts" in ast.unparse(node.target)
    ]
    assert not refunds


def test_workers_open_no_store():
    main = next(
        node for node in ast.walk(TREE)
        if isinstance(node, ast.FunctionDef) and node.name == "_worker_main"
    )
    assert [arg.arg for arg in main.args.args] == ["conn", "parent_end"]
    names = {
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute)
        else node.name
        for node in ast.walk(TREE)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }
    assert not names & {"ShardedStore", "persisted", "ensure_initialized"}
