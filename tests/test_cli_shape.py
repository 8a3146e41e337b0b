"""The shape of ``experiments/cli.py``, so the dispatch chain does not
grow back: ``main`` stays a parse + one handler call, usage errors are
printed in one place, and every handler stays short. (The complexity
gate ``pyproject.toml`` sets runs over all of ``src/repro`` in
``test_src_shape.py``.)
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.experiments import cli

SOURCE = Path(cli.__file__).read_text(encoding="utf-8")
TREE = ast.parse(SOURCE)
FUNCTIONS = {
    node.name: node
    for node in TREE.body
    if isinstance(node, ast.FunctionDef)
}

MAX_MAIN_LINES = 25
MAX_HANDLER_LINES = 100


def _lines(func: ast.FunctionDef) -> int:
    return func.end_lineno - func.lineno + 1


def test_main_is_parse_and_dispatch():
    assert _lines(FUNCTIONS["main"]) <= MAX_MAIN_LINES


def test_no_handler_over_the_length_limit():
    handlers = {
        name: _lines(func)
        for name, func in FUNCTIONS.items()
        if name.startswith("_cmd_")
        or name in ("_drive_sweep", "_matrix_retry_failed")
    }
    assert len(handlers) >= 12
    assert {n: k for n, k in handlers.items() if k > MAX_HANDLER_LINES} == {}


def _is_stderr_print(stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and getattr(stmt.value.func, "id", None) == "print"
        and any(
            kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
            for kw in stmt.value.keywords
        )
    )


def _is_return_2(stmt) -> bool:
    return (
        isinstance(stmt, ast.Return)
        and isinstance(stmt.value, ast.Constant)
        and stmt.value.value == 2
    )


def test_usage_errors_are_printed_in_one_place():
    """Every ``return 2`` is the one in ``main`` that follows the
    ``error: …`` print; handlers raise ``UsageError`` instead."""
    sites = []
    for node in ast.walk(TREE):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for before, stmt in zip([None] + block, block):
                if _is_return_2(stmt):
                    sites.append((stmt.lineno, _is_stderr_print(before)))
    assert len(sites) == 1 and sites[0][1], sites
    main = FUNCTIONS["main"]
    assert main.lineno <= sites[0][0] <= main.end_lineno


def test_no_dispatch_on_the_command_name():
    for node in ast.walk(TREE):
        if isinstance(node, ast.Compare):
            assert ast.unparse(node.left) not in (
                "args.command", "args.store_command"
            ), node.lineno


def _leaf_parsers(parser, path=()):
    subs = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    if not subs:
        yield path, parser
    for sub in subs:
        for name, child in sub.choices.items():
            yield from _leaf_parsers(child, path + (name,))


def test_every_subcommand_has_a_handler():
    leaves = dict(_leaf_parsers(cli.build_parser()))
    assert len(leaves) == 16
    for path, leaf in leaves.items():
        handler = leaf.get_default("handler")
        assert handler is getattr(cli, handler.__name__), path
        assert handler.__name__ in FUNCTIONS, path


#: Modules a cold ``repro-sched run`` never runs: the sweep pool, both
#: store layouts, the figure drivers, the trace loaders, the
#: significance tests and the daemon (their commands import them inside
#: the handler); the annealer and its packer (only the ``ortools_like``
#: factory imports them), and ``numpy.ma``, which ``np.percentile``
#: would load.
NOT_RUN_BY_RUN = (
    "repro.experiments.parallel",
    "repro.experiments.store",
    "repro.experiments.storage",
    "repro.experiments.figures",
    "repro.workloads.swf",
    "repro.workloads.transforms",
    "repro.workloads.polaris",
    "repro.analysis.significance",
    "repro.service",
    "repro.schedulers.optimizer",
    "repro.schedulers.packing",
    "numpy.ma",
    "multiprocessing",
    "asyncio",
)

#: Runs the CLI as ``python -m repro.experiments.cli`` does (the
#: package is imported before the module) and prints every loaded
#: module after the command has finished.
_MODULES_AT_EXIT = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print('MODULES', *sys.modules))\n"
    "runpy.run_module('repro.experiments.cli', run_name='__main__',"
    " alter_sys=True)\n"
)


def test_import_stays_lazy():
    """A cold ``repro-sched run`` (what ``paper_matrix`` times as its
    ``op_ms_p50``) pays to load every module it imports, so it must
    not import the modules only other subcommands run."""
    proc = subprocess.run(
        [
            sys.executable, "-c", _MODULES_AT_EXIT,
            "run", "--scenario", "heterogeneous_mix", "-n", "10",
            "--scheduler", "claude-3.7-sim",
        ],
        check=True,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
    )
    head, sep, modules = proc.stdout.rpartition("MODULES ")
    assert sep and "claude-3.7-sim" in head
    loaded = modules.split()
    assert "repro.experiments.runner" in loaded
    assert [
        m for m in loaded
        if any(m == n or m.startswith(n + ".") for n in NOT_RUN_BY_RUN)
    ] == []
