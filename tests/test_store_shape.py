"""The shape of the archive code under ``src/repro/experiments/``, so
the copies do not grow back: one function renames a temp file over a
live one, one function decides what a torn tail is, and the query
surface is written once.

Counted on the stdlib ``ast`` (like ``test_cli_shape.py``), because
ruff is a lint-job dependency the test image does not carry.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro import experiments

ROOT = Path(experiments.__file__).parent
FUNCTIONS = [
    (path.relative_to(ROOT).as_posix(), node)
    for path in sorted(ROOT.rglob("*.py"))
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
]


def _calls(node, dotted: str):
    return [
        call for call in ast.walk(node)
        if isinstance(call, ast.Call) and ast.unparse(call.func) == dotted
    ]


def _tests_for_newline_on_parse_failure(func) -> bool:
    """An ``.endswith("\\n")`` inside an ``except`` clause: a line that
    failed to parse being asked whether it was ever finished."""
    return any(
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "endswith"
        and [ast.unparse(arg) for arg in call.args] == [repr("\n")]
        for handler in ast.walk(func)
        if isinstance(handler, ast.ExceptHandler)
        for call in ast.walk(handler)
    )


def test_the_guard_sees_what_it_counts():
    src = (
        "def reader(lines, parse):\n"
        "    try:\n        parse(lines[-1])\n"
        "    except ValueError:\n"
        "        return lines[-1].endswith('\\n')\n"
        "def other(line, tmp, path):\n"
        "    os.replace(tmp, path)\n"
        "    return line.endswith('\\n')\n"
    )
    reader, other = ast.parse(src).body
    assert _tests_for_newline_on_parse_failure(reader)
    assert not _tests_for_newline_on_parse_failure(other)
    assert len(_calls(other, "os.replace")) == 1 and not _calls(
        reader, "os.replace"
    )


def test_one_function_replaces_a_file():
    sites = [
        (module, func.name) for module, func in FUNCTIONS
        if _calls(func, "os.replace") or _calls(func, "os.rename")
    ]
    assert sites == [("store.py", "_atomic_rewrite")]


def test_one_function_owns_the_torn_tail_rule():
    sites = [
        (module, func.name) for module, func in FUNCTIONS
        if _tests_for_newline_on_parse_failure(func)
    ]
    assert sites == [("store.py", "_read_jsonl")]


def test_the_query_surface_is_written_once():
    defined = [
        (module, func.name) for module, func in FUNCTIONS
        if func.name in ("iter_runs", "__contains__", "__len__")
    ]
    assert sorted(defined) == [
        ("store.py", "__contains__"),
        ("store.py", "__len__"),
        ("store.py", "iter_runs"),
    ]


def test_the_retired_readers_are_gone_not_aliased():
    names = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in ROOT.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Name, ast.Attribute))
    } | {func.name for _module, func in FUNCTIONS}
    assert not names & {"_iter_lines", "_read_jsonl_lines", "slot_of"}
