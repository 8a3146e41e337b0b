"""The complexity gate ``pyproject.toml`` sets, run over all of
``src/repro`` in tier-1.

Complexity is counted with ruff's C901 rule re-implemented on the
stdlib ``ast`` (1 per function, +1 per ``if``/``elif``/loop/``except``
clause/non-empty ``try``-``else``/``match`` case, a nested function
adding 1 + its own count to its parent), because ruff is a lint-job
dependency the test image does not carry. The limit and the per-file
exemptions are read from ``[tool.ruff.lint]`` rather than restated
here, so the gate that runs locally is the gate the ``ruff`` job
claims: raising the limit or exempting a file is a ``pyproject.toml``
diff, and an exemption nothing needs any more fails.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from functools import cache
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest itself depends on tomli
    import tomli as tomllib

ROOT = Path(__file__).parent.parent
RUFF_LINT = tomllib.loads(
    (ROOT / "pyproject.toml").read_text(encoding="utf-8")
)["tool"]["ruff"]["lint"]
MAX_COMPLEXITY = RUFF_LINT["mccabe"]["max-complexity"]
C901_EXEMPT = [
    pattern
    for pattern, rules in RUFF_LINT["per-file-ignores"].items()
    if "C901" in rules
]


def _branches(stmts) -> int:
    total = 0
    for stmt in stmts:
        if isinstance(stmt, ast.If):
            # An ``elif`` is an ``If`` alone in ``orelse``: the
            # recursion counts it; a plain ``else`` adds nothing.
            total += 1 + _branches(stmt.body) + _branches(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            total += 1 + _branches(stmt.body) + _branches(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            total += _branches(stmt.body) + _branches(stmt.finalbody)
            total += bool(stmt.orelse) + _branches(stmt.orelse)
            for handler in stmt.handlers:
                total += 1 + _branches(handler.body)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            total += _branches(stmt.body)
        elif isinstance(stmt, ast.Match):
            for case in stmt.cases:
                total += 1 + _branches(case.body)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            total += 1 + _branches(stmt.body)
        elif isinstance(stmt, ast.ClassDef):
            total += _branches(stmt.body)
    return total


def complexity(func: ast.FunctionDef) -> int:
    return 1 + _branches(func.body)


@cache
def over_the_gate() -> dict[str, dict[str, int]]:
    """``{file: {function: complexity}}`` for every function of
    ``src/repro`` above the limit, exempt files included."""
    over: dict[str, dict[str, int]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and complexity(node) > MAX_COMPLEXITY
            ):
                file = path.relative_to(ROOT).as_posix()
                over.setdefault(file, {})[node.name] = complexity(node)
    return over


def test_counting_rule_on_known_shapes():
    src = (
        "def f(x):\n"
        "    if x:\n        pass\n"
        "    elif x > 1:\n        pass\n"
        "    else:\n        pass\n"
        "    for _ in x:\n"
        "        try:\n            pass\n"
        "        except ValueError:\n            pass\n"
        "        except OSError:\n            pass\n"
        "    def g():\n"
        "        while x:\n            pass\n"
    )
    # 1 + if + elif + for + 2 handlers + (nested def + its while)
    assert complexity(ast.parse(src).body[0]) == 8


def test_the_gate_is_the_one_ruff_is_configured_with():
    assert "C901" in RUFF_LINT["select"]
    # pyproject.toml: "ratchet down, never up".
    assert isinstance(MAX_COMPLEXITY, int) and MAX_COMPLEXITY <= 14


def test_no_function_in_src_over_the_complexity_gate():
    assert {
        file: funcs for file, funcs in over_the_gate().items()
        if not any(fnmatch(file, pattern) for pattern in C901_EXEMPT)
    } == {}


def test_every_exemption_is_still_needed():
    over = over_the_gate()
    assert [
        pattern for pattern in C901_EXEMPT
        if not any(fnmatch(file, pattern) for file in over)
    ] == []
