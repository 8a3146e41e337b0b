"""The shape of the agent's decision path, so the per-decision numpy
dispatch does not grow back: ``core/reasoning.py`` and
``core/backends.py`` touch numpy for random streams only, and the
latency model's heterogeneity is computed in one place.

Counted on the stdlib ``ast`` (like ``test_store_shape.py``), because
ruff is a lint-job dependency the test image does not carry.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
DECISION_PATH = ("core/reasoning.py", "core/backends.py")


def _numpy_names_used(source: str) -> set[str]:
    """Every ``np.<name>`` (or ``numpy.<name>``) the source reaches for."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    }


def test_the_guard_sees_what_it_counts():
    assert _numpy_names_used(
        "import numpy as np\n"
        "def f(xs, seed):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    return float(np.median(np.array(xs))) + rng.normal()\n"
    ) == {"random", "median", "array"}


def test_the_decision_path_uses_numpy_for_random_streams_only():
    for module in DECISION_PATH:
        source = (SRC / module).read_text(encoding="utf-8")
        assert _numpy_names_used(source) == {"random"}, module
        assert "from numpy" not in source, module


def test_heterogeneity_is_computed_in_one_place():
    functions = {
        (path.relative_to(SRC).as_posix(), node.name): node
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and "heterogeneity" in node.name
    }
    assert sorted(functions) == [
        ("core/backends.py", "_queue_heterogeneity"),
        ("workloads/generator.py", "workload_heterogeneity"),
    ]
    # The core one only hands the queue over.
    *_, last = functions["core/backends.py", "_queue_heterogeneity"].body
    assert ast.unparse(last) == (
        "return workload_heterogeneity(context.view.queued)"
    )
