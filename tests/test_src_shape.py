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

The rest pins what ships: one event calendar with one pop path, built
by the engine for each run and handed in by no caller (served sessions
replay through ``run_single``), no object event queue and no
object-graph oracle in the package (both live in ``tests/``), a
packing module without numpy, no second path beside ``store
doctor --dedupe`` (sharded auto-compaction) or beside SWF (a CSV trace
format), no read of the environment, no fault injection (the chaos
harness is ``tests/tooling/faults.py``), one cluster model, read
without attribute probes (the per-node model is
``tests/node_reference.py``), the paper's four actions, with no
voluntary preemption path behind them, and one annealer search whose
runs are recorded under the plain registry name (no window option, no
``@wW`` label), and one agent loop, with no canned-reply backend beside
the simulated one (``ScriptedBackend`` is ``tests/scripted_backend.py``).
No test harness ships either: the in-process daemon, the record/replay
backends and the ``random`` policy are ``tests/embedded_server.py``,
``tests/replay_backend.py`` and ``tests/random_policy.py``, and no
``session_stats`` op duplicates ``stats``.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from functools import cache
from inspect import signature
from pathlib import Path

from repro.sim.engine import EngineState, run_soa

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


# -- one engine, one calendar, one pop path ------------------------------

SRC = ROOT / "src" / "repro"


def _tree(relative: str) -> ast.Module:
    return ast.parse((SRC / relative).read_text(encoding="utf-8"))


def test_events_module_ships_no_object_queue():
    classes = {
        node.name for node in ast.walk(_tree("sim/events.py"))
        if isinstance(node, ast.ClassDef)
    }
    assert classes.isdisjoint({"Event", "EventQueue"})


def test_calendar_pops_one_way():
    calendar = next(
        node for node in _tree("sim/events.py").body
        if isinstance(node, ast.ClassDef) and node.name == "ArrayCalendar"
    )
    public = {
        node.name for node in calendar.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert public == {"add_static", "seal", "push", "peek_time", "pop_due"}
    # No consumed-past floor: a calendar is built, sealed and consumed
    # by one run, and nothing appends to it afterwards.
    assert [
        path.relative_to(ROOT).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if "_last_popped" in path.read_text(encoding="utf-8")
    ] == []


def test_one_way_into_the_engine():
    """The engine builds its own calendar; no caller hands one in."""
    assert list(signature(run_soa).parameters) == ["sim"]
    assert list(signature(EngineState.__init__).parameters) == ["self", "sim"]


def test_sessions_replay_through_the_batch_path():
    imported = set()
    for node in ast.walk(_tree("service/session.py")):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported.isdisjoint({"repro.sim.engine", "repro.sim.events"})
    assert "repro.experiments.runner" in imported


def imported_packages(tree: ast.Module) -> set[str]:
    """Top-level package of every import in *tree*."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    return imported


def test_packing_imports_no_numpy():
    assert "numpy" not in imported_packages(_tree("schedulers/packing.py"))


def test_no_src_file_names_the_object_oracle():
    assert [
        path.relative_to(ROOT).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if "_object_ref" in path.read_text(encoding="utf-8")
        or "_object_ref" in path.name
    ] == []


# -- one way to drop superseded lines, one trace format --------------------


def _identifiers(tree: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    return names


def test_sharded_store_has_no_auto_compaction():
    """``store doctor --dedupe`` is the one way superseded lines leave a
    store, on either layout: the sharded store names no compaction and
    keeps no supersede counters."""
    tree = _tree("experiments/storage/sharded.py")
    assert sorted(
        name for name in _identifiers(tree)
        if "compact" in name.lower() or "superseded" in name.lower()
    ) == []
    assert not any(
        isinstance(node, ast.Constant) and node.value == "superseded"
        for node in ast.walk(tree)
    )


def test_workloads_ship_no_csv_trace_format():
    import repro.workloads as workloads

    assert not (SRC / "workloads" / "traceio.py").exists()
    assert not any("csv" in name for name in workloads.__all__)


# -- no behaviour armed by the environment, no fault injection shipped -----


def environment_reads(tree: ast.AST) -> list[int]:
    """Lines of every ``os.environ`` / ``os.environb`` / ``os.getenv``
    (or the bare names a ``from os import`` brings in) in *tree*."""
    names = {"environ", "environb", "getenv"}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if (
            isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name) and node.value.id == "os"
        )
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name in names for alias in node.names))
    )


def test_the_guard_sees_each_way_to_read_the_environment():
    for source in ('os.environ.get("X")', 'os.environb[b"X"]',
                   'os.getenv("X")', "from os import getenv"):
        assert environment_reads(ast.parse(source)) == [1]
    assert environment_reads(ast.parse("os.path.join('a')")) == []


def test_nothing_in_src_reads_the_environment():
    """No setting of the package comes from a shell variable; fault
    injection is installed by the test that wants it."""
    assert {
        path.relative_to(ROOT).as_posix(): lines
        for path in sorted(SRC.rglob("*.py"))
        if (lines := environment_reads(
            ast.parse(path.read_text(encoding="utf-8"))
        ))
    } == {}


def test_fault_injection_lives_in_the_tests():
    import importlib.util

    assert importlib.util.find_spec("repro.experiments.faultinject") is None
    for module in ("experiments/store.py", "experiments/parallel.py"):
        imported = set()
        for node in ast.walk(_tree(module)):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        assert not any(
            name == "tests" or name.startswith("tests.") for name in imported
        ), module


# -- one cluster model, read without probes -------------------------------

#: Names the package gives a cluster object: ``cluster`` and
#: ``the_cluster`` locals, and any ``.cluster`` attribute.
CLUSTER_NAMES = {"cluster", "the_cluster"}


def is_cluster(node: ast.AST) -> bool:
    """True if *node* is an expression the package holds a cluster in."""
    return (
        isinstance(node, ast.Name) and node.id in CLUSTER_NAMES
        or isinstance(node, ast.Attribute) and node.attr == "cluster"
    )


def cluster_probes(tree: ast.AST) -> list[int]:
    """Lines of every ``getattr`` / ``hasattr`` call on a cluster."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"getattr", "hasattr"}
        and node.args and is_cluster(node.args[0])
    )


def test_cluster_module_ships_only_the_pool():
    tree = _tree("sim/cluster.py")
    assert sorted(
        node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ) == ["AllocationError", "ResourcePool"]
    assert "numpy" not in imported_packages(tree)


def test_sim_exports_one_cluster_model():
    import repro.sim as sim

    for name in ("ClusterModel", "NodeLevelCluster"):
        assert name not in sim.__all__ and not hasattr(sim, name)


def test_the_guard_sees_each_cluster_probe():
    for source in ('getattr(cluster, "topology", None)',
                   'hasattr(self.cluster, "reset")',
                   'getattr(the_cluster, "offline_nodes", 0)'):
        assert cluster_probes(ast.parse(source)) == [1]
    assert cluster_probes(ast.parse('getattr(self.scheduler, "x", 0)')) == []


def test_nothing_in_src_probes_the_cluster():
    """The engine reads ``ResourcePool`` attributes directly: no
    ``getattr`` default or ``hasattr`` branch stands in for a second
    model that might lack one."""
    assert {
        path.relative_to(ROOT).as_posix(): lines
        for path in sorted(SRC.rglob("*.py"))
        if (lines := cluster_probes(
            ast.parse(path.read_text(encoding="utf-8"))
        ))
    } == {}


# -- the paper's four actions and nothing behind a fifth ------------------


def test_action_space_is_the_papers_four_verbs():
    from repro.sim.actions import ActionKind

    assert [kind.value for kind in ActionKind] == [
        "StartJob", "BackfillJob", "Delay", "Stop",
    ]


def test_sim_exports_no_preempt_action():
    import repro.sim as sim

    assert "PreemptJob" not in sim.__all__ and not hasattr(sim, "PreemptJob")


def test_validation_takes_no_running_set():
    from repro.sim.constraints import ConstraintChecker

    assert "running" not in signature(ConstraintChecker.validate).parameters


def test_engine_keeps_no_announce_flag():
    assert "announce_pending" not in EngineState.__slots__


def preempt_constants(tree: ast.AST) -> list[int]:
    """Lines of every ``"preempt"`` string constant in *tree*."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == "preempt"
    )


def test_no_src_file_names_a_preempt_kill_reason():
    """Every kill is a failure or a drain; ``preempt_migrate`` is a
    restart policy, not a kill reason."""
    assert {
        path.relative_to(ROOT).as_posix(): lines
        for path in sorted(SRC.rglob("*.py"))
        if (lines := preempt_constants(
            ast.parse(path.read_text(encoding="utf-8"))
        ))
    } == {}


# -- one annealer search, recorded under its registry name ----------------


def window_names(tree: ast.AST) -> list[int]:
    """Lines of every ``anneal_window`` identifier in *tree*: a name,
    attribute, definition, parameter, keyword argument or import."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if "anneal_window" in {
            getattr(node, field, None) for field in ("id", "attr", "name", "arg")
        }
    )


def window_labels(tree: ast.AST) -> list[int]:
    """Lines of every string constant in *tree* that holds ``"@w"``, as
    a decorated scheduler label (``f"{name}@w{window}"``) does."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and "@w" in node.value
    )


def test_the_guards_see_each_window_spelling():
    for source in ("anneal_window = 8", "cell.anneal_window",
                   "def f(anneal_window=None): pass",
                   "run(x, anneal_window=8)"):
        assert window_names(ast.parse(source)) == [1], source
    assert window_names(ast.parse('config.get("anneal_window")')) == []
    assert window_labels(ast.parse('f"{name}@w{window}"')) == [1]
    assert window_labels(ast.parse('"user@example"')) == []


def test_no_src_file_carries_a_window_option_or_label():
    """``ortools_like`` has one search: the package takes no window
    and records no ``<name>@w<W>`` scheduler label."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = window_names(tree) + window_labels(tree)
        if lines:
            found[path.relative_to(ROOT).as_posix()] = lines
    assert found == {}


# -- one agent loop, no canned-reply backend in the wheel ------------------


def test_no_src_file_names_a_second_agent_or_the_scripted_backend():
    """Plan-ahead is a multi-action reply to ``ReActSchedulingAgent``;
    canned replies are a test harness."""
    import repro.core as core

    assert not hasattr(core, "ScriptedBackend")
    names = {"BatchedReActAgent", "ScriptedBackend"}
    assert {
        path.relative_to(ROOT).as_posix(): sorted(found)
        for path in sorted(SRC.rglob("*.py"))
        if (found := names & _identifiers(
            ast.parse(path.read_text(encoding="utf-8"))
        ))
    } == {}


# -- no test harness in the wheel -------------------------------------------

#: What left the package with the harness: the random policy, its
#: registry key and the duplicate ``session_stats`` op (``stats``
#: already returns each session's dict).
HARNESS_IDENTIFIERS = {"RandomScheduler", "session_stats", "op_session_stats"}
HARNESS_STRINGS = {"random", "session_stats"}


def harness_names(tree: ast.AST) -> list[int]:
    """Lines of every harness identifier (a name, attribute,
    definition, parameter or import) or string constant in *tree*."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in HARNESS_STRINGS
        or HARNESS_IDENTIFIERS & {
            getattr(node, field, None)
            for field in ("id", "attr", "name", "arg")
        }
    )


def test_the_guard_sees_each_harness_spelling():
    for source in ("class RandomScheduler: pass",
                   "from x import RandomScheduler",
                   '{"random": make}', 'register_scheduler("random", f)',
                   '_OPS = {"session_stats": "op_x"}',
                   "async def op_session_stats(self): pass",
                   "client.session_stats(sid)"):
        assert harness_names(ast.parse(source)) == [1], source
    assert harness_names(ast.parse("np.random.default_rng(0)")) == []


def test_no_src_module_is_a_test_harness():
    """The in-process daemon is ``tests/embedded_server.py`` and the
    record/replay backends are ``tests/replay_backend.py``."""
    import repro.service as service

    assert not hasattr(service, "EmbeddedServer")
    assert [
        path.relative_to(ROOT).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if path.stem in {"embedded", "replay"}
    ] == []


def test_no_src_file_names_the_random_policy_or_session_stats():
    """``random`` is registered by ``tests/conftest.py`` from
    ``tests/random_policy.py``; the package ships the paper's baselines
    and the heuristics that bracket them."""
    assert {
        path.relative_to(ROOT).as_posix(): lines
        for path in sorted(SRC.rglob("*.py"))
        if (lines := harness_names(
            ast.parse(path.read_text(encoding="utf-8"))
        ))
    } == {}
