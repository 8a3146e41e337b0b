"""Which ``src/repro`` functions the user paths reach, measured.

A stdlib line collector (``sys.settrace``) is installed at interpreter
start in every process this tool launches, through a generated
``sitecustomize.py`` on ``PYTHONPATH`` — the mechanism coverage.py's
``COVERAGE_PROCESS_START`` uses — so the ``serve`` daemon, the sweep's
forked workers and perfbench's per-workload children are measured
too. Each process writes the ``src/repro`` lines and functions it
reached when it exits: at ``atexit``, and just before ``os._exit``,
which is how forked sweep workers leave.

The user paths are what a user of this repository runs: every
perfbench workload at full size, the paper-claim benchmarks
(``benchmarks/``), every script in ``examples/``, one call of every
leaf subcommand in ``tests/data/cli_surface.json``, the documented
paths those calls leave undriven (:data:`DOCUMENTED_CALLS`, and a TCP
daemon streaming ``subscribe_events``), ``matrix --retry-failed``, and
the fault-injected sweeps of the ``chaos`` CI job, which run the CLI
through the fault-plan entry point ``python -m tests.tooling.faults``
(``tests/tooling/faults.py``). ``tests/data/reachability.json`` has one row per ``src/repro``
function none of them reaches, keyed by module and qualified name (no
line numbers, so unrelated edits do not move rows). A row records
whether tier-1 reaches the function and the one reason it ships
anyway (:data:`DISPOSITIONS`). Rerunning keeps each row's disposition
and reason, drops rows whose function is gone or now reached, and adds
new rows with no disposition — which fails the run until one is given.

Run from the repository root (about ten minutes on two cores; line
tracing makes every path two to three times slower)::

    python -m tests.tooling.reach

It also prints an estimate of coverage.py's ``src/`` line coverage by
tier-1: executable lines are the lines of every code object's
``co_lines()``, minus the ``[tool.coverage.report] exclude_lines``
patterns of ``pyproject.toml`` (a matching statement excludes its whole
block); it counts forked workers, which coverage.py may not.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import tempfile
import types
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
TABLE = ROOT / "tests" / "data" / "reachability.json"
README = ROOT / "README.md"

#: Why a function no user path reaches still ships; each row has one.
DISPOSITIONS = {
    "reference": "a test compares the product against it",
    "harness": "support that tests use; a reason starting 'own unit "
    "test only' marks surface whose only consumer is its own test",
    "documented": "a README API or CLI path the user paths do not "
    'drive; the reason is README: "<the README line>"',
    "protocol": "an abstract or Protocol stub, or a dunder",
    "error": "handles a failure of outside input",
}

_OUT = "REPRO_REACH_OUT"
_SITECUSTOMIZE = """\
import os
if os.environ.get({out!r}):
    import importlib.util
    import sys
    _spec = importlib.util.spec_from_file_location("_repro_reach", {tool!r})
    _reach = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_reach)
    _reach.start_collector(os.environ[{out!r}], {package!r})
"""


# -- the collector (runs inside every measured process) --------------------

def start_collector(out_dir: str, package: str) -> None:
    """Trace this process, and every thread it starts, until it exits;
    then write the *package* lines executed and the functions called
    into a new file in *out_dir*. A forked child inherits what its
    parent recorded so far and writes its own file."""
    import atexit
    import threading

    prefix = os.path.realpath(package) + os.sep
    lines: dict[str, set[int]] = {}
    calls: set[types.CodeType] = set()
    local_tracers: dict[str, object] = {}

    def local_tracer(filename: str):
        path = os.path.realpath(filename)
        if not path.startswith(prefix):
            return None
        add = lines.setdefault(path, set()).add

        def trace_lines(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return trace_lines

        return trace_lines

    def trace_calls(frame, event, arg):
        code = frame.f_code
        try:
            tracer = local_tracers[code.co_filename]
        except KeyError:
            tracer = local_tracers[code.co_filename] = local_tracer(
                code.co_filename
            )
        if tracer is not None:
            calls.add(code)
        return tracer

    def dump() -> None:
        sys.settrace(None)
        threading.settrace(None)
        record = {
            "lines": {path: sorted(hit) for path, hit in lines.items()},
            "calls": sorted(
                {
                    (
                        os.path.realpath(c.co_filename),
                        c.co_firstlineno,
                        c.co_name,
                    )
                    for c in calls
                }
            ),
        }
        fd, _ = tempfile.mkstemp(
            prefix=f"{os.getpid()}-", suffix=".json", dir=out_dir
        )
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(record, fh)

    real_exit = os._exit

    def exit_after_dump(status):
        dump()
        real_exit(status)

    os._exit = exit_after_dump
    atexit.register(dump)
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)


# -- collecting over child processes ---------------------------------------

@dataclass
class Hits:
    """What a set of measured processes reached, merged."""

    lines: dict[str, set[int]]
    calls: set[tuple[str, int, str]]


class Collection:
    """A temporary collector setup: run commands with :attr:`env` and
    read what they reached with :meth:`hits`."""

    def __init__(self) -> None:
        self._tmp = tempfile.TemporaryDirectory(prefix="reach-")
        base = Path(self._tmp.name)
        self.out_dir = base / "hits"
        self.out_dir.mkdir()
        site = base / "site"
        site.mkdir()
        (site / "sitecustomize.py").write_text(
            _SITECUSTOMIZE.format(
                out=_OUT, tool=str(Path(__file__).resolve()),
                package=str(PACKAGE),
            ),
            encoding="utf-8",
        )
        # The repository root, for the fault-plan entry point
        # (``python -m tests.tooling.faults``) run from a scratch directory.
        path = [str(site), str(SRC), str(ROOT)]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        self.env = dict(
            os.environ, PYTHONPATH=os.pathsep.join(path),
            **{_OUT: str(self.out_dir)},
        )

    def __enter__(self) -> "Collection":
        return self

    def __exit__(self, *exc) -> None:
        self._tmp.cleanup()

    def hits(self) -> Hits:
        merged = Hits({}, set())
        for file in sorted(self.out_dir.glob("*.json")):
            record = json.loads(file.read_text(encoding="utf-8"))
            for path, hit in record["lines"].items():
                merged.lines.setdefault(path, set()).update(hit)
            merged.calls.update(tuple(c) for c in record["calls"])
        return merged


# -- the function universe and the coverage estimate ------------------------

@dataclass(frozen=True)
class Function:
    module: str
    qualname: str
    path: str
    #: ``co_firstlineno``: the first decorator's line, else the def's.
    first_line: int
    name: str


class _Defs(ast.NodeVisitor):
    def __init__(self) -> None:
        self.scope: list[str] = []
        self.found: list[tuple[str, int, str]] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node) -> None:
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        self.found.append((".".join(self.scope + [node.name]), first, node.name))
        self.scope += [node.name, "<locals>"]
        self.generic_visit(node)
        del self.scope[-2:]

    visit_AsyncFunctionDef = visit_FunctionDef


def _modules(package: Path = PACKAGE):
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts), path


def functions(package: Path = PACKAGE) -> list[Function]:
    """Every ``def`` under *package* (lambdas and comprehensions are
    not rows), in file and line order."""
    out = []
    for module, path in _modules(package):
        defs = _Defs()
        defs.visit(ast.parse(path.read_text(encoding="utf-8")))
        out += [
            Function(module, qualname, os.path.realpath(path), first, name)
            for qualname, first, name in defs.found
        ]
    return out


def reached(hits: Hits, package: Path = PACKAGE) -> set[tuple[str, str]]:
    """``(module, qualname)`` of every function *hits* called."""
    return {
        (f.module, f.qualname)
        for f in functions(package)
        if (f.path, f.first_line, f.name) in hits.calls
    }


def _exclude_patterns() -> list[str]:
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: pytest depends on tomli
        import tomli as tomllib
    config = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))
    return config["tool"]["coverage"]["report"]["exclude_lines"]


def executable_lines(source: str, path: str, patterns) -> set[int]:
    """Lines of every code object compiled from *source*, minus the
    lines coverage.py's ``exclude_lines`` *patterns* remove."""
    found: set[int] = set()
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        found.update(line for _, _, line in code.co_lines() if line)
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    regex = re.compile("|".join(f"(?:{p})" for p in patterns))
    matching = {
        i for i, text in enumerate(source.splitlines(), 1)
        if regex.search(text)
    }
    excluded = set(matching)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt) and node.lineno in matching:
            excluded.update(range(node.lineno, node.end_lineno + 1))
    return found - excluded


def line_coverage(hits: Hits, package: Path = PACKAGE) -> tuple[int, int]:
    """``(lines hit, executable lines)`` over *package*."""
    patterns = _exclude_patterns()
    hit = total = 0
    for _, path in _modules(package):
        lines = executable_lines(
            path.read_text(encoding="utf-8"), str(path), patterns
        )
        total += len(lines)
        hit += len(lines & hits.lines.get(os.path.realpath(path), set()))
    return hit, total


# -- the paths -------------------------------------------------------------

_PY = sys.executable
_CLI = [_PY, "-m", "repro.experiments.cli"]
_SWEEP = [
    "--scenarios", "adversarial", "resource_sparse", "--sizes", "10",
    "--schedulers", "fcfs", "sjf", "--seeds", "0", "1",
]


def _faults(*rules: dict) -> list[str]:
    """The argv prefix that runs ``repro-sched`` under a fault plan."""
    plan = json.dumps({"seed": 0, "rules": list(rules)})
    return [_PY, "-m", "tests.tooling.faults", "--plan", plan, "--"]


_SERVE = """\
import subprocess, sys, threading
from repro.service.client import ServiceClient, wait_for_server
SERVE = [sys.executable, "-m", "repro.experiments.cli", "serve",
         "--workers", "1"]
daemon = subprocess.Popen(SERVE + ["--socket", "d.sock", "--store",
                                   "cells.jsonl"])
with wait_for_server(socket_path="d.sock", timeout=120) as client:
    client.ping()
    client.shutdown()
if daemon.wait(timeout=120):
    sys.exit("unix-socket daemon failed")
# TCP on an ephemeral port (printed at startup), and one message of a
# subscribe_events stream: sessions are opened until the subscriber,
# which may register after the first of them, has read one.
daemon = subprocess.Popen(SERVE + ["--host", "127.0.0.1"],
                          stdout=subprocess.PIPE, text=True)
host, port = daemon.stdout.readline().split()[-1].rsplit(":", 1)
events = []
with wait_for_server(host=host, port=int(port), timeout=120) as watcher, \\
        ServiceClient.connect_tcp(host, int(port), timeout=120) as client:
    reader = threading.Thread(
        target=lambda: events.append(next(watcher.events())))
    reader.start()
    while reader.is_alive():
        client.open_session("fcfs")
        reader.join(0.05)
    client.shutdown()
if events[0]["event"] != "session_opened":
    sys.exit(f"unexpected event {events[0]}")
sys.exit(daemon.wait(timeout=120))
"""

#: One call of every leaf subcommand of ``tests/data/cli_surface.json``;
#: run in order, in one scratch directory.
CLI_CALLS = {
    "list": ["list"],
    "run": ["run", "--scenario", "resource_sparse", "--scheduler", "sjf",
            "-n", "10"],
    "compare": ["compare", "--scenario", "adversarial", "--a", "fcfs",
                "--b", "sjf", "-n", "10", "--seeds", "2"],
    "fig2": ["fig2"],
    "fig3": ["fig3", "--n-jobs", "20"],
    "fig4": ["fig4", "--sizes", "10", "20"],
    "fig5": ["fig5", "--n-jobs", "20"],
    "fig6": ["fig6", "--sizes", "10", "20"],
    "fig7": ["fig7", "--n-jobs", "20", "--repeats", "2"],
    "fig8": ["fig8", "--n-jobs", "20"],
    "matrix": ["matrix", *_SWEEP, "--workers", "2", "--out", "m.jsonl"],
    "report": ["report", "--store", "m.jsonl"],
    "store doctor": ["store", "doctor", "m.jsonl"],
    "store migrate": ["store", "migrate", "m.jsonl", "m.store"],
    "store digest": ["store", "digest", "m.store"],
}

#: Documented paths no call of :data:`CLI_CALLS` drives, run right after
#: them in the same directory (``m.store`` is what ``store migrate``
#: made): the sharded doctor, and maintenance drains and their announce
#: path. :data:`_SERVE` adds TCP serving and ``subscribe_events``.
DOCUMENTED_CALLS = [
    ["store", "doctor", "m.store"],
    ["run", "--scenario", "drain_window", "--scheduler", "fcfs_backfill",
     "-n", "100", "--disruptions", "maintenance"],
]


def cli_leaves() -> list[str]:
    """Leaf subcommands of the pinned CLI surface, space-joined."""
    surface = json.loads(
        (ROOT / "tests" / "data" / "cli_surface.json").read_text("utf-8")
    )
    leaves: list[str] = []

    def walk(node: dict, path: list[str]) -> None:
        subs = node.get("subcommands")
        if not subs:
            leaves.append(" ".join(path))
        for name, sub in (subs or {}).items():
            walk(sub, path + [name])

    walk(surface, [])
    return leaves


@dataclass
class Step:
    """One command: run in the repository root or else in a scratch
    directory shared by all steps, expected to exit with *status*."""

    argv: list[str]
    in_root: bool = False
    status: int = 0


#: A wall-clock speedup assertion (4+ cores only) that tracing would
#: distort; it reaches no table row, and the ``parallel-scaling`` CI job
#: gates it.
_UNTRACED = [
    "--deselect",
    "benchmarks/test_parallel_scaling.py::TestParallelSpeedup"
    "::test_speedup_at_four_workers",
]


def user_paths(out: Path) -> list[Step]:
    """Every user path, as commands; *out* receives perfbench's result."""
    if set(cli_leaves()) != set(CLI_CALLS) | {"serve"}:
        raise SystemExit("CLI_CALLS does not match the leaf subcommands "
                         "of tests/data/cli_surface.json")
    steps = [
        Step([_PY, "perfbench/run.py", "--trace", "0", "--seconds", "1",
              "--out", str(out)], in_root=True),
        Step([_PY, "-m", "pytest", "benchmarks/", "--benchmark-disable",
              "-q", "-p", "no:cacheprovider", *_UNTRACED], in_root=True),
    ]
    steps += [
        Step([_PY, str(script)])
        for script in sorted((ROOT / "examples").glob("*.py"))
    ]
    steps += [Step(_CLI + argv) for argv in CLI_CALLS.values()]
    steps += [Step(_CLI + argv) for argv in DOCUMENTED_CALLS]
    steps.append(Step([_PY, "-c", _SERVE]))
    # The chaos CI job: a worker killed mid-cell plus a corrupt store
    # line, doctor, resume, a hung cell, a permanently failing one.
    crash = {"kind": "crash", "mode": "exit",
             "match": "adversarial|10|sjf|1|"}
    corrupt = {"kind": "corrupt_write", "match": "resource_sparse|10|fcfs|0|"}
    hang = {"kind": "hang", "hang_s": 600, "match": "resource_sparse|10|sjf|1|"}
    dead = {"kind": "crash", "max_attempt": 99,
            "match": "adversarial|10|fcfs|0|0|"}
    steps += [
        Step(_CLI + ["matrix", *_SWEEP, "--workers", "1", "--out",
                     "ref.jsonl"]),
        Step(_faults(crash, corrupt) + [
            "matrix", *_SWEEP, "--workers", "2", "--max-retries", "2",
            "--retry-backoff", "0.05", "--out", "chaos.jsonl"]),
        Step(_CLI + ["store", "doctor", "chaos.jsonl"], status=1),
        Step(_CLI + ["matrix", *_SWEEP, "--workers", "2", "--out",
                     "chaos.jsonl", "--resume"]),
        Step(_faults(hang) + [
            "matrix", *_SWEEP, "--workers", "2", "--cell-timeout", "2",
            "--retry-backoff", "0.05", "--out", "hung.jsonl"]),
        Step(_faults(dead) + [
            "matrix", *_SWEEP, "--workers", "2", "--max-retries", "1",
            "--retry-backoff", "0.05", "--on-cell-failure", "quarantine",
            "--out", "quarantined.jsonl"], status=3),
        Step(_CLI + ["matrix", "--retry-failed", "quarantined.jsonl"]),
    ]
    return steps


def tier1() -> list[Step]:
    """The tier-1 suite, seeded so hypothesis draws the same examples."""
    return [
        Step([_PY, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
              "--benchmark-disable", "--hypothesis-seed=0", *_UNTRACED],
             in_root=True)
    ]


def measure(steps: list[Step]) -> Hits:
    """Run *steps* under one collection; any unexpected exit status
    aborts with the step's output."""
    with Collection() as collection, tempfile.TemporaryDirectory(
        prefix="reach-scratch-"
    ) as scratch:
        for step in steps:
            cwd = ROOT if step.in_root else scratch
            print("reach:", " ".join(step.argv[1:])[:100], flush=True)
            proc = subprocess.run(
                step.argv, cwd=cwd, env=collection.env, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True,
            )
            if proc.returncode != step.status:
                sys.stdout.write(proc.stdout[-4000:])
                raise SystemExit(
                    f"exit {proc.returncode} (expected {step.status}): "
                    f"{step.argv}"
                )
        return collection.hits()


# -- the table -------------------------------------------------------------

def table_rows(
    unreached: list[tuple[str, str]],
    tier1_reached: set[tuple[str, str]],
    previous: list[dict],
) -> list[dict]:
    """One row per unreached function, carrying over the disposition
    and reason of a previous row for the same function."""
    kept = {(r["module"], r["qualname"]): r for r in previous}
    rows = []
    for key in sorted(set(unreached)):
        old = kept.get(key, {})
        rows.append({
            "module": key[0],
            "qualname": key[1],
            "tier1": key in tier1_reached,
            "disposition": old.get("disposition"),
            "reason": old.get("reason", ""),
        })
    return rows


def row_errors(rows: list[dict], readme: str) -> list[str]:
    """A row needs one disposition of :data:`DISPOSITIONS` and a reason;
    a ``documented`` reason must quote a README line."""
    errors = []
    readme_lines = {line.strip() for line in readme.splitlines()}
    for row in rows:
        name = f"{row['module']}:{row['qualname']}"
        if row["disposition"] not in DISPOSITIONS:
            errors.append(f"{name}: disposition {row['disposition']!r}")
        elif not row["reason"]:
            errors.append(f"{name}: no reason")
        elif row["disposition"] == "documented":
            quote = re.fullmatch(r'README: "(.+)"', row["reason"])
            if quote is None or quote.group(1) not in readme_lines:
                errors.append(f"{name}: reason quotes no README line")
    return errors


def load_rows(path: Path = TABLE) -> list[dict]:
    if not path.exists():
        return []
    return json.loads(path.read_text(encoding="utf-8"))["rows"]


def write_table(rows: list[dict], path: Path = TABLE) -> None:
    document = {
        "about": (
            "src/repro functions no user path reaches; written by "
            "python -m tests.tooling.reach (see its docstring)"
        ),
        "dispositions": DISPOSITIONS,
        "rows": rows,
    }
    path.write_text(
        json.dumps(document, indent=1, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def _coverage_line(hits: Hits) -> str:
    hit, total = line_coverage(hits)
    return (
        f"tier-1 src/ line coverage (estimate of coverage.py's): "
        f"{hit}/{total} = {100.0 * hit / total:.2f} %"
    )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-perfbench-") as tmp:
        user = measure(user_paths(Path(tmp) / "perfbench.json"))
    tests = measure(tier1())
    everything = {(f.module, f.qualname) for f in functions()}
    user_reached = reached(user)
    rows = table_rows(
        sorted(everything - user_reached), reached(tests), load_rows()
    )
    write_table(rows)
    print(
        f"reach: {len(everything)} functions, {len(user_reached)} reached "
        f"by a user path, {len(rows)} rows in {TABLE.relative_to(ROOT)}"
    )
    print(_coverage_line(tests))
    errors = row_errors(rows, README.read_text(encoding="utf-8"))
    for error in errors:
        print("reach: row needs attention:", error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
