"""The reachability collector (``tests/tooling/reach.py``) and its table.

The collector runs in seconds here on the smallest user path; the full
measurement is the ``reachability`` CI job.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap

import pytest

from repro.experiments.cli import build_parser
from tests.tooling import reach

#: A function no user path reaches (a ``documented`` row of the table),
#: so only the probe's own call can record it.
PROBE = ("repro.experiments.report", "describe_where")


def reached_by(*argv: str) -> set[tuple[str, str]]:
    """``(module, qualname)`` of every function *argv* reached, run
    under a fresh collection."""
    with reach.Collection() as collection:
        subprocess.run(
            [sys.executable, *argv], env=collection.env, check=True,
            stdout=subprocess.DEVNULL, timeout=120,
        )
        return reach.reached(collection.hits())


def test_quickstart_reaches_the_engine_and_not_the_probe():
    got = reached_by(str(reach.ROOT / "examples" / "quickstart.py"))
    assert ("repro.sim.engine", "run_soa") in got
    assert PROBE not in got


def test_forked_child_leaving_through_os_exit_is_recorded():
    got = reached_by("-c", textwrap.dedent("""
        import os
        pid = os.fork()
        if pid == 0:
            from repro.experiments.report import describe_where
            describe_where({})
            os._exit(0)
        os.waitpid(pid, 0)
    """))
    assert PROBE in got


def test_subprocess_of_a_measured_process_is_recorded():
    child = "from repro.experiments.report import describe_where as f; f({})"
    got = reached_by("-c", textwrap.dedent(f"""
        import subprocess, sys
        subprocess.run([sys.executable, "-c", {child!r}], check=True)
    """))
    assert PROBE in got


@pytest.mark.parametrize(
    "argv",
    [*reach.CLI_CALLS.values(), *reach.DOCUMENTED_CALLS],
    ids=[*reach.CLI_CALLS, *(
        "documented: " + " ".join(argv) for argv in reach.DOCUMENTED_CALLS
    )],
)
def test_every_call_of_the_tool_parses(argv):
    """The tool's CLI calls stay valid against the parser, checked here
    in milliseconds instead of by the full measurement."""
    build_parser().parse_args(argv)


def test_executable_lines_drop_the_coverage_exclusions():
    source = textwrap.dedent("""\
        from typing import TYPE_CHECKING
        if TYPE_CHECKING:
            import os
        def f():
            raise NotImplementedError
        def g():  # pragma: no cover
            return 1
        x = 2
    """)
    patterns = ["pragma: no cover", "if TYPE_CHECKING:",
                "raise NotImplementedError"]
    assert reach.executable_lines(source, "<s>", patterns) == {1, 4, 8}


def test_qualnames_follow_classes_and_nested_functions(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "m.py").write_text(textwrap.dedent("""\
        class A:
            @property
            def x(self):
                def inner():
                    pass
                return inner
        async def b():
            pass
    """))
    found = {(f.module, f.qualname, f.first_line) for f in
             reach.functions(package)}
    assert found == {
        ("pkg.m", "A.x", 2),
        ("pkg.m", "A.x.<locals>.inner", 4),
        ("pkg.m", "b", 7),
    }


class TestTable:
    ROWS = reach.load_rows()

    def test_rows_are_sorted_and_unique(self):
        keys = [(r["module"], r["qualname"]) for r in self.ROWS]
        assert keys == sorted(set(keys))

    def test_every_row_names_a_function_that_exists(self):
        existing = {(f.module, f.qualname) for f in reach.functions()}
        assert [
            (r["module"], r["qualname"]) for r in self.ROWS
            if (r["module"], r["qualname"]) not in existing
        ] == []

    def test_every_row_has_one_disposition_and_a_reason(self):
        readme = reach.README.read_text(encoding="utf-8")
        assert reach.row_errors(self.ROWS, readme) == []

    def test_no_row_is_kept_for_its_own_unit_test(self):
        """A unit test of a function is not a consumer (ROADMAP item
        6): such a function gets one or is deleted."""
        assert [
            f"{r['module']}:{r['qualname']}" for r in self.ROWS
            if r["reason"].startswith("own unit test only")
        ] == []

    def test_a_new_row_carries_no_disposition(self):
        rows = reach.table_rows(
            [("m", "f"), ("m", "g")], {("m", "g")},
            [{"module": "m", "qualname": "f", "disposition": "error",
              "reason": "r"}],
        )
        assert rows == [
            {"module": "m", "qualname": "f", "tier1": False,
             "disposition": "error", "reason": "r"},
            {"module": "m", "qualname": "g", "tier1": True,
             "disposition": None, "reason": ""},
        ]
        assert reach.row_errors(rows, "") == ["m:g: disposition None"]

    @pytest.mark.parametrize("reason,ok", [
        ('README: "| `step()` | one time instant', False),
        ('README: "## Quickstart"', True),
    ])
    def test_documented_reason_quotes_a_whole_readme_line(self, reason, ok):
        rows = [{"module": "m", "qualname": "f", "tier1": True,
                 "disposition": "documented", "reason": reason}]
        readme = "intro\n## Quickstart\n| `step()` | one time instant |\n"
        assert (reach.row_errors(rows, readme) == []) is ok
