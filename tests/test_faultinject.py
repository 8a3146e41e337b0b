"""Unit tests for the deterministic fault-injection harness."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import parallel, store
from tests.tooling.faults import (
    FaultPlan,
    FaultRule,
    InjectedCrash,
    active_plan,
    install,
    main,
    mangle_store_line,
    on_cell_attempt,
)

ROOT = Path(__file__).parent.parent
KEY = "adversarial|10|fcfs|0|0|scenario|none|flat"


class TestFaultRule:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(kind="explode")

    def test_rejects_unknown_crash_mode(self):
        with pytest.raises(ValueError, match="crash mode"):
            FaultRule(kind="crash", mode="segfault")

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="p must be"):
            FaultRule(kind="crash", p=1.5)
        with pytest.raises(ValueError, match="p must be"):
            FaultRule(kind="crash", p=-0.1)

    def test_rejects_bad_max_attempt(self):
        with pytest.raises(ValueError, match="max_attempt"):
            FaultRule(kind="hang", max_attempt=0)

    def test_mode_is_crash_only_but_harmless_elsewhere(self):
        # Non-crash kinds ignore mode; constructing them stays legal.
        assert FaultRule(kind="hang").mode == "raise"


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=7,
            rules=(
                FaultRule(kind="crash", mode="exit", match="|sjf|"),
                FaultRule(kind="torn_write", p=0.25, max_attempt=3),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError, match="malformed"):
            FaultPlan.from_json("{not json")
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_json('["a list"]')
        with pytest.raises(ValueError, match="needs a 'kind'"):
            FaultPlan.from_json('{"rules": [{"p": 1.0}]}')
        with pytest.raises(ValueError, match="unknown fault rule field"):
            FaultPlan.from_json(
                '{"rules": [{"kind": "crash", "wat": 1}]}'
            )

    def test_fires_is_deterministic(self):
        plan = FaultPlan(seed=3, rules=(FaultRule(kind="crash", p=0.5),))
        rule = plan.rules[0]
        first = [plan.fires(rule, f"cell{i}", 1) for i in range(64)]
        again = [plan.fires(rule, f"cell{i}", 1) for i in range(64)]
        assert first == again
        # A hashed p=0.5 over 64 keys hits a nontrivial subset.
        assert 0 < sum(first) < 64

    def test_fires_depends_on_seed(self):
        rule = FaultRule(kind="crash", p=0.5)
        a = [FaultPlan(seed=0, rules=(rule,)).fires(rule, f"c{i}", 1)
             for i in range(64)]
        b = [FaultPlan(seed=1, rules=(rule,)).fires(rule, f"c{i}", 1)
             for i in range(64)]
        assert a != b

    def test_fires_respects_match_and_max_attempt(self):
        plan = FaultPlan(
            rules=(FaultRule(kind="crash", match="|sjf|", max_attempt=2),)
        )
        rule = plan.rules[0]
        assert plan.fires(rule, "a|10|sjf|0", 1)
        assert plan.fires(rule, "a|10|sjf|0", 2)
        assert not plan.fires(rule, "a|10|sjf|0", 3)
        assert not plan.fires(rule, "a|10|fcfs|0", 1)

    def test_p_zero_never_fires(self):
        plan = FaultPlan(rules=(FaultRule(kind="crash", p=0.0),))
        assert not any(
            plan.fires(plan.rules[0], f"c{i}", 1) for i in range(32)
        )

    def test_rule_kind_routing(self):
        plan = FaultPlan(
            rules=(
                FaultRule(kind="torn_write"),
                FaultRule(kind="hang"),
            )
        )
        assert plan.cell_rule(KEY, 1).kind == "hang"
        assert plan.write_rule(KEY, 1).kind == "torn_write"
        assert plan.cell_rule(KEY, 99) is None


class TestActivation:
    def test_off_by_default(self):
        assert active_plan() is None
        assert (store.write_fault, parallel.cell_fault) == (None, None)

    def test_install_fills_both_slots_and_none_clears_them(self):
        plan = FaultPlan(seed=42)
        install(plan)
        assert active_plan() is plan
        assert store.write_fault is mangle_store_line
        assert parallel.cell_fault is on_cell_attempt
        install(None)
        assert active_plan() is None
        assert (store.write_fault, parallel.cell_fault) == (None, None)


class TestCellHook:
    def test_noop_without_plan(self):
        on_cell_attempt(KEY, 1)  # must not raise

    def test_crash_raise(self):
        install(FaultPlan(rules=(FaultRule(kind="crash"),)))
        with pytest.raises(InjectedCrash, match="attempt 1"):
            on_cell_attempt(KEY, 1)
        # Past max_attempt the same cell sails through.
        on_cell_attempt(KEY, 2)

    def test_hang_sleeps(self):
        install(
            FaultPlan(rules=(FaultRule(kind="hang", hang_s=0.05),))
        )
        t0 = time.monotonic()
        on_cell_attempt(KEY, 1)
        assert time.monotonic() - t0 >= 0.05

    def test_write_rules_do_not_crash_cells(self):
        install(FaultPlan(rules=(FaultRule(kind="torn_write"),)))
        on_cell_attempt(KEY, 1)


class TestStoreWriteHook:
    LINE = '{"schema_version": 3, "scenario": "adversarial"}'

    def test_passthrough_without_plan(self):
        assert mangle_store_line(KEY, self.LINE) == (self.LINE, True)

    def test_torn_write_truncates_without_newline_flag(self):
        install(FaultPlan(rules=(FaultRule(kind="torn_write"),)))
        text, complete = mangle_store_line(KEY, self.LINE)
        assert not complete
        assert text == self.LINE[: len(self.LINE) // 2]

    def test_corrupt_write_garbles_but_completes(self):
        install(FaultPlan(rules=(FaultRule(kind="corrupt_write"),)))
        text, complete = mangle_store_line(KEY, self.LINE)
        assert complete
        assert text.startswith("#CORRUPT#")
        assert "\n" not in text

    def test_write_attempts_counted_per_key(self):
        # max_attempt=1: only the first write of each key is injured —
        # the re-write after a resume (same process) goes through.
        install(FaultPlan(rules=(FaultRule(kind="torn_write"),)))
        _, first = mangle_store_line(KEY, self.LINE)
        _, second = mangle_store_line(KEY, self.LINE)
        assert (first, second) == (False, True)
        _, other = mangle_store_line("other|key", self.LINE)
        assert other is False

    def test_install_resets_write_counters(self):
        plan = FaultPlan(rules=(FaultRule(kind="torn_write"),))
        install(plan)
        mangle_store_line(KEY, self.LINE)
        install(plan)  # fresh install = fresh counters
        _, complete = mangle_store_line(KEY, self.LINE)
        assert complete is False

    def test_cell_rules_do_not_mangle_writes(self):
        install(FaultPlan(rules=(FaultRule(kind="crash"),)))
        assert mangle_store_line(KEY, self.LINE) == (self.LINE, True)


class TestEntryPoint:
    SJF_CRASH = FaultPlan(
        rules=(FaultRule(kind="crash", match="|sjf|", max_attempt=99),)
    )

    def sweep(self, out):
        return [
            "matrix", "--scenarios", "adversarial", "--sizes", "8",
            "--schedulers", "fcfs", "sjf", "--workers", "2",
            "--max-retries", "0", "--on-cell-failure", "quarantine",
            "--out", str(out),
        ]

    def test_needs_a_plan_and_the_separator(self, capsys):
        assert main(["matrix"]) == 2
        assert main(["--plan", self.SJF_CRASH.to_json(), "matrix"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_runs_the_cli_in_process_under_the_plan(self, tmp_path):
        out = tmp_path / "runs.jsonl"
        argv = ["--plan", self.SJF_CRASH.to_json(), "--", *self.sweep(out)]
        assert main(argv) == 3
        assert active_plan() == self.SJF_CRASH
        assert "InjectedCrash" in Path(f"{out}.failures").read_text()

    def test_as_a_module_from_the_repository_root(self, tmp_path):
        # Run as ``__main__``: a crash raised in a forked worker still
        # crosses the pipe and is recorded by its class name.
        out = tmp_path / "runs.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "tests.tooling.faults",
             "--plan", self.SJF_CRASH.to_json(), "--", *self.sweep(out)],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            capture_output=True, timeout=120,
        )
        assert proc.returncode == 3
        assert len(out.read_text().splitlines()) == 1
        assert "InjectedCrash" in Path(f"{out}.failures").read_text()
