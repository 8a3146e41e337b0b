"""Latency-skew and disk-full (ENOSPC) injection + recovery (PR 8).

Latency rules are benign — they delay an attempt without replacing the
crash/hang decision, and *all* firing rules stack. ``disk_full`` rules
raise ``OSError(ENOSPC)`` before a single byte is written, and the
store's bounded append-retry recovers once the rule's attempt budget
is exhausted — the recovery contract pinned here.
"""

import errno
import time

import pytest

from repro.experiments.parallel import expand_cells, run_cells
from repro.experiments.runner import run_single
from repro.experiments.store import RunStore, StoredRun
from tests.tooling import faults as faultinject
from tests.tooling.faults import (
    FaultPlan,
    FaultRule,
    InjectedCrash,
    mangle_store_line,
    on_cell_attempt,
)


class TestLatencyRules:
    def test_negative_skew_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(kind="latency", skew_s=-0.1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(kind="slowdown")

    def test_all_matching_latency_rules_fire(self):
        plan = FaultPlan(
            rules=(
                FaultRule(kind="latency", skew_s=0.01),
                FaultRule(kind="latency", skew_s=0.02, match="|sjf|"),
                FaultRule(kind="latency", skew_s=0.04, match="|fcfs|"),
            )
        )
        fired = plan.latency_rules("adversarial|8|sjf|0|0|scenario", 1)
        assert [r.skew_s for r in fired] == [0.01, 0.02]
        # Latency never masquerades as a crash/hang decision.
        assert plan.cell_rule("adversarial|8|sjf|0|0|scenario", 1) is None

    def test_latency_respects_attempt_budget(self):
        plan = FaultPlan(
            rules=(FaultRule(kind="latency", skew_s=0.01, max_attempt=1),)
        )
        assert plan.latency_rules("cell", 1)
        assert plan.latency_rules("cell", 2) == []

    def test_on_cell_attempt_stacks_skews(self):
        faultinject.install(
            FaultPlan(
                rules=(
                    FaultRule(kind="latency", skew_s=0.05),
                    FaultRule(kind="latency", skew_s=0.05),
                )
            )
        )
        t0 = time.monotonic()
        on_cell_attempt("cell", 1)
        assert time.monotonic() - t0 >= 0.1

    def test_latency_does_not_shield_a_crash(self):
        faultinject.install(
            FaultPlan(
                rules=(
                    FaultRule(kind="latency", skew_s=0.05),
                    FaultRule(kind="crash"),
                )
            )
        )
        t0 = time.monotonic()
        with pytest.raises(InjectedCrash):
            on_cell_attempt("cell", 1)
        assert time.monotonic() - t0 >= 0.05

    def test_plan_round_trips_skew(self):
        plan = FaultPlan(
            rules=(FaultRule(kind="latency", skew_s=0.25, match="x"),)
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_sweep_results_identical_under_skew(self, tmp_path):
        # Skew reorders completions; it must never change what a cell
        # computes. Same two cells, with and without latency injection.
        cells = expand_cells(
            scenarios=["adversarial"],
            sizes=[8],
            schedulers=["fcfs", "sjf"],
            workload_seeds=[0],
            scheduler_seeds=[0],
        )
        clean = run_cells(cells, workers=1)
        faultinject.install(
            FaultPlan(rules=(FaultRule(kind="latency", skew_s=0.02),))
        )
        skewed = run_cells(cells, workers=1)
        assert [r.metrics for r in clean] == [r.metrics for r in skewed]


class TestDiskFull:
    def test_mangle_raises_enospc_before_any_byte(self):
        faultinject.install(
            FaultPlan(rules=(FaultRule(kind="disk_full", max_attempt=99),))
        )
        with pytest.raises(OSError) as excinfo:
            mangle_store_line("cell", '{"x": 1}')
        assert excinfo.value.errno == errno.ENOSPC

    def test_attempt_counter_advances_so_transients_clear(self):
        faultinject.install(
            FaultPlan(rules=(FaultRule(kind="disk_full", max_attempt=1),))
        )
        with pytest.raises(OSError):
            mangle_store_line("cell", "line")
        # Second write attempt for the same cell: the rule no longer
        # fires, the line goes through untouched.
        assert mangle_store_line("cell", "line") == ("line", True)

    def test_store_append_recovers_from_transient_enospc(self, tmp_path):
        stored = StoredRun.from_run(run_single("adversarial", 8, "fcfs"))
        faultinject.install(
            FaultPlan(rules=(FaultRule(kind="disk_full", max_attempt=1),))
        )
        store = RunStore(tmp_path / "runs.jsonl")
        store.append(stored)  # first write fails, bounded retry lands it
        assert [r.key for r in store.load()] == [stored.key]

    def test_persistent_enospc_surfaces_and_store_stays_loadable(
        self, tmp_path
    ):
        store = RunStore(tmp_path / "runs.jsonl")
        fcfs = StoredRun.from_run(run_single("adversarial", 8, "fcfs"))
        sjf = StoredRun.from_run(run_single("adversarial", 8, "sjf"))
        store.append(fcfs)
        faultinject.install(
            FaultPlan(rules=(FaultRule(kind="disk_full", max_attempt=10_000),))
        )
        with pytest.raises(OSError) as excinfo:
            store.append(sjf)
        assert excinfo.value.errno == errno.ENOSPC
        # A full disk loses the new line, never the archive.
        faultinject.install(None)
        assert [r.key for r in store.load()] == [fcfs.key]

    def test_retry_budget_is_bounded(self, tmp_path):
        # max_attempt beyond the append retry budget (1 + 3 attempts)
        # must raise rather than loop forever; one attempt past the
        # budget still fails, one within it recovers.
        stored = StoredRun.from_run(run_single("adversarial", 8, "fcfs"))
        budget = 1 + RunStore.APPEND_RETRIES
        faultinject.install(
            FaultPlan(rules=(FaultRule(kind="disk_full", max_attempt=budget),))
        )
        with pytest.raises(OSError):
            RunStore(tmp_path / "a.jsonl").append(stored)
        faultinject.install(
            FaultPlan(
                rules=(FaultRule(kind="disk_full", max_attempt=budget - 1),)
            )
        )
        store = RunStore(tmp_path / "b.jsonl")
        store.append(stored)
        assert len(store) == 1
