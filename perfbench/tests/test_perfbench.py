"""Tests of the benchmark itself (not part of tier-1's testpaths).

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import compare  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        m["name"]
        for m in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    runs = 4 + 22 * len(SPEC["workloads"])
    assert 1 <= SPEC["run_seconds"] <= 60
    assert runs * (SPEC["run_seconds"] + 8) < 3420


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Every workload, both passes, tiny sizes, each in its own child."""
    out = tmp_path_factory.mktemp("perfbench") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke",
         "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(out.read_text(encoding="utf-8"))["runs"]


def test_smoke_emits_every_metric_with_its_unit(smoke_runs):
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert sorted((r["workload"], r["trace"]) for r in smoke_runs) == sorted(
        (w, t) for w in workloads for t in (0, 1)
    )
    for run in smoke_runs:
        summary = run["summary"]
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        assert summary["correct"] and summary["failed"] == 0
        assert summary["attempted"] >= 1
        wanted = SPEC["per_layer"] if run["trace"] else SPEC["end_to_end"]
        assert list(summary["metrics"]) == [m["name"] for m in wanted]
        for metric in wanted:
            got = summary["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
        if not run["trace"]:
            assert all(m["value"] > 0 for m in summary["metrics"].values())


def test_traced_pass_puts_the_work_where_the_workload_says(smoke_runs):
    layers = {
        r["workload"]: {k: v["value"] for k, v in r["summary"]["metrics"].items()}
        for r in smoke_runs if r["trace"]
    }
    assert layers["store_archive"]["sim.run_s"] == 0
    assert layers["store_archive"]["store.jsonl.append_us"] > 0
    assert layers["agent_react"]["core.decide_busy_s"] > 0
    assert layers["trace_replay"]["sim.queue_depth_max"] <= 1
    assert layers["paper_matrix"]["schedulers.planner_busy_s"] > 0
    assert layers["served"]["service.run_cell_ms_store"] > 0
    assert layers["disrupted"]["sim.preemptions"] > 0


def test_proxies_leave_the_digest_unchanged():
    from repro.workloads.generator import generate_workload

    from perfbench.harness import Checks
    from perfbench.simcells import Cell, check_cell, run_cell
    from perfbench.tracing import NULL, Tracer

    checks = Checks()
    for scheduler in ("fcfs_backfill", "claude-3.7-sim"):
        jobs = generate_workload("heterogeneous_mix", 40, seed=3)
        cell = Cell("c", "heterogeneous_mix", jobs, scheduler, 3)
        tracer = Tracer()
        with tracer.span("rep"):
            traced = run_cell(tracer, cell)
        assert traced.trace.decides
        assert check_cell(traced, cell, checks) == check_cell(
            run_cell(NULL, cell), cell, checks
        )
        assert tracer.coverage(0) > 0.9
    assert checks.failed == 0


def _synthetic_runs(scale: float = 1.0) -> list[dict]:
    runs = []
    for seed in range(4):
        metrics = {
            m["name"]: {
                "unit": m["unit"],
                "value": (10.0 + 0.01 * seed)
                * (scale if m["better"] == "lower" else 1.0 / scale),
            }
            for m in SPEC["end_to_end"]
        }
        runs.append({
            "workload": "backlog", "seed": seed, "trace": 0, "noisy": False,
            "digests": {"c": "d"}, "sim": {},
            "summary": {"correct": True, "attempted": 10, "failed": 0,
                        "metrics": metrics},
        })
    return runs


def test_compare_passes_an_identical_pair_and_flags_a_regression():
    base = _synthetic_runs()
    rows, passed = compare.compare(base, copy.deepcopy(base), SPEC)
    assert passed and all("worse" != r[-1] for r in rows)

    # Slower by a factor 1.2: flagged where the bound is tighter than
    # 1 - 1/1.2; by 1.4: flagged everywhere (no bound may exceed 0.25).
    for scale, flagged in ((1.2, lambda m: m["bound"] < 0.16), (1.4, bool)):
        rows, passed = compare.compare(base, _synthetic_runs(scale), SPEC)
        assert not passed
        assert {r[1] for r in rows if r[-1] == "worse"} == {
            m["name"] for m in SPEC["end_to_end"] if flagged(m)
        }

    rows, passed = compare.compare(base, _synthetic_runs(0.8), SPEC)
    assert passed and any(r[-1] == "better" for r in rows)

    failing = copy.deepcopy(base)
    failing[0]["summary"]["failed"] = 1
    assert not compare.compare(base, failing, SPEC)[1]
    forked = copy.deepcopy(base)
    forked[1]["digests"] = {"c": "other"}
    assert not compare.compare(base, forked, SPEC)[1]
