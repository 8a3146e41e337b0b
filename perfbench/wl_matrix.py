"""``paper_matrix``: the pooled sweep, the keyed report, one cold CLI run.

The body is what a user of ``repro-sched matrix`` / ``report`` / ``run``
waits for: the paper's scenarios x sizes x ``DEFAULT_SCHEDULERS`` through
``run_matrix_parallel(workers=2, store=<jsonl>)`` (pool start included,
users pay it per sweep), the report over the store filtered by one key,
and one cold ``repro-sched run`` subprocess.

The pool's workers cannot be wrapped from here, so the traced pass adds,
outside the timed body, an inline and a pooled sweep on all cores (the
pool's speed-up), a resumed sweep, and the same cells once more through
the traced cell of :mod:`perfbench.simcells` in this process, which is
where the planner's share of the cell time comes from.
"""

from __future__ import annotations

import os
import subprocess
import sys
from time import perf_counter

from repro.experiments import figures, report
from repro.experiments.parallel import expand_cells, run_matrix_parallel
from repro.experiments.runner import DEFAULT_SCHEDULERS, LLM_SCHEDULERS
from repro.experiments.storage import open_store, store_digest
from repro.workloads.generator import generate_workload
from repro.workloads.scenarios import PAPER_SCENARIOS

from perfbench.harness import Checks, Rep, Workload
from perfbench.simcells import Cell, run_cell, sim_layers
from perfbench.tracing import Tracer
from perfbench.wl_sim import agent_ratios

REPORT_KEY = "heterogeneous_mix"
#: The matrix keeps the paper's job sets and draws only the scheduler
#: seeds from ``--seed``. The planner's cost is heavy-tailed in the job
#: set (one 20-job cell: 3 ms to 300 ms over ten workload seeds; the
#: whole sweep 0.28 s to 0.59 s), so a seed-drawn matrix would make
#: ``work_per_s`` a property of the seed, not of the code.
WORKLOAD_SEED = 0


class PaperMatrix(Workload):
    name = "paper_matrix"
    work_unit = "sweep cells (sweep part of the body only)"
    op_name = "one cold `repro-sched run` subprocess"

    def sweep(self, store, **options):
        failures: list = []
        t0 = perf_counter()
        runs = run_matrix_parallel(
            self.scenarios, self.sizes, DEFAULT_SCHEDULERS,
            workload_seeds=(WORKLOAD_SEED,), scheduler_seeds=(self.seed,),
            store=store, on_cell_failure="quarantine", failures=failures,
            **options,
        )
        return runs, failures, perf_counter() - t0

    def setup(self) -> dict[str, float]:
        self.scenarios = PAPER_SCENARIOS[:2] if self.smoke else PAPER_SCENARIOS
        self.sizes = (8,) if self.smoke else (10, 20)
        self.cold_jobs = 20 if self.smoke else 60
        self.n_cells = (
            len(self.scenarios) * len(self.sizes) * len(DEFAULT_SCHEDULERS)
        )
        self.n_sweeps = 0
        # The inline sweep is the reference the pooled store must equal.
        inline = self.tmp / "inline.jsonl"
        _, failures, _ = self.sweep(inline, workers=1)
        if failures:
            raise RuntimeError(f"inline sweep quarantined {len(failures)} cells")
        self.inline_digest = store_digest(open_store(inline))
        return {}

    def body(self, tr) -> Rep:
        self.n_sweeps += 1
        store = self.tmp / f"sweep-{self.n_sweeps}.jsonl"
        with tr.span("parallel.sweep"):
            runs, failures, sweep_s = self.sweep(store, workers=2)
        with tr.span("report.render") as render:
            t0 = perf_counter()
            blocks = figures.store_blocks(
                open_store(store), where={"scenario": REPORT_KEY}
            )
            text = report.render_matrix_blocks(blocks)
            render_s = perf_counter() - t0
        with tr.span("cli.cold_run"):
            t0 = perf_counter()
            cold = subprocess.run(
                [sys.executable, "-m", "repro.experiments.cli", "run",
                 "--scenario", REPORT_KEY, "-n", str(self.cold_jobs),
                 "--scheduler", LLM_SCHEDULERS[0], "--seed", str(self.seed)],
                capture_output=True, text=True,
            )
            cold_s = perf_counter() - t0
        return Rep(
            work=len(runs),
            work_s=sweep_s,
            op_s=cold_s,
            attempted=self.n_cells + 2,
            failed=len(failures) + (cold.returncode != 0),
            outputs={
                "store": store, "runs": len(runs), "report": text,
                "cold": cold, "sweep_s": sweep_s, "render_s": render_s,
                "failed_cells": len(failures),
            },
        )

    def check(self, rep: Rep, checks: Checks) -> None:
        out = rep.outputs
        stored = open_store(out["store"]).load()
        digest = store_digest(open_store(out["store"]))
        checks.ok(out["runs"] == self.n_cells, "sweep returned every cell")
        checks.ok(digest == self.inline_digest,
                  "pooled store_digest equals the inline one")
        checks.ok(REPORT_KEY in out["report"] and "fcfs" in out["report"],
                  "keyed report rendered")
        checks.ok(out["cold"].returncode == 0 and "fcfs" in out["cold"].stdout,
                  f"cold run exited 0: {out['cold'].stderr[-300:]}")
        by_cell = {
            (r.scenario, r.n_jobs, r.scheduler): r.metrics for r in stored
        }
        baseline = {
            (s, n): by_cell[(s, n, "fcfs")]
            for s in self.scenarios for n in self.sizes
        }
        agents = [
            ((s, n), by_cell[(s, n, model)])
            for s in self.scenarios for n in self.sizes
            for model in LLM_SCHEDULERS
        ]
        stats = agent_ratios(agents, baseline)
        self.record(checks, {"store": digest}, stats)

    def layers(self, tr, rep: Rep) -> dict[str, float]:
        out = rep.outputs
        if not tr.enabled:
            return {}
        # The pool's speed-up needs the cores the run is pinned away
        # from: inline and pooled once more, unpinned, outside the body.
        pinned = os.sched_getaffinity(0)
        os.sched_setaffinity(0, self.cores)
        try:
            n = self.n_sweeps
            _, _, inline_s = self.sweep(self.tmp / f"w1-{n}.jsonl", workers=1)
            _, _, pooled_s = self.sweep(self.tmp / f"w2-{n}.jsonl", workers=2)
        finally:
            os.sched_setaffinity(0, pinned)
        _, _, resume_s = self.sweep(out["store"], workers=2, resume=True)

        # The same cells, in this process, behind the timing proxies.
        cells_tr = Tracer()
        generate_s = 0.0
        outs = []
        stored = {r.key: r for r in open_store(out["store"]).load()}
        mismatches = 0
        with cells_tr.span("rep"):
            for mc in expand_cells(
                self.scenarios, self.sizes, DEFAULT_SCHEDULERS,
                workload_seeds=(WORKLOAD_SEED,), scheduler_seeds=(self.seed,),
            ):
                t0 = perf_counter()
                jobs = generate_workload(
                    mc.scenario, mc.n_jobs, seed=WORKLOAD_SEED
                )
                generate_s += perf_counter() - t0
                done = run_cell(
                    cells_tr,
                    Cell(f"{mc.scenario}/{mc.n_jobs}/{mc.scheduler}",
                         mc.scenario, jobs, mc.scheduler, self.seed),
                )
                mismatches += done.metrics != stored[mc.key].metrics
                outs.append(done)
        self.traced_mismatches = mismatches
        layers = sim_layers(outs)
        layers.update(self.sim)
        layers.update({
            "workloads.generate_s": generate_s,
            "workloads.jobs": float(sum(o.result.n_jobs for o in outs)),
            "parallel.sweep_s_w1": inline_s,
            "parallel.sweep_s_w2": pooled_s,
            "parallel.pool_speedup": inline_s / pooled_s,
            "parallel.pool_efficiency": inline_s / pooled_s / min(2, len(self.cores)),
            "parallel.cells": float(out["runs"]),
            "parallel.failed_cells": float(out["failed_cells"]),
            "parallel.resume_s": resume_s,
            "report.render_s": out["render_s"],
            "host.trace_coverage_ratio": tr.coverage(0),
        })
        return layers

    def finish(self, traced: bool, checks: Checks) -> dict[str, float]:
        if traced:
            checks.ok(self.traced_mismatches == 0,
                      "traced cells reproduce the pooled metrics exactly")
        return {}
