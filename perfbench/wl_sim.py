"""The five simulation workloads: one process, no pool, no daemon.

They share one body — run every cell of the workload once — and differ
in which layer the inputs make busy. Sizes were chosen on the seed
commit (2 cores) so that one body takes 0.5-0.9 s and a run of
``run_seconds`` holds at least seven repetitions.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter

from repro.metrics.disruption import goodput_node_hours, wasted_node_hours
from repro.sim.disruptions import DISRUPTION_PRESETS, DisruptionSpec
from repro.sim.topology import ClusterTopology
from repro.workloads.generator import generate_workload
from repro.workloads.swf import jobs_from_swf, jobs_to_swf

from perfbench.harness import Checks, Rep, Workload
from perfbench.simcells import (
    Cell, check_cell, geometric_mean, run_cell, sim_layers,
)
from perfbench.tracing import NULL

LLM_MODELS = ("claude-3.7-sim", "o4-mini-sim")


class SimWorkload(Workload):
    work_unit = "simulated jobs completed"
    op_name = "one cell (as run_single), the mean over the workload's cells"

    def build_cells(self) -> list[Cell]:
        raise NotImplementedError

    def generate(self, scenario: str, n_jobs: int, seed=None, **options):
        t0 = perf_counter()
        jobs = generate_workload(
            scenario, n_jobs, seed=self.seed if seed is None else seed,
            **options,
        )
        self.timings["workloads.generate_s"] = (
            self.timings.get("workloads.generate_s", 0.0) + perf_counter() - t0
        )
        return jobs

    def setup(self) -> dict[str, float]:
        self.timings: dict[str, float] = {}
        self.cells = self.build_cells()
        self.timings["workloads.jobs"] = float(
            sum(len(c.jobs) for c in self.cells)
        )
        return self.timings

    def body(self, tr) -> Rep:
        outs = [run_cell(tr, cell) for cell in self.cells]
        return Rep(
            work=sum(len(c.jobs) for c in self.cells),
            op_s=sum(o.seconds for o in outs) / len(outs),
            attempted=len(outs),
            outputs=outs,
        )

    def sim_stats(self, outs) -> dict[str, float]:
        """Simulated statistics of one repetition (exact, never scaled)."""
        return {}

    def check(self, rep: Rep, checks: Checks) -> None:
        digests = {
            cell.label: check_cell(out, cell, checks)
            for cell, out in zip(self.cells, rep.outputs)
        }
        self.record(checks, digests, self.sim_stats(rep.outputs))

    def layers(self, tr, rep: Rep) -> dict[str, float]:
        if not tr.enabled:
            # What the user's run_single cost; the traced repetition
            # that follows subtracts its parts from it.
            self.run_single_s = sum(o.seconds for o in rep.outputs)
            return {"runner.run_single_s": self.run_single_s}
        layers = sim_layers(rep.outputs)
        layers["runner.overhead_s"] = self.run_single_s - sum(
            layers[part] for part in (
                "sim.construct_s", "sim.run_s", "sim.verify_capacity_s",
                "metrics.compute_s",
            )
        )
        layers["host.trace_coverage_ratio"] = tr.coverage(0)
        layers.update(self.sim)
        return layers


class TraceReplay(SimWorkload):
    """Queue depth <= 1: calendar pop and event bookkeeping only."""

    name = "trace_replay"

    def build_cells(self) -> list[Cell]:
        n_jobs = 300 if self.smoke else 16000
        jobs = self.generate("homogeneous_short", n_jobs)
        stretch = 30 * 86400.0 / jobs[-1].submit_time
        jobs = [
            dataclasses.replace(j, submit_time=j.submit_time * stretch)
            for j in jobs
        ]
        t0 = perf_counter()
        path = self.tmp / "trace.swf"
        jobs_to_swf(jobs, path)
        jobs = jobs_from_swf(path)
        self.timings["workloads.swf_roundtrip_s"] = perf_counter() - t0
        if len(jobs) != n_jobs:
            raise RuntimeError("SWF round trip lost jobs")
        return [Cell("homogeneous_short/fcfs", "homogeneous_short", jobs,
                     "fcfs", self.seed)]


class Backlog(SimWorkload):
    """Cheap decide, queue thousands deep: per-decision view building."""

    name = "backlog"

    def build_cells(self) -> list[Cell]:
        jobs = self.generate("heterogeneous_mix", 200 if self.smoke else 3000)
        return [Cell("heterogeneous_mix/fcfs", "heterogeneous_mix", jobs,
                     "fcfs", self.seed)]


class DeepDecide(SimWorkload):
    """Everything queued at t=0 under the two SJF kernels."""

    name = "deep_decide"

    def build_cells(self) -> list[Cell]:
        jobs = self.generate(
            "heterogeneous_mix", 150 if self.smoke else 1500,
            arrival_mode="zero",
        )
        return [
            Cell(f"heterogeneous_mix/{policy}", "heterogeneous_mix", jobs,
                 policy, self.seed, {"arrival_mode": "zero"})
            for policy in ("sjf_firstfit", "sjf")
        ]


class Disrupted(SimWorkload):
    """Kill / requeue / drain events under EASY backfill.

    The job sets are fixed (generator seed 0); ``--seed`` draws the
    failure traces and the scheduler seeds. The number of kills follows
    the node-hours the jobs ask for: over twelve seeds the decisions of
    the checkpoint cell differed by 12 % (coefficient of variation) with
    seeded job sets and by 4 % with the fixed one.
    """

    name = "disrupted"

    def build_cells(self) -> list[Cell]:
        n_ckpt, n_storm = (30, 60) if self.smoke else (100, 400)
        storm = dataclasses.replace(
            DISRUPTION_PRESETS["rack_storm"], seed=self.seed
        )
        return [
            Cell(
                "checkpoint_stress/fcfs_backfill", "checkpoint_stress",
                self.generate("checkpoint_stress", n_ckpt, seed=0),
                "fcfs_backfill",
                self.seed,
                {
                    "disruptions": DisruptionSpec(
                        mtbf=40000.0, mttr=1200.0, seed=self.seed
                    ),
                    "restart_policy": "checkpoint",
                    "checkpoint_interval": 900.0,
                },
            ),
            Cell(
                "rack_storm/fcfs_backfill", "rack_storm",
                self.generate("rack_storm", n_storm, seed=0), "fcfs_backfill",
                self.seed,
                {"disruptions": storm, "topology": ClusterTopology(256, 32)},
            ),
        ]

    def sim_stats(self, outs) -> dict[str, float]:
        good = sum(goodput_node_hours(o.result) for o in outs)
        waste = sum(wasted_node_hours(o.result) for o in outs)
        return {"simulated.goodput_fraction": good / (good + waste)}


class AgentReact(SimWorkload):
    """The paper's subject: the ReAct agent under both model profiles.

    Everything is queued at t=0. The agent's cost per decision follows
    the queue it has to render and reason over; with scenario arrivals
    the queue's history, and with it the prompt volume, differed by 8 %
    (quartile distance over twelve seeds) for the same number of jobs,
    with all jobs queued at once by 1 %.
    """

    name = "agent_react"

    def build_cells(self) -> list[Cell]:
        n_jobs = 30 if self.smoke else 150
        options = {"arrival_mode": "zero"}
        cells, self.baseline = [], {}
        for scenario in ("heterogeneous_mix", "bursty_idle"):
            jobs = self.generate(scenario, n_jobs, **options)
            self.baseline[scenario] = fcfs_metrics(
                scenario, jobs, self.seed, options
            )
            cells += [
                Cell(f"{scenario}/{model}", scenario, jobs, model, self.seed,
                     options)
                for model in LLM_MODELS
            ]
        return cells

    def sim_stats(self, outs) -> dict[str, float]:
        return agent_ratios(
            [(cell.scenario, out.metrics) for cell, out in zip(self.cells, outs)],
            self.baseline,
        )


def fcfs_metrics(scenario, jobs, seed, options) -> dict[str, float]:
    """The ``fcfs`` metrics the agent cells are normalised by."""
    cell = Cell("", scenario, jobs, "fcfs", seed, options)
    return run_cell(NULL, cell).metrics


def agent_ratios(agent_metrics, baseline) -> dict[str, float]:
    """Geometric mean over cells of LLM-agent / fcfs makespan and mean
    wait (cells whose fcfs value is 0 have no ratio and are left out)."""
    stats = {}
    for name, key in (("simulated.makespan_ratio", "makespan"),
                      ("simulated.wait_ratio", "avg_wait_time")):
        stats[name] = geometric_mean([
            metrics[key] / baseline[scenario][key]
            for scenario, metrics in agent_metrics
            if baseline[scenario][key] > 0
        ])
    return stats
