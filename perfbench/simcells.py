"""One simulated cell, untraced and traced, and its layer numbers.

A *cell* is what ``repro.experiments.runner.run_single`` does for a
user: build the disruption trace, construct the simulator, run it,
verify capacity, compute metrics. The untraced pass calls ``run_single``
itself. The traced pass composes the same public pieces here so that a
span can sit at each boundary and the scheduler can be wrapped in a
timing proxy; the workloads check that both give the same digest.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional, Sequence

import numpy as np

from repro.core.agent import ReActSchedulingAgent
from repro.experiments.runner import run_single
from repro.metrics.objectives import compute_metrics
from repro.schedulers.registry import create_scheduler
from repro.service.protocol import schedule_digest
from repro.sim.cluster import ResourcePool
from repro.sim.disruptions import estimate_horizon
from repro.sim.job import Job
from repro.sim.schedule import ScheduleResult
from repro.sim.simulator import HPCSimulator

from perfbench.harness import Checks, percentile
from perfbench.tracing import TimedBackend, TracedScheduler

#: ``schedulers.<policy>.decide_busy_s`` exists for these policies.
NAMED_POLICIES = ("sjf_firstfit", "sjf", "fcfs_backfill")
PLANNER = "ortools_like"


@dataclass(frozen=True)
class Cell:
    """Inputs of one cell; ``options`` are ``run_single`` keywords
    (arrival_mode, disruptions, topology, restart_policy …)."""

    label: str
    scenario: str
    jobs: Sequence[Job]
    scheduler: str
    seed: int
    options: dict = field(default_factory=dict)


@dataclass
class CellTrace:
    """What the proxies and spans saw in one traced cell."""

    policy: str
    is_agent: bool
    construct_s: float
    run_start: float
    run_end: float
    verify_s: float
    metrics_s: float
    decides: list[tuple[float, float, int]]
    rejections: list[tuple[float, float]]
    backend: list[tuple[float, float, int]]


@dataclass
class CellOut:
    label: str
    result: ScheduleResult
    metrics: dict[str, float]
    seconds: float
    trace: Optional[CellTrace] = None


def run_cell(tr, cell: Cell) -> CellOut:
    """Run one cell; with a live tracer, span every layer boundary."""
    t0 = perf_counter()
    if not tr.enabled:
        run = run_single(
            cell.scenario, len(cell.jobs), cell.scheduler,
            workload_seed=cell.seed, scheduler_seed=cell.seed,
            jobs=cell.jobs, **cell.options,
        )
        return CellOut(
            cell.label, run.result, run.metrics.as_dict(),
            perf_counter() - t0,
        )

    options = dict(cell.options)
    options.pop("arrival_mode", None)  # a label once jobs are given
    spec = options.pop("disruptions", None)
    topology = options.pop("topology", None)
    tr.next_op()
    with tr.span("cell"):
        inner = create_scheduler(cell.scheduler, seed=cell.seed)
        backend = None
        if isinstance(inner, ReActSchedulingAgent):
            backend = inner.backend = TimedBackend(inner.backend)
        proxy = TracedScheduler(inner)
        with tr.span("sim.construct") as construct:
            cluster = ResourcePool(topology=topology)
            trace = None
            if spec:
                trace = spec.build(
                    n_nodes=cluster.total_nodes,
                    horizon=estimate_horizon(cell.jobs, cluster.total_nodes),
                    topology=topology,
                )
            sim = HPCSimulator(
                jobs=list(cell.jobs), scheduler=proxy, cluster=cluster,
                disruptions=trace, **options,
            )
        with tr.span("sim.run") as run_span:
            result = sim.run()
        decide_name = "core.decide" if backend else "schedulers.decide"
        first_decide = len(tr.spans)
        tr.extend(decide_name, run_span.index, (d[:2] for d in proxy.decides))
        tr.extend("schedulers.on_rejection", run_span.index, proxy.rejections)
        if backend:
            # One completion per decision, inside the decision's span.
            for offset, call in enumerate(backend.calls):
                tr.extend("core.backend", first_decide + offset, (call[:2],))
        with tr.span("sim.verify") as verify:
            result.verify_capacity()
        with tr.span("metrics.compute") as metrics_span:
            metrics = compute_metrics(result).as_dict()
    start, end = tr.spans[run_span.index][1:3]
    return CellOut(
        cell.label, result, metrics, perf_counter() - t0,
        CellTrace(
            policy=cell.scheduler,
            is_agent=backend is not None,
            construct_s=construct.seconds,
            run_start=start,
            run_end=end,
            verify_s=verify.seconds,
            metrics_s=metrics_span.seconds,
            decides=proxy.decides,
            rejections=proxy.rejections,
            backend=backend.calls if backend else [],
        ),
    )


def check_cell(out: CellOut, cell: Cell, checks: Checks) -> str:
    """Seed-independent checks on one finished cell; returns its digest."""
    try:
        out.result.verify_capacity()
        violation = ""
    except AssertionError as exc:
        violation = str(exc)
    checks.ok(not violation, f"{cell.label}: capacity verified {violation}")
    done = sorted(rec.job.job_id for rec in out.result.records)
    checks.ok(
        done == sorted(job.job_id for job in cell.jobs),
        f"{cell.label}: each job finished exactly once",
    )
    return schedule_digest(out.result, out.metrics)


def geometric_mean(values: Sequence[float]) -> float:
    """Of the positive members; 0.0 when there is none."""
    values = [v for v in values if v > 0]
    return statistics.geometric_mean(values) if values else 0.0


def sim_layers(outs: Sequence[CellOut]) -> dict[str, float]:
    """``sim`` / ``schedulers`` / ``core`` / ``metrics`` numbers over the
    traced cells of one repetition (times in seconds)."""
    traces = [o.trace for o in outs]
    run_s = sum(t.run_end - t.run_start for t in traces)
    heur = [t for t in traces if not t.is_agent]
    agent = [t for t in traces if t.is_agent]

    depths, gaps = [], []
    busy_of_trace: dict[int, np.ndarray] = {}
    for t in traces:
        if not t.decides:
            continue
        d = np.array(t.decides, dtype=np.float64)
        busy_of_trace[id(t)] = d[:, 1] - d[:, 0]
        depths.append(d[:, 2])
        # Engine time before each decision: from the end of whatever
        # scheduler call came last (or the run's start) to its start.
        marks = np.sort(
            np.concatenate(
                [d[:, 1], np.array([r[1] for r in t.rejections]),
                 [t.run_start]]
            )
        )
        prev = marks[np.searchsorted(marks, d[:, 0], side="right") - 1]
        gaps.append(d[:, 0] - prev)
    depth = np.concatenate(depths)
    gap = np.concatenate(gaps)
    busy = np.concatenate(list(busy_of_trace.values()))
    n_decisions = len(depth)

    rejection_s = sum(b - a for t in traces for a, b in t.rejections)
    n_rejection_calls = sum(len(t.rejections) for t in traces)
    self_s = run_s - float(busy.sum()) - rejection_s
    n_jobs = sum(o.result.n_jobs for o in outs)
    n_preempt = sum(len(o.result.preemptions) for o in outs)
    events = 2 * n_jobs + 2 * n_preempt
    rejected = sum(
        1 for o in outs for d in o.result.decisions if not d.accepted
    )
    recorded = sum(len(o.result.decisions) for o in outs)

    order = np.argsort(depth, kind="stable")
    quarter = max(1, n_decisions // 4)
    shallow = gap[order[:quarter]].mean()
    deep = gap[order[-quarter:]].mean()

    def busy_of(group) -> np.ndarray:
        rows = [busy_of_trace[id(t)] for t in group if t.decides]
        return np.concatenate(rows) if rows else np.zeros(0)

    heur_busy = busy_of(heur)
    agent_busy = busy_of(agent)
    planner_busy = busy_of([t for t in heur if t.policy == PLANNER])
    metrics_s = sum(t.metrics_s for t in traces)

    layers = {
        "sim.construct_s": sum(t.construct_s for t in traces),
        "sim.run_s": run_s,
        "sim.self_s": self_s,
        "sim.events": float(events),
        "sim.self_us_per_event": self_s / events,
        "sim.decisions": float(n_decisions),
        "sim.self_us_per_decision": self_s / n_decisions,
        "sim.rejections": float(rejected),
        "sim.accept_ratio": 1.0 - rejected / recorded,
        "sim.preemptions": float(n_preempt),
        "sim.queue_depth_p50": float(np.median(depth)),
        "sim.queue_depth_max": float(depth.max()),
        "sim.depth_growth_ratio": float(deep / shallow) if shallow > 0 else 0.0,
        "sim.verify_capacity_s": sum(t.verify_s for t in traces),
        "schedulers.decide_calls": float(len(heur_busy)),
        "schedulers.decide_busy_s": float(heur_busy.sum()),
        "schedulers.decide_share": float(heur_busy.sum()) / run_s,
        "schedulers.on_rejection_calls": float(n_rejection_calls),
        "schedulers.planner_busy_s": float(planner_busy.sum()),
        "schedulers.planner_share": float(planner_busy.sum()) / run_s,
        "metrics.compute_s": metrics_s,
        "metrics.compute_us_per_job": metrics_s / n_jobs,
    }
    if len(heur_busy):
        layers["schedulers.decide_us_p50"] = float(np.median(heur_busy))
        layers["schedulers.decide_us_p99"] = percentile(heur_busy.tolist(), 99)
    for policy in NAMED_POLICIES:
        layers[f"schedulers.{policy}.decide_busy_s"] = float(
            busy_of([t for t in heur if t.policy == policy]).sum()
        )
    if agent:
        calls = [c for t in agent for c in t.backend]
        backend_s = sum(b - a for a, b, _ in calls)
        chars = [c[2] for c in calls]
        records = [
            c for o in outs for c in o.result.extras.get("llm_calls", ())
        ]
        n_rejected = sum(1 for c in records if not c.accepted)
        layers.update({
            "core.decide_busy_s": float(agent_busy.sum()),
            "core.decide_us_p50": float(np.median(agent_busy)),
            "core.decide_us_p99": percentile(agent_busy.tolist(), 99),
            "core.backend_busy_s": backend_s,
            "core.agent_self_s": float(agent_busy.sum()) - backend_s,
            "core.llm_calls": float(len(records)),
            "core.rejected_calls": float(n_rejected),
            "core.accept_ratio": 1.0 - n_rejected / len(records),
            "core.prompt_chars_p50": float(np.median(chars)),
            "core.prompt_chars_max": float(max(chars)),
            "core.virtual_latency_s": float(
                sum(c.latency_s for c in records)
            ),
        })
    return layers
