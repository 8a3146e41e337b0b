"""Per-figure reproduction drivers.

One function per evaluation artifact in the paper:

========  ==========================================================
figure2   Representative ReAct reasoning traces (qualitative)
figure3   Normalized metrics, six scenarios × 60 jobs (§3.5)
figure4   Scalability on Heterogeneous Mix, 10–100 jobs (§3.6)
figure5   Overhead per scenario at 60 jobs (§3.7.1)
figure6   Overhead scaling with queue size (§3.7.2)
figure7   Robustness over 5 repetitions, Het-Mix 100 jobs (§4)
figure8   Polaris trace, 100 jobs (§5)
========  ==========================================================

Every driver returns plain nested dicts/dataclasses so benchmarks,
tests and the CLI share one code path; rendering lives in
:mod:`repro.experiments.report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Protocol, Sequence

from repro.analysis.stats import BoxStats, box_stats
from repro.experiments.runner import (
    DEFAULT_SCHEDULERS,
    LLM_SCHEDULERS,
    ExperimentRun,
    OverheadSummary,
    run_single,
)
from repro.metrics.normalize import normalize_to_baseline
from repro.metrics.objectives import METRIC_NAMES
from repro.sim.cluster import ResourcePool
from repro.workloads.generator import generate_workload
from repro.workloads.polaris import (
    POLARIS_NODES,
    POLARIS_TOTAL_MEMORY_GB,
    preprocess_trace,
    synthesize_polaris_trace,
)
from repro.workloads.scenarios import FIGURE3_SCENARIOS, PAPER_JOB_COUNTS

#: Scheduler used as the normalization baseline everywhere.
BASELINE = "fcfs"


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

#: Key of one workload instance inside a sweep:
#: (scenario, n_jobs, workload_seed, arrival_mode, disruption_sig,
#: topology_sig) — the disruption regime and cluster topology are part
#: of the workload-instance identity so disrupted/undisrupted runs and
#: different rack layouts of the same seeds never merge into one
#: normalized block.
InstanceKey = tuple[str, int, int, str, str, str]


class RunLike(Protocol):
    """Structural type shared by :class:`ExperimentRun` and
    :class:`~repro.experiments.store.StoredRun`: cell identity plus a
    metric dict."""

    scenario: str
    n_jobs: int
    workload_seed: int
    scheduler: str
    arrival_mode: str

    @property
    def values(self) -> dict[str, float]: ...


def matrix_blocks(
    runs: Sequence["RunLike"],
    *,
    baseline: str = BASELINE,
) -> dict[InstanceKey, dict[str, dict[str, float]]]:
    """Normalized figure blocks from sweep results or stored artifacts.

    Accepts any mix of :class:`ExperimentRun` and
    :class:`~repro.experiments.store.StoredRun` (anything with the cell
    identity fields and a ``values`` dict), groups them by workload
    instance, averages metric values over scheduler seeds, and
    normalizes each block to *baseline* — the Fig. 3/4 transformation,
    applied to a whole persisted sweep.

    Blocks whose instance lacks a *baseline* run are returned with raw
    (unnormalized) metric values.
    """
    grouped: dict[InstanceKey, dict[str, list[dict[str, float]]]] = {}
    for run in runs:
        sig = getattr(run, "disruption_sig", "none")
        key = (
            run.scenario,
            run.n_jobs,
            run.workload_seed,
            getattr(run, "arrival_mode", "scenario"),
            str(sig),
            str(getattr(run, "topology_sig", "flat")),
        )
        grouped.setdefault(key, {}).setdefault(run.scheduler, []).append(
            dict(run.values)
        )

    out: dict[InstanceKey, dict[str, dict[str, float]]] = {}
    for key in sorted(grouped):
        per_sched = {
            name: {
                metric: float(
                    sum(v[metric] for v in values) / len(values)
                )
                for metric in values[0]
            }
            for name, values in grouped[key].items()
        }
        base = per_sched.get(baseline)
        # Baseline first, remaining schedulers alphabetical: block row
        # order stays deterministic even when the store was written in
        # pool completion order.
        ordered = sorted(per_sched, key=lambda n: (n != baseline, n))
        out[key] = {
            name: (
                normalize_to_baseline(per_sched[name], base)
                if base is not None
                else per_sched[name]
            )
            for name in ordered
        }
    return out

def store_blocks(
    store,
    *,
    where: Optional[dict] = None,
    keys=None,
    baseline: str = BASELINE,
    on_corrupt: str = "raise",
) -> dict[InstanceKey, dict[str, dict[str, float]]]:
    """Normalized figure blocks straight from a run archive.

    The store-backed counterpart of :func:`matrix_blocks`: *store* is
    any ``StoreBackend`` (single-file or sharded), and rows come from
    its ``iter_runs(where=..., keys=...)`` query — identity filters
    are pushed down to the backend, where a sharded store prunes to
    the owning shards instead of scanning the whole archive. Filter
    semantics (and ``on_corrupt``) are the backend's; the
    normalization is :func:`matrix_blocks` unchanged.
    """
    runs = list(store.iter_runs(where, keys=keys, on_corrupt=on_corrupt))
    return matrix_blocks(runs, baseline=baseline)


def _normalized_block(
    runs: Mapping[str, ExperimentRun]
) -> dict[str, dict[str, float]]:
    """{scheduler: {metric: value / FCFS}} for one workload instance."""
    baseline = runs[BASELINE].values
    return {
        name: normalize_to_baseline(run.values, baseline)
        for name, run in runs.items()
    }


def _overheads(
    runs: Mapping[str, ExperimentRun]
) -> dict[str, OverheadSummary]:
    """{model: OverheadSummary} for one workload instance."""
    out: dict[str, OverheadSummary] = {}
    for model, run in runs.items():
        assert run.overhead is not None
        out[model] = run.overhead
    return out


def _sweep(
    instances,
    schedulers: Sequence[str],
    summarize,
    *,
    workload_seed: int,
    scheduler_seed: int,
) -> dict:
    """The one body behind Figs. 3–6: ``{label: summarize(runs)}`` over
    ``(label, scenario, n_jobs)`` workload instances, every scheduler
    run on the same generated jobs. Figs. 3/5 iterate the scenario
    axis, Figs. 4/6 the queue-size axis."""
    out = {}
    for label, scenario, n_jobs in instances:
        jobs = generate_workload(scenario, n_jobs, seed=workload_seed)
        out[label] = summarize({
            name: run_single(
                scenario,
                n_jobs,
                name,
                workload_seed=workload_seed,
                scheduler_seed=scheduler_seed,
                jobs=jobs,
            )
            for name in schedulers
        })
    return out


# ---------------------------------------------------------------------------
# Figure 2 — reasoning traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceSample:
    """One representative decision trace."""

    time: float
    action: str
    accepted: bool
    thought: str
    feedback: str = ""

    def render(self) -> str:
        lines = [f"# Decision at t={self.time:g}", "# Thought"]
        lines.append(self.thought)
        lines.append("# Action")
        lines.append(self.action)
        if not self.accepted:
            lines.append("# Feedback from Environment appended to scratchpad")
            lines.append(self.feedback)
        return "\n".join(lines)


def figure2(
    *,
    scenario: str = "heterogeneous_mix",
    n_jobs: int = 20,
    model: str = "claude-3.7-sim",
    seed: int = 0,
    hallucination_rate: Optional[float] = 0.25,
) -> list[TraceSample]:
    """Collect representative reasoning traces (Fig. 2).

    A raised hallucination rate makes the constraint-feedback recovery
    trace (the paper's bottom-right panel) appear reliably in a short
    run; pass ``hallucination_rate=None`` for the profile default.
    """
    from repro.core.agent import create_llm_scheduler
    from repro.sim.simulator import HPCSimulator

    jobs = generate_workload(scenario, n_jobs, seed=seed)
    agent = create_llm_scheduler(
        model, seed=seed, hallucination_rate=hallucination_rate
    )
    result = HPCSimulator(jobs=jobs, scheduler=agent).run()

    samples: list[TraceSample] = []
    seen_kinds: set[str] = set()
    entries = {id(e): e for e in agent.scratchpad.entries}
    for decision, entry in zip(result.decisions, agent.scratchpad.entries):
        kind = decision.action.kind.value + (
            "" if decision.accepted else ":rejected"
        )
        if kind in seen_kinds:
            continue
        seen_kinds.add(kind)
        samples.append(
            TraceSample(
                time=decision.time,
                action=decision.action.render(),
                accepted=decision.accepted,
                thought=str(decision.meta.get("thought", "")),
                feedback=entry.feedback,
            )
        )
    return samples


# ---------------------------------------------------------------------------
# Figure 3 — six scenarios × 60 jobs
# ---------------------------------------------------------------------------

def figure3(
    *,
    n_jobs: int = 60,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    scenarios: Sequence[str] = FIGURE3_SCENARIOS,
    workload_seed: int = 0,
    scheduler_seed: int = 0,
) -> dict[str, dict[str, dict[str, float]]]:
    """Normalized metrics per scenario (Fig. 3).

    Returns ``{scenario: {scheduler: {metric: normalized}}}``.
    Heterogeneous Mix is excluded by default, as in the paper (§3.5 —
    it is covered by the scalability analysis).
    """
    return _sweep(
        [(scenario, scenario, n_jobs) for scenario in scenarios],
        schedulers,
        _normalized_block,
        workload_seed=workload_seed,
        scheduler_seed=scheduler_seed,
    )


# ---------------------------------------------------------------------------
# Figure 4 — scalability on Heterogeneous Mix
# ---------------------------------------------------------------------------

def figure4(
    *,
    sizes: Sequence[int] = PAPER_JOB_COUNTS,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    scenario: str = "heterogeneous_mix",
    workload_seed: int = 0,
    scheduler_seed: int = 0,
) -> dict[int, dict[str, dict[str, float]]]:
    """Normalized metrics per queue size (Fig. 4).

    Returns ``{n_jobs: {scheduler: {metric: normalized}}}``.
    """
    return _sweep(
        [(n_jobs, scenario, n_jobs) for n_jobs in sizes],
        schedulers,
        _normalized_block,
        workload_seed=workload_seed,
        scheduler_seed=scheduler_seed,
    )


# ---------------------------------------------------------------------------
# Figures 5/6 — computational overhead
# ---------------------------------------------------------------------------

def figure5(
    *,
    n_jobs: int = 60,
    models: Sequence[str] = LLM_SCHEDULERS,
    scenarios: Sequence[str] = FIGURE3_SCENARIOS,
    workload_seed: int = 0,
    scheduler_seed: int = 0,
) -> dict[str, dict[str, OverheadSummary]]:
    """Overhead per scenario at fixed scale (Fig. 5).

    Returns ``{scenario: {model: OverheadSummary}}``.
    """
    return _sweep(
        [(scenario, scenario, n_jobs) for scenario in scenarios],
        models,
        _overheads,
        workload_seed=workload_seed,
        scheduler_seed=scheduler_seed,
    )


def figure6(
    *,
    sizes: Sequence[int] = PAPER_JOB_COUNTS,
    models: Sequence[str] = LLM_SCHEDULERS,
    scenario: str = "heterogeneous_mix",
    workload_seed: int = 0,
    scheduler_seed: int = 0,
) -> dict[int, dict[str, OverheadSummary]]:
    """Overhead scaling with queue size on Heterogeneous Mix (Fig. 6).

    Returns ``{n_jobs: {model: OverheadSummary}}``.
    """
    return _sweep(
        [(n_jobs, scenario, n_jobs) for n_jobs in sizes],
        models,
        _overheads,
        workload_seed=workload_seed,
        scheduler_seed=scheduler_seed,
    )


# ---------------------------------------------------------------------------
# Figure 7 — statistical robustness
# ---------------------------------------------------------------------------

def figure7(
    *,
    n_jobs: int = 100,
    n_repeats: int = 5,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    scenario: str = "heterogeneous_mix",
    workload_seed: int = 0,
) -> dict[str, dict[str, BoxStats]]:
    """Metric distributions over repeated runs (Fig. 7).

    The workload instance is fixed (the paper repeats the *scheduling
    pipeline*, not the workload draw); each repetition re-seeds the
    scheduler, so stochastic methods (LLM agents, the annealer) vary
    while FCFS/SJF stay deterministic and flat.

    Returns ``{scheduler: {metric: BoxStats over repetitions}}``.
    """
    jobs = generate_workload(scenario, n_jobs, seed=workload_seed)
    baseline = run_single(
        scenario, n_jobs, BASELINE, workload_seed=workload_seed, jobs=jobs
    ).values

    out: dict[str, dict[str, BoxStats]] = {}
    for name in schedulers:
        per_metric: dict[str, list[float]] = {m: [] for m in METRIC_NAMES}
        for rep in range(n_repeats):
            run = run_single(
                scenario,
                n_jobs,
                name,
                workload_seed=workload_seed,
                scheduler_seed=rep,
                jobs=jobs,
            )
            normalized = normalize_to_baseline(run.values, baseline)
            for metric, value in normalized.items():
                per_metric[metric].append(value)
        out[name] = {
            metric: box_stats(values)
            for metric, values in per_metric.items()
        }
    return out


# ---------------------------------------------------------------------------
# Figure 8 — Polaris trace
# ---------------------------------------------------------------------------

def figure8(
    *,
    n_jobs: int = 100,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    trace_seed: int = 2024,
    scheduler_seed: int = 0,
) -> dict[str, dict[str, float]]:
    """Normalized metrics on the Polaris trace substitute (Fig. 8).

    Synthesizes a raw Polaris-like history, applies the paper's
    preprocessing pipeline (failure filter, normalization, user
    factorization, 512 GB/node memory), and evaluates every scheduler
    on the 560-node partition assumed idle at time zero.

    Returns ``{scheduler: {metric: normalized}}``.
    """
    raw = synthesize_polaris_trace(n_jobs=int(n_jobs * 1.25), seed=trace_seed)
    jobs = preprocess_trace(raw, n_jobs=n_jobs)
    runs: dict[str, ExperimentRun] = {}
    for name in schedulers:
        runs[name] = run_single(
            "polaris_trace",
            len(jobs),
            name,
            workload_seed=trace_seed,
            scheduler_seed=scheduler_seed,
            jobs=jobs,
            cluster=ResourcePool(
                total_nodes=POLARIS_NODES,
                total_memory_gb=POLARIS_TOTAL_MEMORY_GB,
            ),
        )
    return _normalized_block(runs)
