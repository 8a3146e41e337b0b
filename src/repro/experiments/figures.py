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

Figs. 3–7 are views of the evaluation matrix: each builds its cells
with :func:`~repro.experiments.parallel.expand_cells`, runs them with
:func:`~repro.experiments.parallel.run_cells` — the sweep ``repro-sched
matrix`` runs, on every core — and reads the
:class:`~repro.experiments.store.StoredRun` each cell answers with,
keyed in the order of the figure's arguments. Fig. 2 needs the agent's
scratchpad text and Fig. 8 a preprocessed Polaris trace on a 560-node
pool, neither of which a cell describes, so both simulate in process.

Every driver returns plain nested dicts/dataclasses so benchmarks,
tests and the CLI share one code path; rendering lives in
:mod:`repro.experiments.report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional, Sequence

from repro.analysis.stats import BoxStats, box_stats
from repro.experiments.parallel import MatrixCell, expand_cells, run_cells
from repro.experiments.runner import (
    DEFAULT_SCHEDULERS,
    LLM_SCHEDULERS,
    run_single,
)
from repro.experiments.store import StoredRun
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


def _instance_key(run: StoredRun) -> InstanceKey:
    return (
        run.scenario,
        run.n_jobs,
        run.workload_seed,
        run.arrival_mode,
        run.disruption_sig,
        run.topology_sig,
    )


def matrix_blocks(
    runs: Sequence[StoredRun],
    *,
    baseline: str = BASELINE,
) -> dict[InstanceKey, dict[str, dict[str, float]]]:
    """Normalized figure blocks from a sweep's or a store's runs.

    Groups the :class:`~repro.experiments.store.StoredRun` measurements
    by workload instance, averages metric values over scheduler seeds,
    and normalizes each block to *baseline* — the Fig. 3/4
    transformation, applied to a whole sweep. Instance keys come out
    sorted, *baseline* first in each block.

    Blocks whose instance lacks a *baseline* run are returned with raw
    (unnormalized) metric values.
    """
    grouped: dict[InstanceKey, dict[str, list[dict[str, float]]]] = {}
    for run in runs:
        grouped.setdefault(_instance_key(run), {}).setdefault(
            run.scheduler, []
        ).append(run.metrics)

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


def _by_label(
    runs: Sequence[StoredRun],
    label: Callable[[StoredRun], object],
    value: Callable[[StoredRun], object],
) -> dict:
    """``{label(run): {run.scheduler: value(run)}}`` in sweep order.

    :func:`~repro.experiments.parallel.expand_cells` nests scenario →
    size → scheduler and :func:`~repro.experiments.parallel.run_cells`
    answers in cell order, so this is the order of the figure's
    arguments (where :func:`matrix_blocks` sorts)."""
    out: dict = {}
    for run in runs:
        out.setdefault(label(run), {})[run.scheduler] = value(run)
    return out


def _normalized(runs: Sequence[StoredRun], label) -> dict:
    """One single-seed sweep as ``{label: {scheduler: {metric: value /
    FCFS}}}`` (raw values where the sweep has no FCFS cell)."""
    blocks = matrix_blocks(runs)
    return _by_label(
        runs, label, lambda run: blocks[_instance_key(run)][run.scheduler]
    )


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
    return _normalized(
        run_cells(expand_cells(
            scenarios, [n_jobs], schedulers,
            workload_seeds=[workload_seed], scheduler_seeds=[scheduler_seed],
        )),
        attrgetter("scenario"),
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
    return _normalized(
        run_cells(expand_cells(
            [scenario], sizes, schedulers,
            workload_seeds=[workload_seed], scheduler_seeds=[scheduler_seed],
        )),
        attrgetter("n_jobs"),
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
) -> dict[str, dict[str, dict]]:
    """Overhead per scenario at fixed scale (Fig. 5).

    Returns ``{scenario: {model: StoredRun.overhead}}``.
    """
    return _by_label(
        run_cells(expand_cells(
            scenarios, [n_jobs], models,
            workload_seeds=[workload_seed], scheduler_seeds=[scheduler_seed],
        )),
        attrgetter("scenario"),
        attrgetter("overhead"),
    )


def figure6(
    *,
    sizes: Sequence[int] = PAPER_JOB_COUNTS,
    models: Sequence[str] = LLM_SCHEDULERS,
    scenario: str = "heterogeneous_mix",
    workload_seed: int = 0,
    scheduler_seed: int = 0,
) -> dict[int, dict[str, dict]]:
    """Overhead scaling with queue size on Heterogeneous Mix (Fig. 6).

    Returns ``{n_jobs: {model: StoredRun.overhead}}``.
    """
    return _by_label(
        run_cells(expand_cells(
            [scenario], sizes, models,
            workload_seeds=[workload_seed], scheduler_seeds=[scheduler_seed],
        )),
        attrgetter("n_jobs"),
        attrgetter("overhead"),
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
    pipeline*, not the workload draw); repetition *k* runs the
    scheduler at seed *k*, so stochastic methods (LLM agents, the
    annealer) vary while FCFS/SJF stay deterministic and flat. Every
    run is normalized to one more cell, FCFS at scheduler seed 0, which
    is left out of the result.

    Returns ``{scheduler: {metric: BoxStats over repetitions}}``.
    """
    cells = expand_cells(
        [scenario], [n_jobs], schedulers,
        workload_seeds=[workload_seed], scheduler_seeds=range(n_repeats),
    )
    *runs, base = run_cells(
        cells + [MatrixCell(scenario, n_jobs, BASELINE, workload_seed)]
    )
    samples = {name: {m: [] for m in METRIC_NAMES} for name in schedulers}
    for run in runs:
        normalized = normalize_to_baseline(run.metrics, base.metrics)
        for metric, value in normalized.items():
            samples[run.scheduler][metric].append(value)
    return {
        name: {
            metric: box_stats(values)
            for metric, values in per_metric.items()
        }
        for name, per_metric in samples.items()
    }


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
    values = {
        name: run_single(
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
        ).values
        for name in schedulers
    }
    return {
        name: normalize_to_baseline(metrics, values[BASELINE])
        for name, metrics in values.items()
    }
