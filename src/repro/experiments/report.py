"""ASCII rendering of figure data.

The paper's figures are bar/box/scatter charts; we regenerate the
underlying numbers and print them as aligned tables so benches and the
CLI produce the rows/series the paper reports.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.analysis.stats import BoxStats
from repro.metrics.disruption import DISRUPTION_METRIC_NAMES
from repro.metrics.objectives import METRIC_NAMES

#: Short column labels for the eight metrics.
METRIC_LABELS: dict[str, str] = {
    "makespan": "makespan",
    "avg_wait_time": "wait",
    "avg_turnaround_time": "turnaround",
    "throughput": "thruput",
    "node_utilization": "node_util",
    "memory_utilization": "mem_util",
    "wait_fairness": "wait_fair",
    "user_fairness": "user_fair",
}

#: Labels for the reliability columns disrupted runs add.
DISRUPTION_LABELS: dict[str, str] = {
    "goodput_node_hours": "goodput_nh",
    "wasted_node_hours": "wasted_nh",
    "goodput_fraction": "goodput%",
    "n_kills": "kills",
    "work_lost_per_kill": "lost/kill",
    "mean_requeue_latency": "requeue_s",
    # Blast-radius columns (correlated/domain-event runs only).
    "largest_event_loss_node_hours": "blast_nh",
    "n_domain_kills": "dom_kills",
    "domains_hit": "domains",
}


def _fmt(value: float, width: int = 9) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "—".rjust(width)
    if isinstance(value, float) and math.isinf(value):
        return "inf".rjust(width)
    return f"{value:.3f}".rjust(width)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]]
) -> str:
    """Align *rows* under *headers* (all entries pre-formatted strings)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(widths[i]) for i, c in enumerate(cells))
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), sep] + [line(r) for r in rows])


def render_normalized_block(
    block: Mapping[str, Mapping[str, float]],
    title: str,
    *,
    suffix: str = "(normalized to FCFS = 1.0)",
) -> str:
    """Render one {scheduler: {metric: normalized}} block.

    Disrupted blocks (rows carrying the reliability objectives) grow
    the extra goodput/wasted/kill columns; undisrupted blocks render
    exactly the legacy eight-column table.
    """
    columns = list(METRIC_NAMES)
    labels = dict(METRIC_LABELS)
    for extra in DISRUPTION_METRIC_NAMES:
        if any(extra in metrics for metrics in block.values()):
            columns.append(extra)
            labels[extra] = DISRUPTION_LABELS[extra]
    headers = ["scheduler"] + [labels[m] for m in columns]
    rows = []
    for scheduler, metrics in block.items():
        rows.append(
            [scheduler]
            + [_fmt(metrics.get(m, math.nan)).strip() for m in columns]
        )
    return f"== {title} {suffix}\n" + format_table(headers, rows)


def render_matrix_blocks(
    blocks: Mapping[
        tuple[str, int, int, str, str, str],
        Mapping[str, Mapping[str, float]],
    ],
) -> str:
    """Render a whole sweep (e.g. loaded from a ``RunStore``) as one
    normalized block per workload instance.

    *blocks* is the output of
    :func:`repro.experiments.figures.matrix_blocks`, keyed by
    (scenario, n_jobs, workload_seed, arrival_mode, disruption_sig,
    topology_sig). Blocks without an ``fcfs`` baseline carry raw
    metric values (matrix_blocks leaves them unnormalized), so the
    header says which it is.
    """
    parts = [
        render_normalized_block(
            block,
            f"{scenario}, {n_jobs} jobs, seed {seed}"
            + ("" if mode == "scenario" else f", {mode} arrivals")
            + ("" if sig == "none" else f", disruptions [{sig}]")
            + ("" if topo == "flat" else f", topology [{topo}]"),
            suffix=(
                "(normalized to FCFS = 1.0)"
                if "fcfs" in block
                else "(raw values; no fcfs baseline in sweep)"
            ),
        )
        for (scenario, n_jobs, seed, mode, sig, topo), block
        in blocks.items()
    ]
    return "\n\n".join(parts)


def describe_where(where: Mapping[str, object]) -> str:
    """One-line human form of an ``iter_runs`` identity filter, for
    report headers: ``filtered: scenario=adversarial, n_jobs=60``."""
    if not where:
        return ""
    fields = ", ".join(f"{k}={v}" for k, v in sorted(where.items()))
    return f"filtered: {fields}"


def render_figure3(
    data: Mapping[str, Mapping[str, Mapping[str, float]]], *, n_jobs: int
) -> str:
    """Fig. 3: one block per scenario, of *n_jobs* jobs each."""
    parts = [
        render_normalized_block(block, f"Figure 3 — {scenario}, {n_jobs} jobs")
        for scenario, block in data.items()
    ]
    return "\n\n".join(parts)


def render_figure4(
    data: Mapping[int, Mapping[str, Mapping[str, float]]]
) -> str:
    """Fig. 4: one block per queue size."""
    parts = [
        render_normalized_block(
            block, f"Figure 4 — heterogeneous_mix, {n} jobs"
        )
        for n, block in data.items()
    ]
    return "\n\n".join(parts)


def render_overhead_table(
    data: Mapping[object, Mapping[str, Mapping]],
    *,
    key_label: str,
    title: str,
) -> str:
    """Figs. 5/6: elapsed time, call count, latency distribution, from
    each cell's stored overhead record (``StoredRun.overhead``)."""
    headers = [
        key_label,
        "model",
        "elapsed_s",
        "calls",
        "placed",
        "rejected",
        "lat_med_s",
        "lat_p90_s",
        "lat_max_s",
        ">100s",
    ]
    rows = []
    for key, per_model in data.items():
        for model, ov in per_model.items():
            latency = ov["latency"]
            rows.append(
                [
                    str(key),
                    model,
                    f"{ov['elapsed_s']:.1f}",
                    str(ov["n_calls"]),
                    str(ov["n_accepted_placements"]),
                    str(ov["n_rejected"]),
                    f"{latency['median_s']:.2f}",
                    f"{latency['p90_s']:.2f}",
                    f"{latency['max_s']:.2f}",
                    str(latency["over_100s"]),
                ]
            )
    return f"== {title}\n" + format_table(headers, rows)


def render_figure7(
    data: Mapping[str, Mapping[str, BoxStats]], *, n_jobs: int, n_repeats: int
) -> str:
    """Fig. 7: box-plot statistics per scheduler × metric over
    *n_repeats* runs of *n_jobs* jobs."""
    headers = [
        "scheduler",
        "metric",
        "median",
        "q1",
        "q3",
        "whisk_lo",
        "whisk_hi",
        "outliers",
    ]
    rows = []
    for scheduler, metrics in data.items():
        for metric, bs in metrics.items():
            rows.append(
                [
                    scheduler,
                    METRIC_LABELS[metric],
                    _fmt(bs.median).strip(),
                    _fmt(bs.q1).strip(),
                    _fmt(bs.q3).strip(),
                    _fmt(bs.whisker_lo).strip(),
                    _fmt(bs.whisker_hi).strip(),
                    str(len(bs.outliers)),
                ]
            )
    return (
        f"== Figure 7 — Heterogeneous Mix, {n_jobs} jobs × {n_repeats} "
        "repetitions (normalized to FCFS)\n" + format_table(headers, rows)
    )


def render_figure8(
    data: Mapping[str, Mapping[str, float]], *, n_jobs: int
) -> str:
    """Fig. 8: Polaris trace block of *n_jobs* jobs."""
    return render_normalized_block(
        data, f"Figure 8 — Polaris trace, {n_jobs} jobs (560 nodes × 512 GB)"
    )
