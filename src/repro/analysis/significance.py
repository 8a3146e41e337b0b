"""Statistical comparison of schedulers across workload seeds.

The paper's §4 robustness study repeats one workload; this utility
answers the complementary question — does a scheduler's advantage hold
*across workload draws*? It runs two policies over N seeded instances
of a scenario and reports per-metric mean paired differences with a
Wilcoxon signed-rank test (scipy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.metrics.normalize import LOWER_BETTER
from repro.metrics.objectives import METRIC_NAMES


@dataclass(frozen=True)
class PairedComparison:
    """Outcome of comparing two schedulers on one metric."""

    metric: str
    mean_a: float
    mean_b: float
    mean_diff: float
    #: Wilcoxon signed-rank p-value (NaN when all differences are 0).
    p_value: float
    n_seeds: int

    @property
    def direction(self) -> str:
        """'a', 'b' or 'tie' — which scheduler is better on this metric
        (orientation-aware)."""
        if self.mean_diff == 0.0:
            return "tie"
        a_better = self.mean_diff < 0
        if self.metric in LOWER_BETTER:
            return "a" if a_better else "b"
        return "b" if a_better else "a"


def compare_schedulers(
    scenario: str,
    n_jobs: int,
    scheduler_a: str,
    scheduler_b: str,
    *,
    n_seeds: int = 10,
    metrics: Sequence[str] = METRIC_NAMES,
    scheduler_seed: int = 0,
) -> dict[str, PairedComparison]:
    """Paired comparison of two schedulers over *n_seeds* workload draws.

    Both schedulers run on identical instances per seed (paired design),
    the 2 × *n_seeds* cells as one
    :func:`~repro.experiments.parallel.run_cells` sweep.
    Returns one :class:`PairedComparison` per metric;
    ``mean_diff = mean(a) − mean(b)``.
    """
    from scipy import stats

    # Imported lazily: repro.experiments builds on repro.analysis, so a
    # top-level import here would be circular.
    from repro.experiments.parallel import expand_cells, run_cells

    if n_seeds < 2:
        raise ValueError("n_seeds must be at least 2")
    runs = run_cells(expand_cells(
        [scenario], [n_jobs], [scheduler_a, scheduler_b],
        workload_seeds=range(n_seeds), scheduler_seeds=[scheduler_seed],
    ))
    # Seeds nest inside schedulers: a's n_seeds runs, then b's.
    runs_a, runs_b = runs[:n_seeds], runs[n_seeds:]

    out: dict[str, PairedComparison] = {}
    for metric in metrics:
        a = np.array([run.metrics[metric] for run in runs_a])
        b = np.array([run.metrics[metric] for run in runs_b])
        diffs = a - b
        if np.allclose(diffs, 0.0):
            p = float("nan")
        else:
            p = float(stats.wilcoxon(a, b, zero_method="zsplit").pvalue)
        out[metric] = PairedComparison(
            metric=metric,
            mean_a=float(a.mean()),
            mean_b=float(b.mean()),
            mean_diff=float(diffs.mean()),
            p_value=p,
            n_seeds=n_seeds,
        )
    return out


def render_comparison(
    comparisons: dict[str, PairedComparison],
    label_a: str,
    label_b: str,
) -> str:
    """ASCII table of a :func:`compare_schedulers` result."""
    lines = [
        f"{'metric':22s} {label_a[:12]:>12s} {label_b[:12]:>12s} "
        f"{'diff':>10s} {'p':>8s} {'better':>8s}"
    ]
    for comp in comparisons.values():
        p_text = "—" if np.isnan(comp.p_value) else f"{comp.p_value:.4f}"
        better = {"a": label_a, "b": label_b, "tie": "tie"}[comp.direction]
        lines.append(
            f"{comp.metric:22s} {comp.mean_a:>12.4g} {comp.mean_b:>12.4g} "
            f"{comp.mean_diff:>10.4g} {p_text:>8s} {better[:8]:>8s}"
        )
    return "\n".join(lines)
