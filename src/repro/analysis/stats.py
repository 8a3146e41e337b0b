"""Distribution summaries: box-plot statistics and latency profiles.

Figure 7 presents box plots of normalized metrics over repeated runs;
Figures 5/6 present per-call latency distributions. These helpers
compute the matching numeric summaries (we render ASCII, not pixels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def _lerp(a: float, b: float, t: float) -> float:
    """numpy's linear interpolation between *a* and *b*: from the
    nearer end, so ``t`` of 0 and 1 return *a* and *b* exactly."""
    if t >= 0.5:
        return b - (b - a) * (1 - t)
    return a + (b - a) * t


def _percentiles(ordered: Sequence[float], qs: Sequence[float]) -> list[float]:
    """The *qs* percentiles of the ascending *ordered* values by
    ``np.percentile``'s default (linear) rule, bit for bit."""
    last = len(ordered) - 1
    out = []
    for q in qs:
        vi = last * (q / 100)
        lo = int(vi)
        out.append(
            _lerp(ordered[min(lo, last)], ordered[min(lo + 1, last)], vi - lo)
        )
    return out


class BoxStats:
    """Five-number summary with Tukey whiskers and outliers."""

    __slots__ = (
        "n", "median", "q1", "q3", "whisker_lo", "whisker_hi", "outliers",
        "mean", "std",
    )

    def __init__(
        self,
        n: int,
        median: float,
        q1: float,
        q3: float,
        whisker_lo: float,
        whisker_hi: float,
        outliers: tuple[float, ...],
        mean: float,
        std: float,
    ) -> None:
        self.n = n
        self.median = median
        self.q1 = q1
        self.q3 = q3
        self.whisker_lo = whisker_lo
        self.whisker_hi = whisker_hi
        self.outliers = outliers
        self.mean = mean
        self.std = std

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1

    def __str__(self) -> str:  # pragma: no cover - convenience
        return (
            f"median={self.median:.4g} IQR=[{self.q1:.4g}, {self.q3:.4g}] "
            f"whiskers=[{self.whisker_lo:.4g}, {self.whisker_hi:.4g}] "
            f"outliers={len(self.outliers)}"
        )


def box_stats(values: Sequence[float]) -> BoxStats:
    """Tukey box-plot statistics of *values*.

    Whiskers extend to the most extreme data point within 1.5·IQR of
    the quartiles; anything beyond is an outlier.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("box_stats requires at least one value")
    arr = np.asarray(values)
    q1, med, q3 = _percentiles(sorted(values), (25, 50, 75))
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = arr[(arr >= lo_fence) & (arr <= hi_fence)]
    whisker_lo = float(inside.min()) if inside.size else float(arr.min())
    whisker_hi = float(inside.max()) if inside.size else float(arr.max())
    outliers = tuple(
        float(v) for v in np.sort(arr[(arr < lo_fence) | (arr > hi_fence)])
    )
    return BoxStats(
        n=int(arr.size),
        median=med,
        q1=q1,
        q3=q3,
        whisker_lo=whisker_lo,
        whisker_hi=whisker_hi,
        outliers=outliers,
        mean=float(arr.mean()),
        std=float(arr.std()),
    )


@dataclass(frozen=True, eq=False, repr=False)
class LatencySummary:
    """Per-call latency distribution summary (Figs. 5/6 right panels)."""

    n_calls: int
    total_s: float
    mean_s: float
    median_s: float
    p90_s: float
    p99_s: float
    max_s: float
    std_s: float
    #: Calls slower than 100 s — the paper calls these out explicitly
    #: for O4-Mini on Heterogeneous Mix.
    over_100s: int

    def __str__(self) -> str:  # pragma: no cover - convenience
        return (
            f"n={self.n_calls} total={self.total_s:.1f}s "
            f"median={self.median_s:.2f}s p90={self.p90_s:.2f}s "
            f"p99={self.p99_s:.2f}s max={self.max_s:.2f}s "
            f">100s: {self.over_100s}"
        )


def summarize_latencies(latencies: Sequence[float]) -> LatencySummary:
    """Summarize a list of per-call latencies (seconds)."""
    values = [float(v) for v in latencies]
    if not values:
        return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
    arr = np.asarray(values)
    p50, p90, p99 = _percentiles(sorted(values), (50, 90, 99))
    return LatencySummary(
        n_calls=int(arr.size),
        total_s=float(arr.sum()),
        mean_s=float(arr.mean()),
        median_s=p50,
        p90_s=p90,
        p99_s=p99,
        max_s=float(arr.max()),
        std_s=float(arr.std()),
        over_100s=int((arr > 100.0).sum()),
    )
