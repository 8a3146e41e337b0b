"""Job arrival processes.

The paper simulates dynamic submissions with Poisson processes whose
rate λ is scenario-specific (§3.1); the Bursty+Idle scenario
additionally alternates activity bursts with idle gaps; and the static
experiments of §3.3 submit every job at ``t = 0``.

Every process maps ``(rng, n)`` to a sorted array of ``n`` non-negative
submit times.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class ArrivalProcess(Protocol):
    """Protocol for arrival time generators."""

    def times(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Return ``n`` sorted, non-negative arrival times (seconds)."""
        ...


class AllAtZero:
    """Every job is submitted at system initialization (paper §3.3)."""

    __slots__ = ()

    def times(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.zeros(n)


class PoissonArrivals:
    """Homogeneous Poisson process with rate λ (jobs per second).

    Interarrival gaps are exponential with mean ``1 / rate``; the first
    job arrives at ``t = 0`` so every workload has an eligible job at
    simulation start (matching the paper's traces, Fig. 2).
    """

    __slots__ = ("rate",)

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate}")
        self.rate = rate

    def times(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n == 0:
            return np.zeros(0)
        gaps = rng.exponential(1.0 / self.rate, size=n)
        gaps[0] = 0.0
        return np.cumsum(gaps)


class BurstyArrivals:
    """Bursts of closely spaced submissions separated by idle gaps.

    Within a burst of ``burst_size`` jobs, gaps are exponential with
    rate ``burst_rate``; between bursts an idle period of mean
    ``idle_gap`` seconds (exponential) elapses. Models the Bursty+Idle
    scenario's uneven submission pattern.
    """

    __slots__ = ("burst_size", "burst_rate", "idle_gap")

    def __init__(
        self,
        burst_size: int = 8,
        burst_rate: float = 0.5,
        idle_gap: float = 1800.0,
    ) -> None:
        if burst_size <= 0:
            raise ValueError("burst_size must be positive")
        if burst_rate <= 0:
            raise ValueError("burst_rate must be positive")
        if idle_gap < 0:
            raise ValueError("idle_gap must be non-negative")
        self.burst_size = burst_size
        self.burst_rate = burst_rate
        self.idle_gap = idle_gap

    def times(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n == 0:
            return np.zeros(0)
        gaps = np.empty(n)
        for i in range(n):
            if i == 0:
                gaps[i] = 0.0
            elif i % self.burst_size == 0:
                gaps[i] = rng.exponential(self.idle_gap)
            else:
                gaps[i] = rng.exponential(1.0 / self.burst_rate)
        return np.cumsum(gaps)
