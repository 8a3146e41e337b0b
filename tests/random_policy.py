"""A uniformly random feasible-job policy (not in the package).

Not one of the paper's baselines, so no user path, figure or sweep
runs it. ``tests/conftest.py`` registers it as ``"random"``, so every
audit over ``available_schedulers()`` also runs the engine under
arbitrary feasible choices.
"""

from __future__ import annotations

import numpy as np

from repro.schedulers.base import BaseScheduler
from repro.sim.actions import Action, Delay, StartJob
from repro.sim.simulator import SystemView


class RandomScheduler(BaseScheduler):
    """Start a uniformly random feasible job.

    Useful as a stochastic chaff policy in property tests: any
    invariant the simulator guarantees must hold under arbitrary
    feasible choices.
    """

    name = "random"

    def __init__(self, seed: int | np.random.SeedSequence = 0):
        super().__init__()
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def reset(self) -> None:
        super().reset()
        self._rng = np.random.default_rng(self._seed)

    def decide(self, view: SystemView) -> Action:
        feasible = view.feasible_jobs()
        if not feasible:
            return Delay
        pick = feasible[int(self._rng.integers(0, len(feasible)))]
        return StartJob(pick.job_id)
