"""Workload transforms: derived instances for sensitivity studies.

:func:`with_scaled_arrivals` compresses or stretches the arrival
process to sweep offered load without redrawing job demands.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.sim.job import Job, validate_workload


def with_scaled_arrivals(
    jobs: Sequence[Job], factor: float
) -> list[Job]:
    """Scale every submit time by *factor*.

    ``factor < 1`` compresses arrivals (raises offered load);
    ``factor > 1`` stretches them (lowers load). Demands are untouched,
    so load sweeps isolate the queueing effect.
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    return validate_workload(
        [replace(j, submit_time=j.submit_time * factor) for j in jobs]
    )

