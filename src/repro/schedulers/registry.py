"""Scheduler registry: names → factories.

The experiment harness refers to policies by name (matching the
paper's figure legends); this module centralizes construction so every
entry point builds schedulers identically. LLM-agent entries are
registered lazily by :mod:`repro.core` to keep the dependency direction
clean (core builds on schedulers, not vice versa).
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.schedulers.base import BaseScheduler
from repro.schedulers.fcfs import EasyBackfillScheduler, FCFSScheduler
from repro.schedulers.heuristics import (
    FirstFitScheduler,
    LargestFirstScheduler,
)
from repro.schedulers.sjf import SJFScheduler

SchedulerFactory = Callable[..., BaseScheduler]


def _ortools_like(seed: int = 0, **kw) -> BaseScheduler:
    # The annealer and its packer are imported here, so a run under any
    # other policy does not load them.
    from repro.schedulers.optimizer import AnnealingOptimizer

    return AnnealingOptimizer(seed=seed, **kw)


SCHEDULER_FACTORIES: Dict[str, SchedulerFactory] = {
    "fcfs": lambda seed=0, **kw: FCFSScheduler(),
    "fcfs_backfill": lambda seed=0, **kw: EasyBackfillScheduler(),
    "sjf": lambda seed=0, **kw: SJFScheduler(strict=True),
    "sjf_firstfit": lambda seed=0, **kw: SJFScheduler(strict=False),
    "ortools_like": _ortools_like,
    "first_fit": lambda seed=0, **kw: FirstFitScheduler(),
    "largest_first": lambda seed=0, **kw: LargestFirstScheduler(),
}


def register_scheduler(name: str, factory: SchedulerFactory) -> None:
    """Add (or replace) a named scheduler factory."""
    SCHEDULER_FACTORIES[name] = factory


def create_scheduler(name: str, seed: int = 0, **kwargs) -> BaseScheduler:
    """Instantiate a scheduler by registry name.

    LLM-agent names (``claude-3.7-sim``, ``o4-mini-sim``) become
    available once :mod:`repro.core` is imported; importing
    :mod:`repro` top-level does that automatically.
    """
    try:
        factory = SCHEDULER_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; available: "
            f"{', '.join(sorted(SCHEDULER_FACTORIES))}"
        ) from None
    return factory(seed=seed, **kwargs)


def available_schedulers() -> list[str]:
    """Sorted list of registered scheduler names."""
    return sorted(SCHEDULER_FACTORIES)
