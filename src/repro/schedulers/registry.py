"""Scheduler registry: names → factories.

The experiment harness refers to policies by name (matching the
paper's figure legends); this module centralizes construction so every
entry point builds schedulers identically. LLM-agent entries are
registered lazily by :mod:`repro.core` to keep the dependency direction
clean (core builds on schedulers, not vice versa).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

from repro.schedulers.base import BaseScheduler
from repro.schedulers.fcfs import EasyBackfillScheduler, FCFSScheduler
from repro.schedulers.heuristics import (
    FirstFitScheduler,
    LargestFirstScheduler,
    RandomScheduler,
)
from repro.schedulers.genetic import GeneticOptimizer
from repro.schedulers.optimizer import AnnealingConfig, AnnealingOptimizer
from repro.schedulers.sjf import SJFScheduler

SchedulerFactory = Callable[..., BaseScheduler]


def _annealer_factory(
    seed: int = 0,
    anneal_window: Optional[int] = None,
    config: Optional[AnnealingConfig] = None,
    **kw,
) -> AnnealingOptimizer:
    """``ortools_like`` factory; ``anneal_window`` overlays the
    windowed-replanning knob onto the (possibly explicit) config."""
    if anneal_window is not None:
        config = (
            dataclasses.replace(config, window=anneal_window)
            if config is not None
            else AnnealingConfig(window=anneal_window)
        )
    return AnnealingOptimizer(seed=seed, config=config, **kw)


SCHEDULER_FACTORIES: Dict[str, SchedulerFactory] = {
    "fcfs": lambda seed=0, **kw: FCFSScheduler(),
    "fcfs_backfill": lambda seed=0, **kw: EasyBackfillScheduler(),
    "sjf": lambda seed=0, **kw: SJFScheduler(strict=True),
    "sjf_firstfit": lambda seed=0, **kw: SJFScheduler(strict=False),
    "ortools_like": _annealer_factory,
    "genetic": lambda seed=0, **kw: GeneticOptimizer(seed=seed, **kw),
    "first_fit": lambda seed=0, **kw: FirstFitScheduler(),
    "largest_first": lambda seed=0, **kw: LargestFirstScheduler(),
    "random": lambda seed=0, **kw: RandomScheduler(seed=seed),
}

#: Schedulers that consume the ``anneal_window`` option; the harness
#: only forwards the flag (and decorates the recorded scheduler label)
#: for these — ``--anneal-window`` on a mixed matrix leaves every other
#: policy, and its cell identity, untouched.
WINDOW_AWARE_SCHEDULERS: frozenset[str] = frozenset({"ortools_like"})

#: Schedulers with a columnar decision kernel (``supports_columns`` on
#: the class), byte-identical to the facade twin that serves short
#: queues and hand-built views.
COLUMNAR_SCHEDULERS: frozenset[str] = frozenset(
    {
        "fcfs_backfill",
        "sjf",
        "sjf_firstfit",
        "first_fit",
        "largest_first",
    }
)


def supports_anneal_window(name: str) -> bool:
    """Does the named scheduler consume the ``anneal_window`` option?"""
    return name in WINDOW_AWARE_SCHEDULERS


def scheduler_label(name: str, anneal_window: Optional[int] = None) -> str:
    """Recorded scheduler name: ``<name>@w<W>`` when a window applies
    (a windowed search is a different experiment, so the label — and
    the cell key built on it — differs), the plain registry name for
    window-blind policies."""
    if anneal_window is not None and supports_anneal_window(name):
        return f"{name}@w{anneal_window}"
    return name


def supports_columns(name: str) -> bool:
    """Does the named scheduler have a columnar decision kernel?"""
    return name in COLUMNAR_SCHEDULERS


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
