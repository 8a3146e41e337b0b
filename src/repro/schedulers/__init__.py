"""Scheduling policies.

Baselines from the paper's §3.3 comparison — FCFS, SJF and an
optimization-based scheduler standing in for Google OR-Tools — plus an
EASY-backfilling FCFS variant and simple heuristics used in ablations.
The LLM ReAct agent (the paper's contribution) lives in
:mod:`repro.core` and adapts to the same
:class:`~repro.sim.simulator.SchedulerProtocol`.
"""

from repro.schedulers.base import BaseScheduler
from repro.schedulers.fcfs import EasyBackfillScheduler, FCFSScheduler
from repro.schedulers.heuristics import (
    FirstFitScheduler,
    LargestFirstScheduler,
)
from repro.schedulers.registry import (
    SCHEDULER_FACTORIES,
    available_schedulers,
    create_scheduler,
)
from repro.schedulers.sjf import SJFScheduler

__all__ = [
    "BaseScheduler",
    "EasyBackfillScheduler",
    "FCFSScheduler",
    "FirstFitScheduler",
    "LargestFirstScheduler",
    "SCHEDULER_FACTORIES",
    "SJFScheduler",
    "available_schedulers",
    "create_scheduler",
]
