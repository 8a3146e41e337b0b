"""Scheduling action vocabulary.

The paper's agent chooses from four actions at every decision point
(§2.2): ``StartJob(job_id=X)``, ``BackfillJob(job_id=Y)``, ``Delay`` and
``Stop``. Every scheduler in this library — heuristics, the optimizer
and the LLM agent — speaks the same vocabulary, so the simulator has a
single execution/validation path.

``BackfillJob`` executes identically to ``StartJob`` (allocate now);
the distinct verb conveys *intent* (running a small job out of queue
order) and is preserved in decision records so overhead analysis can
restrict itself to accepted placements (paper §3.7.1) and backfill
behaviour can be studied.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class ActionKind(enum.Enum):
    """The four verbs of the scheduling action space (paper §2.2)."""

    START = "StartJob"
    BACKFILL = "BackfillJob"
    DELAY = "Delay"
    STOP = "Stop"


@dataclass(frozen=True)
class Action:
    """A concrete scheduling action.

    ``job_id`` is required for START/BACKFILL and must be
    ``None`` for DELAY/STOP.
    """

    kind: ActionKind
    job_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind in (ActionKind.START, ActionKind.BACKFILL):
            if self.job_id is None:
                raise ValueError(f"{self.kind.value} requires a job_id")
        elif self.job_id is not None:
            raise ValueError(f"{self.kind.value} takes no job_id")

    @property
    def places_job(self) -> bool:
        """True for actions that allocate resources (start/backfill)."""
        return self.kind in (ActionKind.START, ActionKind.BACKFILL)

    def render(self) -> str:
        """Canonical textual form, e.g. ``StartJob(job_id=7)``."""
        if self.job_id is not None:
            return f"{self.kind.value}(job_id={self.job_id})"
        return self.kind.value

    def __str__(self) -> str:
        return self.render()


def StartJob(job_id: int) -> Action:
    """Start job *job_id* immediately."""
    return Action(ActionKind.START, job_id)


def BackfillJob(job_id: int) -> Action:
    """Opportunistically run the (smaller) job *job_id* ahead of queue order."""
    return Action(ActionKind.BACKFILL, job_id)


#: Wait; defer action until conditions change (next event).
Delay = Action(ActionKind.DELAY)

#: End the scheduling process (only legal once all jobs are scheduled).
Stop = Action(ActionKind.STOP)
