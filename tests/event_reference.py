"""The object event heap: one ``Event`` per event, one ``heapq`` entry
each.

The object-graph oracle (``tests/object_reference.py``) runs on it,
and the calendar tests check :class:`~repro.sim.events.ArrayCalendar`
against it: both pop by ``(time, kind, seq)``, ``seq`` being the
insertion order. The package ships only the calendar.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.sim.events import EventKind


@dataclass(frozen=True)
class Event:
    """A scheduled simulator event."""

    time: float
    kind: EventKind
    job_id: int


@dataclass
class EventQueue:
    """A deterministic min-heap of :class:`Event` objects.

    Heap entries carry a monotonically increasing sequence number so
    that equal ``(time, kind)`` pairs pop in insertion order; this makes
    whole simulations reproducible bit-for-bit under a fixed seed.
    """

    _heap: list[tuple[float, int, int, Event]] = field(default_factory=list)
    _counter: "itertools.count[int]" = field(
        default_factory=lambda: itertools.count()
    )

    def push(self, event: Event) -> None:
        """Insert an event. Times must be finite and non-negative."""
        if not (event.time >= 0.0 and event.time == event.time):
            raise ValueError(f"event time must be finite and >= 0: {event}")
        seq = next(self._counter)
        heapq.heappush(self._heap, (event.time, int(event.kind), seq, event))

    def pop(self) -> Event:
        """Remove and return the earliest event.

        Raises
        ------
        IndexError
            If the queue is empty.
        """
        return heapq.heappop(self._heap)[3]

    def peek(self) -> Optional[Event]:
        """Return the earliest event without removing it, or ``None``."""
        return self._heap[0][3] if self._heap else None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest event, or ``None`` if empty."""
        return self._heap[0][0] if self._heap else None

    def pop_until(self, time: float) -> list[Event]:
        """Pop every event with ``event.time <= time``, in order."""
        out: list[Event] = []
        while self._heap and self._heap[0][0] <= time:
            out.append(self.pop())
        return out

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
