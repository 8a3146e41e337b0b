"""Event calendar for the discrete event simulator.

The simulator advances time only at *events* (paper §3.1): job arrivals
and job completions, plus — with a disruption trace attached — node
failures/repairs and maintenance drains. Events at the same timestamp
fire in a pinned kind order (see :class:`EventKind`): capacity is
released before it is removed, disruptions strike before same-instant
arrivals see the cluster, and ties beyond that break by insertion
sequence, giving a fully deterministic replay.
"""

from __future__ import annotations

import enum
import heapq
import math
from typing import Iterable, Optional


class EventKind(enum.IntEnum):
    """Kinds of simulator events; the integer value is the tie-break
    priority at equal timestamps (lower fires first).

    The order encodes the same-instant semantics the disruption
    subsystem depends on: completions and capacity *restorations*
    (repair — single-node then domain-level — and drain end) apply
    first, then capacity *removals* (single-node failure, then
    domain-level correlated failure, then drain start), then
    announcements, and arrivals always observe the fully-disrupted
    cluster. In particular failure-before-arrival is pinned: a job
    arriving at the exact instant a node (or a whole rack) dies queues
    against the shrunken cluster, and a domain failure striking at the
    instant a single node is restored sees that node back in service.

    For events carrying a job (COMPLETION/ARRIVAL) the payload is the
    job's workload index; for disruption events it indexes the failure,
    domain-failure, or drain entry of the simulator's
    :class:`~repro.sim.disruptions.DisruptionTrace`.
    """

    #: A running job finished; its resources are released.
    COMPLETION = 0
    #: A failed node comes back; capacity is restored.
    NODE_REPAIR = 1
    #: A correlated (rack/switch) failure's node block comes back.
    DOMAIN_REPAIR = 2
    #: A maintenance drain ends; drained nodes return to service.
    DRAIN_END = 3
    #: A node dies; its job (if any) is killed and capacity shrinks.
    NODE_FAILURE = 4
    #: A whole failure domain's node block dies at one instant; every
    #: job on it is killed in pinned (first-slot) order.
    DOMAIN_FAILURE = 5
    #: A maintenance drain begins; nodes leave service (killing
    #: running jobs if the cluster is too full to drain idle ones).
    DRAIN_START = 6
    #: A future drain is announced; recovery-aware schedulers may react.
    DRAIN_ANNOUNCE = 7
    #: A job entered the waiting queue.
    ARRIVAL = 8


class ArrayCalendar:
    """Event calendar of one run: a sorted static list and a heap.

    Ordering contract: events pop in ascending ``(time, kind, seq)``
    order, where ``kind`` is the :class:`EventKind` value and ``seq``
    the global insertion order (the constructor's events in the order
    given, then every :meth:`push`, in call order). Each event is one
    plain ``(time, kind, seq, payload)`` tuple, kept in one of two
    lists:

    * the **static** list holds every event known before the run starts
      (arrivals, failures/repairs, drains), passed to the constructor,
      sorted there once and consumed by advancing a cursor;
    * the **heap** receives events discovered mid-run (job
      completions); its sequence numbers continue after the static
      ones, so cross-list ties replay the global insertion order.

    ``seq`` is unique, so two events never compare equal and a payload
    is never compared. The engine consumes the calendar through
    :meth:`peek_time` and :meth:`pop_due`, which return plain
    ``(time, kind_value, payload)`` triples.
    """

    __slots__ = ("_static", "_n_static", "_cursor", "_heap", "_next_seq")

    def __init__(self, static: Iterable[tuple[float, EventKind, int]]) -> None:
        """*static*: the pre-run ``(time, kind, payload)`` events, in
        insertion order — of two events at equal ``(time, kind)`` the
        one given first pops first."""
        events = [
            (_event_time(time), int(kind), seq, int(payload))
            for seq, (time, kind, payload) in enumerate(static)
        ]
        events.sort()
        self._static = events
        self._n_static = self._next_seq = len(events)
        self._cursor = 0
        self._heap: list[tuple[float, int, int, int]] = []

    def push(self, time: float, kind: EventKind, payload: int) -> None:
        """Insert a mid-run event."""
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(
            self._heap, (_event_time(time), int(kind), seq, int(payload))
        )

    def peek_time(self) -> Optional[float]:
        """Time of the earliest event, or ``None`` if empty."""
        heap = self._heap
        i = self._cursor
        if i < self._n_static:
            s = self._static[i][0]
            if heap and heap[0][0] < s:
                return heap[0][0]
            return s
        return heap[0][0] if heap else None

    def pop_due(self, time: float) -> Optional[tuple[float, int, int]]:
        """Pop and return the earliest ``(time, kind, payload)`` with
        ``event time <= time``, or ``None`` if there is none
        (``pop_due(math.inf)`` pops whatever is earliest).

        The engine's event drain runs this once per event plus one
        ``None`` return per step, so a peek and a pop are one call.
        """
        heap = self._heap
        i = self._cursor
        if i < self._n_static:
            s = self._static[i]
            if not heap or s < heap[0]:
                if s[0] > time:
                    return None
                self._cursor = i + 1
                return s[0], s[1], s[3]
        elif not heap:
            return None
        d = heap[0]
        if d[0] > time:
            return None
        heapq.heappop(heap)
        return d[0], d[1], d[3]

    def __len__(self) -> int:
        return (self._n_static - self._cursor) + len(self._heap)


def _event_time(time: float) -> float:
    """*time* as a float, or ``ValueError`` unless it is finite and
    >= 0 (the chained comparison is false for NaN too)."""
    time = float(time)
    if not 0.0 <= time < math.inf:
        raise ValueError(f"event time must be finite and >= 0: {time!r}")
    return time
