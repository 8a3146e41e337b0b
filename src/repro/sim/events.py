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
from typing import Optional

import numpy as np


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
    """Array-backed event calendar for the structure-of-arrays engine.

    Ordering contract: events pop in ascending ``(time, kind, seq)``
    order, where ``kind`` is the :class:`EventKind` value and ``seq``
    the global insertion order (every :meth:`add_static`, then every
    :meth:`push`, in call order). One calendar serves one run: the
    engine builds it, seals it and consumes it. The representation
    avoids per-event object churn entirely:

    * The **static lane** holds every event known before the run starts
      (arrivals, failures/repairs, drains). It is built once from the
      exact push sequence the object engine uses, sorted into flat
      preallocated numpy arrays, and consumed by advancing a cursor —
      zero allocation per pop, O(n log n) once instead of O(n log n)
      heap churn spread over the run.
    * The **dynamic lane** receives events discovered mid-run (job
      completions). It is a primitive-tuple min-heap whose sequence
      numbers continue after the static lane's, so cross-lane ties
      replay the global insertion order exactly.

    The engine consumes it through :meth:`peek_time` and
    :meth:`pop_due`, which return plain ``(time, kind_value, payload)``
    triples.
    """

    __slots__ = (
        "_times",
        "_kinds",
        "_payloads",
        "_seqs",
        "_cursor",
        "_n_static",
        "_heap",
        "_next_seq",
        "_sealed",
        "_pending",
        "_head",
    )

    def __init__(self) -> None:
        self._pending: list[tuple[float, int, int]] = []
        self._sealed = False
        self._heap: list[tuple[float, int, int, int]] = []
        self._cursor = 0
        self._n_static = 0
        self._next_seq = 0
        #: Cached (time, kind, seq) of the static head as plain Python
        #: scalars — peek_time and pop_due both need it, so converting numpy
        #: scalars once per cursor position (not per call) keeps the
        #: per-event constant factor below the object queue's.
        self._head: Optional[tuple[float, int, int]] = None

    @staticmethod
    def _check_time(time: float) -> None:
        if not (time >= 0.0 and time == time):
            raise ValueError(
                f"event time must be finite and >= 0: {time!r}"
            )

    def add_static(self, time: float, kind: EventKind, payload: int) -> None:
        """Append one pre-run event. Call order defines the sequence
        numbers, the tie-break of last resort: of two events at equal
        ``(time, kind)`` the one added first pops first."""
        if self._sealed:
            raise RuntimeError("calendar already sealed")
        self._check_time(time)
        self._pending.append((float(time), int(kind), int(payload)))

    def seal(self) -> None:
        """Freeze the static lane: sort it into flat arrays. Static
        adds are accepted only before sealing, dynamic pushes only
        after."""
        if self._sealed:
            raise RuntimeError("calendar already sealed")
        self._sealed = True
        pending = self._pending
        n = len(pending)
        self._n_static = n
        self._next_seq = n
        times = np.array([e[0] for e in pending], dtype=np.float64)
        kinds = np.array([e[1] for e in pending], dtype=np.int64)
        payloads = np.array([e[2] for e in pending], dtype=np.int64)
        self._pending = []
        # Stable sort by (time, kind); seq (the original index) breaks
        # the remaining ties by construction of lexsort's stability.
        order = np.lexsort((kinds, times))
        self._times = times[order]
        self._kinds = kinds[order]
        # Payloads are consumed one scalar at a time in the hot loop —
        # a plain list hands back ready-made Python ints.
        self._payloads = payloads[order].tolist()
        self._seqs = order.astype(np.int64)

    def push(self, time: float, kind: EventKind, payload: int) -> None:
        """Insert a dynamic (mid-run) event."""
        if not self._sealed:
            raise RuntimeError("seal() the static lane before pushing")
        self._check_time(time)
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap, (float(time), int(kind), seq, int(payload)))

    def _static_key(self) -> Optional[tuple[float, int, int]]:
        head = self._head
        if head is None:
            i = self._cursor
            if i >= self._n_static:
                return None
            head = self._head = (
                float(self._times[i]),
                int(self._kinds[i]),
                int(self._seqs[i]),
            )
        return head

    def peek_time(self) -> Optional[float]:
        """Time of the earliest event, or ``None`` if empty."""
        s = self._static_key()
        if self._heap:
            d = self._heap[0]
            if s is None or (d[0], d[1], d[2]) < s:
                return d[0]
        if s is None:
            return None
        return s[0]

    def pop_due(self, time: float) -> Optional[tuple[float, int, int]]:
        """Pop and return the earliest ``(time, kind, payload)`` with
        ``event time <= time``, or ``None`` if there is none
        (``pop_due(math.inf)`` pops whatever is earliest).

        The engine's event drain runs this once per event plus one
        ``None`` return per step: one fused call, because a separate
        peek and pop cost three ``_static_key`` resolutions per event,
        which is measurable at one step per simulated event.
        """
        s = self._static_key()
        if self._heap:
            d = self._heap[0]
            if s is None or (d[0], d[1], d[2]) < s:
                if d[0] > time:
                    return None
                heapq.heappop(self._heap)
                return (d[0], d[1], d[3])
        if s is None or s[0] > time:
            return None
        i = self._cursor
        self._cursor = i + 1
        self._head = None
        return (s[0], s[1], self._payloads[i])

    def __len__(self) -> int:
        return (self._n_static - self._cursor) + len(self._heap)
