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
from typing import Iterable, Optional

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
    :meth:`push` and :meth:`extend_static` event, in call order). The
    representation avoids per-event object churn entirely:

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
        "_last_popped",
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
        #: (time, kind, seq) of the most recently popped event; the
        #: floor :meth:`extend_static` enforces so a streamed append
        #: can never rewrite the already-consumed past.
        self._last_popped: Optional[tuple[float, int, int]] = None

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
        """Freeze the static lane: sort it into flat arrays. Dynamic
        pushes are accepted before and after sealing; static adds only
        before."""
        if self._sealed:
            raise RuntimeError("calendar already sealed")
        self._sealed = True
        n = len(self._pending)
        self._n_static = n
        self._next_seq = n
        times = np.empty(n, dtype=np.float64)
        kinds = np.empty(n, dtype=np.int64)
        payloads = np.empty(n, dtype=np.int64)
        for i, (t, k, p) in enumerate(self._pending):
            times[i] = t
            kinds[i] = k
            payloads[i] = p
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

    def extend_static(
        self, events: Iterable[tuple[float, EventKind, int]]
    ) -> None:
        """Merge a batch of pre-run events into an already-**sealed**
        static lane — the streaming-arrival append path.

        Sequence numbers continue from the global counter in iteration
        order, exactly as if the events had been ``add_static``-ed
        before :meth:`seal` after everything already present; a
        calendar grown by any sequence of extends therefore pops the
        identical ``(time, kind, payload)`` stream as one built in a
        single batch, which is what pins a served session's replay
        byte-identical to a batch run. The unconsumed suffix is
        re-merged with one lexsort (O((m+k) log(m+k)) for m remaining
        + k new events) instead of rebuilding the whole lane.

        Raises ``RuntimeError`` before sealing, and ``ValueError`` if a
        new event would sort before an event that already popped — the
        consumed past is immutable.
        """
        if not self._sealed:
            raise RuntimeError("seal() the static lane before extending")
        batch: list[tuple[float, int, int, int]] = []
        floor = self._last_popped
        for time, kind, payload in events:
            self._check_time(time)
            key = (float(time), int(kind))
            if floor is not None and key < floor[:2]:
                raise ValueError(
                    f"cannot extend into the consumed past: event at "
                    f"t={time!r} kind={int(kind)} sorts before the last "
                    f"popped event (t={floor[0]!r} kind={floor[1]})"
                )
            seq = self._next_seq
            self._next_seq = seq + 1
            batch.append((key[0], key[1], seq, int(payload)))
        if not batch:
            return
        m = self._n_static - self._cursor
        k = len(batch)
        times = np.empty(m + k, dtype=np.float64)
        kinds = np.empty(m + k, dtype=np.int64)
        seqs = np.empty(m + k, dtype=np.int64)
        times[:m] = self._times[self._cursor:self._n_static]
        kinds[:m] = self._kinds[self._cursor:self._n_static]
        seqs[:m] = self._seqs[self._cursor:self._n_static]
        payloads = self._payloads[self._cursor:self._n_static]
        for j, (t, kd, sq, p) in enumerate(batch):
            times[m + j] = t
            kinds[m + j] = kd
            seqs[m + j] = sq
            payloads.append(p)
        # Full (time, kind, seq) order: new seqs are globally larger,
        # so ties at equal (time, kind) keep existing events first —
        # the same order one pre-seal build would have produced.
        order = np.lexsort((seqs, kinds, times))
        self._times = times[order]
        self._kinds = kinds[order]
        self._seqs = seqs[order]
        self._payloads = [payloads[i] for i in order.tolist()]
        self._cursor = 0
        self._n_static = m + k
        self._head = None

    def fork(self) -> "ArrayCalendar":
        """Independent copy of a sealed calendar.

        The service's session engine holds one incrementally-extended
        calendar per session and hands a fork to each replay —
        :func:`~repro.sim.engine.run_soa` consumes its calendar
        (cursor advances, completions land in the dynamic lane), so
        the pristine original must survive for the next query.
        """
        if not self._sealed:
            raise RuntimeError("seal() the static lane before forking")
        clone = ArrayCalendar.__new__(ArrayCalendar)
        clone._pending = []
        clone._sealed = True
        clone._heap = list(self._heap)
        clone._cursor = self._cursor
        clone._n_static = self._n_static
        clone._next_seq = self._next_seq
        clone._head = self._head
        clone._last_popped = self._last_popped
        clone._times = self._times.copy()
        clone._kinds = self._kinds.copy()
        clone._payloads = list(self._payloads)
        clone._seqs = self._seqs.copy()
        return clone

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
                self._last_popped = (d[0], d[1], d[2])
                return (d[0], d[1], d[3])
        if s is None or s[0] > time:
            return None
        i = self._cursor
        self._cursor = i + 1
        self._head = None
        self._last_popped = s
        return (s[0], s[1], self._payloads[i])

    def __len__(self) -> int:
        return (self._n_static - self._cursor) + len(self._heap)
