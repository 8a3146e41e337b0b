"""Structure-of-arrays simulator core.

This is the flat-array rebuild of :meth:`HPCSimulator.run`'s hot loop —
the same treatment ``ResourceProfile`` received in the incremental
packing kernel. Job lifecycle state lives in flat preallocated arrays
indexed by workload position, the event stream is an
:class:`~repro.sim.events.ArrayCalendar` (pre-sorted static lane +
primitive-tuple completion lane, no per-event objects), and the
running-set indexes (walltime expiry, next completion) are flat sorted
arrays with in-place shift maintenance. Queue membership is a state
code array plus an order array with vectorized purge/compaction, so
requeue bookkeeping after kills is a masked copy instead of a Python
list rebuild.

**Byte-identity is the contract.** Every observable of a run — job
records, decision stream, preemption records, view contents handed to
schedulers — is bit-for-bit identical to the object engine's: the loop
below is a line-by-line translation that changes data layout, never
semantics or float arithmetic. ``tests/test_soa_regression.py`` pins
this on seeded scenarios including disrupted, correlated, windowed,
walltime-enforced, and dependency workloads; the digest suites from
earlier PRs run through this engine by default, pinning it transitively
to digests generated before it existed.

:class:`~repro.sim.simulator.SystemView` (and ``Job``/``RunningJob`` at
the API boundary) stay untouched facades: schedulers, disruption
generators, and metrics modules cannot tell the engines apart. What the
layout buys on top of the object loop:

* no ``Event`` allocation or heap traffic for the (large, static)
  arrival + disruption schedule — popped off sorted arrays by cursor;
* O(1) next-completion lookup per view instead of an O(running) scan;
* the queued-jobs tuple (and its id index) is cached across decision
  points and rebuilt only when the queue actually changes — completions
  and time advances on a deep backlog no longer pay O(queue) each;
* kills purge/requeue through masked array ops.
"""

from __future__ import annotations

import dataclasses
import math
from array import array
from bisect import bisect_left
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.sim.actions import ActionKind
from repro.sim.columns import JobColumns, QueueColumns, ViewColumns
from repro.sim.constraints import ConstraintChecker
from repro.sim.disruptions import DrainWindow, PreemptionRecord
from repro.sim.events import ArrayCalendar, EventKind
from repro.sim.schedule import DecisionRecord, JobRecord, ScheduleResult
from repro.sim.simulator import (
    _NO_REMAINING,
    CompletedLog,
    RunningJob,
    SimulationError,
    SystemView,
)
from repro.sim.topology import ClusterTopology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.simulator import HPCSimulator

#: Job lifecycle codes for the flat state array.
_PENDING, _QUEUED, _RUNNING, _COMPLETED, _BLOCKED = 0, 1, 2, 3, 4

#: ``SystemView`` field layout the fast view constructor in
#: :func:`run_soa` writes directly (init fields in declaration order,
#: then the three lazy caches). Guarded at import so a field added to
#: the dataclass cannot silently desynchronize the hot path.
_VIEW_FIELDS = (
    "now",
    "queued",
    "running",
    "completed_ids",
    "free_nodes",
    "free_memory_gb",
    "total_nodes",
    "total_memory_gb",
    "pending_arrivals",
    "next_arrival_time",
    "next_completion_time",
    "blocked_jobs",
    "nodes_offline",
    "upcoming_drains",
    "remaining_runtimes",
    "topology",
    "domain_free_nodes",
    "_queued_index",
    "_running_sorted",
    "_columns",
)
if tuple(f.name for f in dataclasses.fields(SystemView)) != _VIEW_FIELDS:
    raise AssertionError(
        "SystemView fields changed; update run_soa's fast view "
        "constructor to match"
    )
if tuple(f.name for f in dataclasses.fields(RunningJob)) != (
    "job",
    "start_time",
    "runtime",
):
    raise AssertionError(
        "RunningJob fields changed; update run_soa's fast constructor "
        "in start_running to match"
    )


class QueueChurnCrossover:
    """Adaptive scalar/vector crossover for queue-snapshot rebuilds.

    ``build_view`` filters the order array down to live queue entries
    either with a Python loop (cheap on short, mostly-live scans) or a
    vectorized mask (cheap on long or stale-heavy scans). The old fixed
    64-entry crossover priced only *length*; under bursty churn — kills
    and requeues leaving many stale placed ids between compactions —
    the scalar loop wastes Python-level work on entries numpy would
    mask in bulk, so the crossover should drop.

    This helper tracks an EWMA of the observed stale fraction per
    rebuild and lowers the threshold linearly from :data:`BASE`
    (all-live queues, the old constant) to :data:`FLOOR` (fully stale
    scans). Both paths produce identical snapshots and apply the same
    compaction rule, so the tuning affects constant factors only —
    never an observable.
    """

    BASE = 64
    FLOOR = 16
    #: EWMA smoothing: one burst moves the threshold a quarter of the
    #: way; sustained churn converges within a handful of rebuilds.
    ALPHA = 0.25

    __slots__ = ("threshold", "_stale_ewma")

    def __init__(self) -> None:
        self.threshold: float = float(self.BASE)
        self._stale_ewma = 0.0

    def observe(self, scanned: int, live: int) -> None:
        """Record one rebuild that scanned *scanned* order entries and
        found *live* of them queued; retune the threshold."""
        if scanned <= 0:
            return
        stale = 1.0 - live / scanned
        self._stale_ewma += self.ALPHA * (stale - self._stale_ewma)
        self.threshold = self.BASE - (self.BASE - self.FLOOR) * self._stale_ewma


class _SortedIndex:
    """Flat-array sorted multiset of ``(key, seq) -> id`` rows.

    The running-set indexes (walltime-expiry order, expected-end order)
    are maintained with bisect + in-place slice shifts over
    preallocated primitive arrays (``array('d')``/``array('q')``) —
    the ``ResourceProfile`` treatment, minus numpy: the running set is
    small, element access is always scalar, and stdlib arrays hand back
    plain Python floats/ints with none of the numpy boxing cost that
    dominated the first cut of this index. ``seq`` (the monotone
    placement counter) breaks key ties exactly like the object engine's
    stable tuples.
    """

    __slots__ = ("_keys", "_seqs", "_ids", "_n")

    def __init__(self, capacity: int = 64) -> None:
        self._keys = array("d", bytes(8 * capacity))
        self._seqs = array("q", bytes(8 * capacity))
        self._ids = array("q", bytes(8 * capacity))
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def _grow(self) -> None:
        for name in ("_keys", "_seqs", "_ids"):
            old = getattr(self, name)
            old.frombytes(bytes(old.itemsize * len(old)))

    def _position(self, key: float, seq: int) -> int:
        n = self._n
        keys = self._keys
        pos = bisect_left(keys, key, 0, n)
        while pos < n and keys[pos] == key and self._seqs[pos] < seq:
            pos += 1
        return pos

    def insert(self, key: float, seq: int, ident: int) -> None:
        if self._n == len(self._keys):
            self._grow()
        pos, n = self._position(key, seq), self._n
        if pos != n:
            self._keys[pos + 1 : n + 1] = self._keys[pos:n]
            self._seqs[pos + 1 : n + 1] = self._seqs[pos:n]
            self._ids[pos + 1 : n + 1] = self._ids[pos:n]
        self._keys[pos] = key
        self._seqs[pos] = seq
        self._ids[pos] = ident
        self._n = n + 1

    def remove(self, key: float, seq: int) -> None:
        pos, n = self._position(key, seq), self._n
        if pos != n - 1:
            self._keys[pos : n - 1] = self._keys[pos + 1 : n]
            self._seqs[pos : n - 1] = self._seqs[pos + 1 : n]
            self._ids[pos : n - 1] = self._ids[pos + 1 : n]
        self._n = n - 1

    def min_key(self) -> float:
        return self._keys[0]

    def ids(self) -> list[int]:
        """Row ids in sorted (key, seq) order."""
        return self._ids[: self._n].tolist()


class _QueueMap:
    """Read-only dict facade over the flat queue state, for
    :class:`~repro.sim.constraints.ConstraintChecker` (which only ever
    calls ``.get``/``in``/``len``)."""

    __slots__ = ("_get", "_len")

    def __init__(self, get, length) -> None:
        self._get = get
        self._len = length

    def get(self, key, default=None):
        return self._get(key, default)

    def __contains__(self, key) -> bool:
        return self._get(key, None) is not None

    def __len__(self) -> int:
        return self._len()

    def __bool__(self) -> bool:
        return self._len() > 0


def run_soa(
    sim: "HPCSimulator",
    calendar: Optional[ArrayCalendar] = None,
) -> ScheduleResult:
    """Execute *sim* on the structure-of-arrays core.

    Semantically a line-by-line translation of the object engine
    (:func:`repro.sim._object_ref.run_object`); see the module
    docstring for what may differ (data layout) and what must not
    (everything observable).

    *calendar*, when given, must be a sealed, unconsumed
    :class:`~repro.sim.events.ArrayCalendar` holding exactly the
    static events this function would otherwise build — one ARRIVAL
    per job in workload order (payload = workload index), then the
    disruption events. The service's session engine maintains such a
    calendar incrementally (streamed arrivals appended to the sealed
    lane) and passes a fork per replay; because the extend path
    assigns sequence numbers exactly like a batch build, the run is
    byte-identical to one over a calendar built here.
    """
    checker = ConstraintChecker()
    scheduler = sim.scheduler
    cluster = sim.cluster
    jobs = sim.jobs
    n_jobs = len(jobs)
    idx_of = {job.job_id: i for i, job in enumerate(jobs)}

    # -- flat job-state array -------------------------------------------
    # One lifecycle code per workload position. A bytearray, not a
    # numpy array: every hot access is a scalar read/write (plain
    # Python ints, no numpy boxing), while the vectorized paths go
    # through a zero-copy int8 view of the same buffer.
    state = bytearray(n_jobs)  # zero-filled == _PENDING
    state_np = np.frombuffer(state, dtype=np.int8)

    # -- event calendar -------------------------------------------------
    # Static adds replay the object engine's push order exactly, so the
    # sequence numbers — the tie-break of last resort — are identical.
    trace = sim.disruptions if sim.disruptions else None
    disrupted = trace is not None
    if calendar is not None:
        expected = n_jobs
        if trace is not None:
            expected += 2 * len(trace.failures)
            expected += 2 * len(trace.domain_failures)
            for drain in trace.drains:
                expected += 3 if drain.announce_time < drain.start else 2
        if len(calendar) != expected:
            raise ValueError(
                f"prebuilt calendar holds {len(calendar)} pending "
                f"event(s); this simulation needs exactly {expected} "
                "(one ARRIVAL per job plus the disruption schedule)"
            )
        cal = calendar
    else:
        cal = ArrayCalendar()
        for i, job in enumerate(jobs):
            cal.add_static(job.submit_time, EventKind.ARRIVAL, i)
        if trace is not None:
            for idx, failure in enumerate(trace.failures):
                cal.add_static(failure.time, EventKind.NODE_FAILURE, idx)
                cal.add_static(
                    failure.repair_time, EventKind.NODE_REPAIR, idx
                )
            for idx, shock in enumerate(trace.domain_failures):
                cal.add_static(shock.time, EventKind.DOMAIN_FAILURE, idx)
                cal.add_static(shock.repair_time, EventKind.DOMAIN_REPAIR, idx)
            for idx, drain in enumerate(trace.drains):
                if drain.announce_time < drain.start:
                    cal.add_static(
                        drain.announce_time, EventKind.DRAIN_ANNOUNCE, idx
                    )
                cal.add_static(drain.start, EventKind.DRAIN_START, idx)
                cal.add_static(drain.end, EventKind.DRAIN_END, idx)
        cal.seal()

    # Hoisted event-kind codes (popped events carry plain ints).
    K_COMPLETION = int(EventKind.COMPLETION)
    K_NODE_FAILURE = int(EventKind.NODE_FAILURE)
    K_NODE_REPAIR = int(EventKind.NODE_REPAIR)
    K_DOMAIN_FAILURE = int(EventKind.DOMAIN_FAILURE)
    K_DOMAIN_REPAIR = int(EventKind.DOMAIN_REPAIR)
    K_DRAIN_START = int(EventKind.DRAIN_START)
    K_DRAIN_END = int(EventKind.DRAIN_END)
    K_ARRIVAL = int(EventKind.ARRIVAL)

    # -- queue (order array + state codes) ------------------------------
    order = np.empty(max(n_jobs, 16), dtype=np.int64)
    order_len = 0
    n_queued = 0
    n_blocked = 0

    running_objs: dict[int, RunningJob] = {}
    records: list[JobRecord] = []
    decisions: list[DecisionRecord] = []
    pending_arrivals = n_jobs
    completed_ids: list[int] = []
    completed_set: set[int] = set()
    dependents: dict[int, list[int]] = {}
    for job in jobs:
        for dep in job.depends_on:
            dependents.setdefault(dep, []).append(job.job_id)
    stopped = False
    final_stop_asked = False
    decision_budget = (
        sim.max_decisions
        if sim.max_decisions is not None
        else 200 * n_jobs
        + 1000
        + 20 * (trace.n_events if trace is not None else 0)
    )

    # -- disruption bookkeeping (sparse: plain dicts/sets) --------------
    remaining: dict[int, float] = {}
    preemptions: list[PreemptionRecord] = []
    pending_restart: dict[int, int] = {}
    effective_failures: set[int] = set()
    domain_offline: dict[int, list[int]] = {}
    failed_down_nodes: set[int] = set()
    domain_kills: dict[str, int] = {}
    last_announce = -math.inf
    n_kills = {"failure": 0, "drain": 0, "preempt": 0}
    announce_pending = False

    # -- running-set sorted indexes (flat arrays) -----------------------
    wt_index = _SortedIndex()  # (start + walltime, seq) -> job_id
    end_index = _SortedIndex()  # (expected_end, seq) -> job_id
    place_seq = 0
    #: job_id -> (placement seq, walltime key, expected end) of the
    #: current attempt; keeps the drop path and the stale-completion
    #: check off the RunningJob property chain.
    run_info: dict[int, tuple[int, float, float]] = {}

    # -- snapshots (copy-on-write, invalidated independently) -----------
    view_cache: Optional[SystemView] = None
    prev_view: Optional[SystemView] = None
    running_snapshot: Optional[tuple[RunningJob, ...]] = None
    running_sorted_snapshot: Optional[tuple[RunningJob, ...]] = None
    queued_snapshot: Optional[tuple] = None

    # -- columnar projection (shares the queued_snapshot cadence) -------
    #: Per-run master columns, built once on first columnar access; the
    #: selector-based queue projection over them is invalidated exactly
    #: where queued_snapshot is, so facade tuple and columns can never
    #: disagree about what is queued.
    job_columns: Optional[JobColumns] = None

    def get_masters() -> JobColumns:
        nonlocal job_columns
        if job_columns is None:
            job_columns = JobColumns(jobs)
        return job_columns

    queue_cols: Optional[QueueColumns] = None
    crossover = QueueChurnCrossover()

    # Static per-run cluster facts, hoisted off the per-decision path.
    topo: Optional[ClusterTopology] = getattr(cluster, "topology", None)
    has_domains = topo is not None and not topo.is_flat
    has_drain_windows = trace is not None and bool(trace.drains)
    has_offline_attr = hasattr(cluster, "offline_nodes")

    # One CompletedLog per completion-log length, not per view: the
    # log is append-only, so equal length means identical snapshot.
    completed_log = CompletedLog(completed_ids)

    if hasattr(cluster, "reset"):
        cluster.reset()
    scheduler.reset()

    now = 0.0
    if jobs:
        now = min(now, jobs[0].submit_time)

    def deps_met(job) -> bool:
        return all(dep in completed_set for dep in job.depends_on)

    def queued_get(job_id, default=None):
        i = idx_of.get(job_id)
        if i is None or state[i] != _QUEUED:
            return default
        return jobs[i]

    queued_map = _QueueMap(queued_get, lambda: n_queued)

    def q_append(i: int) -> None:
        nonlocal order, order_len
        if order_len == order.size:
            grown = np.empty(order.size * 2, dtype=np.int64)
            grown[:order_len] = order[:order_len]
            order = grown
        order[order_len] = i
        order_len += 1

    def invalidate_view() -> None:
        nonlocal view_cache
        view_cache = None

    def enqueue(i: int) -> None:
        nonlocal n_queued, queued_snapshot, queue_cols
        state[i] = _QUEUED
        n_queued += 1
        q_append(i)
        queued_snapshot = None
        queue_cols = None

    def start_running(i: int, start: float) -> None:
        """Allocate job index *i* and schedule its completion."""
        nonlocal place_seq
        nonlocal view_cache, running_snapshot, running_sorted_snapshot
        view_cache = None
        running_snapshot = None
        running_sorted_snapshot = None
        job = jobs[i]
        cluster.allocate(job)
        full = remaining.get(job.job_id, job.duration)
        runtime = min(full, job.walltime) if sim.enforce_walltime else full
        # Fast construction (cf. the view fast path): runtime is always
        # resolved here, so the frozen __init__ + __post_init__ dance
        # is three guarded setattrs for nothing.
        run = RunningJob.__new__(RunningJob)
        run.__dict__.update(
            {"job": job, "start_time": start, "runtime": runtime}
        )
        running_objs[job.job_id] = run
        wt_key = start + job.walltime
        wt_index.insert(wt_key, place_seq, job.job_id)
        expected_end = start + runtime
        end_index.insert(expected_end, place_seq, job.job_id)
        run_info[job.job_id] = (place_seq, wt_key, expected_end)
        place_seq += 1
        if job.job_id in pending_restart:
            preemptions[pending_restart.pop(job.job_id)].restart_time = start
        cal.push(expected_end, EventKind.COMPLETION, i)

    def drop_running(job_id: int) -> RunningJob:
        """Remove a job from the running set and both sorted indexes."""
        nonlocal view_cache, running_snapshot, running_sorted_snapshot
        view_cache = None
        running_snapshot = None
        running_sorted_snapshot = None
        run = running_objs.pop(job_id)
        seq, wt_key, end_key = run_info.pop(job_id)
        wt_index.remove(wt_key, seq)
        end_index.remove(end_key, seq)
        cluster.release(job_id)
        return run

    def kill_running(
        job_id: int,
        time: float,
        reason: str,
        domain: Optional[str] = None,
    ) -> None:
        """Evict a running job and requeue it under the restart policy
        (see the object engine for the full semantics — identical)."""
        nonlocal stopped, final_stop_asked, decision_budget
        nonlocal order_len, n_queued, queued_snapshot
        if sim.max_decisions is None and reason != "preempt":
            decision_budget += 8
        run = drop_running(job_id)
        elapsed = time - run.start_time
        prior = remaining.get(job_id, run.job.duration)
        if reason == "preempt":
            saved = elapsed
        elif sim.restart_policy == "resubmit":
            saved = 0.0
        else:  # checkpoint / preempt_migrate
            interval = sim.checkpoint_interval
            saved = (
                math.floor(elapsed / interval) * interval if interval else 0.0
            )
            if (
                sim.restart_policy == "preempt_migrate"
                and last_announce >= run.start_time
            ):
                saved = max(saved, last_announce - run.start_time)
            saved = min(saved, elapsed)
        remaining[job_id] = prior - saved
        i = idx_of[job_id]
        # Vectorized purge of the job's stale order entry (placed ids
        # linger until compaction; a duplicate would show the requeued
        # job twice in every view's queue).
        live = order[:order_len]
        keep = live != i
        if not keep.all():
            kept = live[keep]
            order[: kept.size] = kept
            order_len = int(kept.size)
        enqueue(i)
        stopped = False
        final_stop_asked = False
        n_kills[reason] += 1
        if domain is not None:
            domain_kills[domain] = domain_kills.get(domain, 0) + 1
        pending_restart[job_id] = len(preemptions)
        preemptions.append(
            PreemptionRecord(
                job_id=job_id,
                nodes=run.job.nodes,
                start_time=run.start_time,
                time=time,
                reason=reason,
                work_saved=saved,
                work_lost=elapsed - saved,
                domain=domain,
            )
        )
        # The killed attempt's COMPLETION event stays in the calendar;
        # the completion handler drops it as stale (mismatched
        # expected end).

    def apply_drain_start(idx: int) -> None:
        drain = trace.drains[idx]
        tag = f"drain:{idx}"
        within: Optional[range] = None
        topo = getattr(cluster, "topology", None)
        if drain.domain is not None and topo is not None:
            within = topo.domain_range(drain.domain)
        taken = 0
        target = min(drain.nodes, cluster.total_nodes)
        if within is not None:
            target = min(target, len(within))
        while taken < target:
            if cluster.drain_take_idle(tag, within):
                taken += 1
                continue
            victim = cluster.drain_victim(within)
            if victim is None:
                break  # nothing left to take; partial drain
            kill_running(victim, drain.start, "drain", drain.domain)
        invalidate_view()

    pop_due = cal.pop_due

    def process_events_at(time: float) -> None:
        nonlocal pending_arrivals, last_announce, announce_pending
        nonlocal n_queued, n_blocked, queued_snapshot, view_cache
        while True:
            event = pop_due(time)
            if event is None:
                return
            event_time, kind, payload = event
            view_cache = None
            if kind == K_COMPLETION:
                job = jobs[payload]
                job_id = job.job_id
                run = running_objs.get(job_id)
                if run is None or run_info[job_id][2] != event_time:
                    # Stale: this attempt was killed by a
                    # failure/drain/preemption.
                    continue
                drop_running(job_id)
                state[payload] = _COMPLETED
                full = remaining.pop(job_id, job.duration)
                records.append(
                    JobRecord(
                        job,
                        run.start_time,
                        event_time,
                        killed=run.runtime < full,
                    )
                )
                completed_ids.append(job_id)
                completed_set.add(job_id)
                for dep_id in dependents.get(job_id, ()):
                    j = idx_of[dep_id]
                    if state[j] == _BLOCKED and deps_met(jobs[j]):
                        n_blocked -= 1
                        enqueue(j)
            elif kind == K_ARRIVAL:
                pending_arrivals -= 1
                if deps_met(jobs[payload]):
                    enqueue(payload)
                else:
                    state[payload] = _BLOCKED
                    n_blocked += 1
            elif kind == K_NODE_FAILURE:
                failure = trace.failures[payload]
                if failure.node not in failed_down_nodes:
                    victim = cluster.slot_victim(failure.node)
                    if victim is not None:
                        kill_running(victim, event_time, "failure")
                    if cluster.mark_failed(failure.node):
                        effective_failures.add(payload)
                        failed_down_nodes.add(failure.node)
            elif kind == K_NODE_REPAIR:
                if payload in effective_failures:
                    effective_failures.discard(payload)
                    node = trace.failures[payload].node
                    failed_down_nodes.discard(node)
                    cluster.mark_repaired(node)
            elif kind == K_DOMAIN_FAILURE:
                shock = trace.domain_failures[payload]
                fresh = [
                    node
                    for node in shock.nodes
                    if node not in failed_down_nodes
                ]
                victims: list[int] = []
                seen_victims: set[int] = set()
                for node in fresh:
                    victim = cluster.slot_victim(node)
                    if victim is not None and victim not in seen_victims:
                        seen_victims.add(victim)
                        victims.append(victim)
                for victim in victims:
                    kill_running(victim, event_time, "failure", shock.domain)
                taken = [
                    node for node in fresh if cluster.mark_failed(node)
                ]
                if taken:
                    domain_offline[payload] = taken
                    failed_down_nodes.update(taken)
            elif kind == K_DOMAIN_REPAIR:
                for node in domain_offline.pop(payload, ()):
                    failed_down_nodes.discard(node)
                    cluster.mark_repaired(node)
            elif kind == K_DRAIN_START:
                apply_drain_start(payload)
            elif kind == K_DRAIN_END:
                cluster.drain_release(f"drain:{payload}")
            else:  # DRAIN_ANNOUNCE
                last_announce = event_time
                announce_pending = True

    def build_view() -> SystemView:
        nonlocal view_cache, prev_view, running_snapshot
        nonlocal running_sorted_snapshot, queued_snapshot, order_len
        nonlocal queue_cols, completed_log
        if view_cache is not None:
            return view_cache
        next_arrival: Optional[float] = None
        next_completion: Optional[float] = None
        if pending_arrivals:
            # Same float the submit array holds; skipping the numpy
            # round-trip matters at one call per decision point.
            next_arrival = jobs[n_jobs - pending_arrivals].submit_time
        if running_objs:
            next_completion = end_index.min_key()
        reused_queue = queued_snapshot is not None
        if not reused_queue:
            if order_len <= crossover.threshold:
                # Scalar path: on a short queue (the steady-state
                # regime) vectorized masking costs more in numpy
                # dispatch than it saves. The crossover adapts to the
                # observed churn rate (see QueueChurnCrossover).
                live_l = [
                    i
                    for i in order[:order_len].tolist()
                    if state[i] == _QUEUED
                ]
                crossover.observe(order_len, len(live_l))
                if order_len > 2 * len(live_l) + 8:
                    order[: len(live_l)] = live_l
                    order_len = len(live_l)
                queued_snapshot = tuple(map(jobs.__getitem__, live_l))
                queue_cols = QueueColumns(
                    get_masters, live_l, len(live_l)
                )
            else:
                live = order[:order_len]
                live = live[state_np[live] == _QUEUED]
                crossover.observe(order_len, live.size)
                if order_len > 2 * live.size + 8:
                    order[: live.size] = live
                    order_len = int(live.size)
                queued_snapshot = tuple(map(jobs.__getitem__, live.tolist()))
                # `live` is a fresh boolean-index copy, never a view of
                # the order array — safe to hold as the selector.
                queue_cols = QueueColumns(get_masters, live, int(live.size))
        if running_snapshot is None:
            running_snapshot = tuple(running_objs.values())
            running_sorted_snapshot = tuple(
                map(running_objs.__getitem__, wt_index.ids())
            )
        drains: tuple[DrainWindow, ...] = ()
        if has_drain_windows:
            drains = tuple(
                d for d in trace.drains if d.announce_time <= now < d.end
            )
        domain_free: tuple[int, ...] = ()
        if has_domains:
            domain_free = tuple(cluster.domain_free_nodes())
        # Fast construction: write the instance dict directly instead
        # of going through the frozen dataclass __init__ (17 guarded
        # object.__setattr__ calls per decision point). The field
        # layout is pinned against the dataclass by the import-time
        # _VIEW_FIELDS check.
        if len(completed_log) != len(completed_ids):
            completed_log = CompletedLog(completed_ids)
        view = SystemView.__new__(SystemView)
        view.__dict__.update({
            "now": now,
            "queued": queued_snapshot,
            "running": running_snapshot,
            "completed_ids": completed_log,
            "free_nodes": cluster.free_nodes,
            "free_memory_gb": cluster.free_memory_gb,
            "total_nodes": cluster.total_nodes,
            "total_memory_gb": cluster.total_memory_gb,
            "pending_arrivals": pending_arrivals,
            "next_arrival_time": next_arrival,
            "next_completion_time": next_completion,
            "blocked_jobs": n_blocked,
            "nodes_offline": (
                cluster.offline_nodes if has_offline_attr else 0
            ),
            "upcoming_drains": drains,
            "remaining_runtimes": (
                dict(remaining) if remaining else _NO_REMAINING
            ),
            "topology": topo,
            "domain_free_nodes": domain_free,
            "_queued_index": None,
            "_running_sorted": running_sorted_snapshot,
            # Zero-copy columnar projection: shared masters, selector
            # gathered at most once per queue change.
            "_columns": None,
        })
        if queue_cols is not None:
            view.__dict__["_columns"] = ViewColumns(queue_cols, view)
        view_cache = view
        # Unchanged queue: carry the previous view's lazily-built id
        # index forward so optimizer-style schedulers don't rebuild an
        # O(queue) dict at every decision point of a stable backlog.
        if (
            reused_queue
            and prev_view is not None
            and prev_view.queued is queued_snapshot
            and prev_view._queued_index is not None
        ):
            view.__dict__["_queued_index"] = prev_view._queued_index
        prev_view = view_cache
        return view_cache

    while True:
        process_events_at(now)

        # Announce-time reactive decision (see the object engine).
        if (
            announce_pending
            and running_objs
            and not n_queued
            and not stopped
            and len(decisions) < decision_budget
        ):
            view = build_view()
            action = scheduler.decide(view)
            result = checker.validate(
                action,
                queued=queued_map,
                cluster=cluster,
                all_scheduled=view.all_jobs_scheduled,
                running=running_objs,
            )
            decisions.append(
                DecisionRecord(
                    time=now,
                    action=action,
                    accepted=result.ok,
                    violations=result.violations,
                    meta=dict(scheduler.decision_meta()),
                )
            )
            if not result.ok:
                scheduler.on_rejection(action, result.violations, view)
            elif action.kind is ActionKind.PREEMPT:
                kill_running(action.job_id, now, "preempt")  # type: ignore[arg-type]
            elif action.kind is ActionKind.STOP:
                stopped = True
        announce_pending = False

        # Decision phase: keep querying while jobs are queued and the
        # scheduler keeps placing them (within the same timestep).
        retries = 0
        while n_queued and not stopped:
            if len(decisions) >= decision_budget:
                raise SimulationError(
                    f"decision budget exhausted ({decision_budget}); "
                    f"scheduler {scheduler.name!r} appears stuck"
                )
            view = build_view()
            action = scheduler.decide(view)
            result = checker.validate(
                action,
                queued=queued_map,
                cluster=cluster,
                all_scheduled=view.all_jobs_scheduled,
                running=running_objs,
            )
            meta = dict(scheduler.decision_meta())
            decisions.append(
                DecisionRecord(
                    time=now,
                    action=action,
                    accepted=result.ok,
                    violations=result.violations,
                    retry_index=retries,
                    meta=meta,
                )
            )
            if not result.ok:
                scheduler.on_rejection(action, result.violations, view)
                retries += 1
                if retries > sim.max_retries:
                    break  # force a delay
                continue

            retries = 0
            if action.kind is ActionKind.DELAY:
                break
            if action.kind is ActionKind.STOP:
                stopped = True
                break
            if action.kind is ActionKind.PREEMPT:
                kill_running(action.job_id, now, "preempt")  # type: ignore[arg-type]
                continue
            # StartJob / BackfillJob
            i = idx_of[action.job_id]  # type: ignore[index]
            state[i] = _RUNNING
            n_queued -= 1
            queued_snapshot = None
            queue_cols = None
            start_running(i, now)  # invalidates the view cache

        # Closing-Stop query for narrate-stop agents.
        if (
            not n_queued
            and not n_blocked
            and pending_arrivals == 0
            and not stopped
            and not final_stop_asked
            and getattr(scheduler, "emits_stop", False)
        ):
            final_stop_asked = True
            view = build_view()
            action = scheduler.decide(view)
            result = checker.validate(
                action,
                queued=queued_map,
                cluster=cluster,
                all_scheduled=True,
            )
            decisions.append(
                DecisionRecord(
                    time=now,
                    action=action,
                    accepted=result.ok,
                    violations=result.violations,
                    meta=dict(scheduler.decision_meta()),
                )
            )
            if result.ok and action.kind is ActionKind.STOP:
                stopped = True

        # Termination / time advance.
        if (
            not n_queued
            and not running_objs
            and not n_blocked
            and pending_arrivals == 0
        ):
            break
        if (
            n_blocked
            and not n_queued
            and not running_objs
            and pending_arrivals == 0
        ):
            raise SimulationError(
                f"{n_blocked} jobs blocked on dependencies with "
                "nothing running — dependency graph is inconsistent"
            )
        if stopped and not running_objs and pending_arrivals == 0 and n_queued:
            raise SimulationError("stopped with jobs still queued")
        next_time = cal.peek_time()
        if next_time is None:
            if n_queued and not stopped:
                raise SimulationError(
                    f"deadlock at t={now}: {n_queued} jobs queued, "
                    "no running jobs, no pending arrivals, and the "
                    f"scheduler {scheduler.name!r} keeps delaying"
                )
            break
        if next_time > now:
            view_cache = None  # views carry `now`
            now = next_time

    result = ScheduleResult(
        records=records,
        decisions=decisions,
        total_nodes=cluster.total_nodes,
        total_memory_gb=cluster.total_memory_gb,
        scheduler_name=scheduler.name,
        preemptions=preemptions,
        disrupted=disrupted,
    )
    if disrupted:
        result.extras["disruption_kills"] = dict(n_kills)
        n_domain_events = len(trace.domain_failures) + sum(
            1 for d in trace.drains if d.domain is not None
        )
        if n_domain_events:
            result.extras["domain_events"] = n_domain_events
            result.extras["domain_kills"] = dict(sorted(domain_kills.items()))
    collect = getattr(scheduler, "collect_extras", None)
    if collect is not None:
        result.extras.update(collect())
    return result
