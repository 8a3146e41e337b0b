"""Structure-of-arrays simulator core.

This is the flat-array rebuild of :meth:`HPCSimulator.run`'s hot
loop. Job lifecycle state lives in flat preallocated arrays
indexed by workload position, the event stream is an
:class:`~repro.sim.events.ArrayCalendar` (pre-sorted static lane +
primitive-tuple completion lane, no per-event objects), and the
running-set indexes (walltime expiry, next completion) are flat sorted
arrays with in-place shift maintenance. Queue membership is a state
code array; the queue itself is maintained, never re-derived: the
queued workload positions and their ``Job`` objects sit side by side
in queue order, appended to on enqueue and deleted from on start, so a
snapshot is a plain copy of both.

**Byte-identity is the contract.** Every observable of a run — job
records, decision stream, preemption records, view contents handed to
schedulers — is bit-for-bit identical to the object engine's:
:class:`EngineState` is a translation that changes data layout, never
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
  points and re-copied only when the queue actually changes — completions
  and time advances on a deep backlog no longer pay O(queue) each;
* a killed job is not in the queue, so its requeue is a plain append;
* views are freed by reference count: a view owns its
  :class:`~repro.sim.columns.ViewColumns`, which refer back weakly, so
  a dropped view and its queue snapshot never wait for the cyclic
  collector.
"""

from __future__ import annotations

import dataclasses
import math
from array import array
from bisect import bisect_left
from functools import cache, partial
from typing import TYPE_CHECKING, Optional

from repro.sim.actions import Action, ActionKind
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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.simulator import HPCSimulator

#: Job lifecycle codes for the flat state array.
_PENDING, _QUEUED, _RUNNING, _COMPLETED, _BLOCKED = 0, 1, 2, 3, 4

#: ``SystemView`` field layout :meth:`EngineState.build_view`'s fast
#: constructor writes directly (init fields in declaration order,
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
        "SystemView fields changed; update EngineState.build_view's "
        "fast constructor to match"
    )
if tuple(f.name for f in dataclasses.fields(RunningJob)) != (
    "job",
    "start_time",
    "runtime",
):
    raise AssertionError(
        "RunningJob fields changed; update the fast constructor in "
        "EngineState.start to match"
    )


class _SortedIndex:
    """Flat-array sorted multiset of ``(key, seq) -> id`` rows.

    The running-set indexes (walltime-expiry order, expected-end order)
    are maintained with bisect + in-place slice shifts over
    preallocated primitive arrays (``array('d')``/``array('q')``),
    not numpy — the same finding as ``ResourceProfile``'s list-backed
    timeline: the running set is small, element access is always
    scalar, and stdlib arrays hand back plain Python floats/ints with
    none of the numpy boxing cost that dominated the first cut of this
    index. ``seq`` (the monotone placement counter) breaks key ties
    exactly like the object engine's stable tuples.
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
    calls ``.get``)."""

    __slots__ = ("_idx_of", "_state", "_jobs")

    def __init__(self, idx_of, state, jobs) -> None:
        self._idx_of = idx_of
        self._state = state
        self._jobs = jobs

    def get(self, job_id, default=None):
        i = self._idx_of.get(job_id)
        if i is None or self._state[i] != _QUEUED:
            return default
        return self._jobs[i]


def _static_calendar(jobs, trace) -> ArrayCalendar:
    """The sealed calendar of one run: one ARRIVAL per job in workload
    order (payload = workload index), then the disruption schedule.

    Static adds replay the object engine's push order exactly, so the
    sequence numbers — the tie-break of last resort — are identical.
    Every run builds its own; nothing else constructs one.
    """
    cal = ArrayCalendar()
    for i, job in enumerate(jobs):
        cal.add_static(job.submit_time, EventKind.ARRIVAL, i)
    if trace is not None:
        for idx, failure in enumerate(trace.failures):
            cal.add_static(failure.time, EventKind.NODE_FAILURE, idx)
            cal.add_static(failure.repair_time, EventKind.NODE_REPAIR, idx)
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
    return cal


class EngineState:
    """Everything one run mutates, and the phases that mutate it.

    :meth:`step` advances one time instant: :meth:`apply_events` (one
    handler per :class:`~repro.sim.events.EventKind`), the
    announce-time decision, the decision loop, the closing Stop query,
    then the termination checks and the clock. :meth:`ask` is the only
    place a scheduler is queried, validated and recorded. The cached
    running-set and queue snapshots a view is assembled from are
    dropped in exactly two places, :meth:`running_changed` and
    :meth:`queue_changed`; the view itself also dies with its instant.

    Semantically a translation of the object engine
    (``run_object`` in ``tests/object_reference.py``); the module docstring
    says what may differ (data layout) and what must not (everything
    observable). Instances share nothing: all state hangs off ``self``.
    """

    __slots__ = (
        # the run's inputs
        "sim", "scheduler", "cluster", "jobs", "trace", "checker", "idx_of",
        # clock and calendar
        "now", "cal",
        # job lifecycle codes and the queue over them
        "state", "queue_pos", "queue_jobs", "n_queued", "n_blocked",
        "size_counts", "queue_floor",
        "pending_arrivals", "dependents", "completed_ids", "completed_set",
        "queued_map",
        # running set and its sorted indexes
        "running", "run_info", "wt_index", "end_index", "place_seq",
        # disruption bookkeeping
        "remaining", "preemptions", "pending_restart", "effective_failures",
        "domain_offline", "failed_down_nodes", "domain_kills", "n_kills",
        "last_announce", "announce_pending",
        # decision control and result lists
        "stopped", "final_stop_asked", "decision_budget", "records",
        "decisions",
        # snapshots and what they are built from
        "_view", "_prev_view", "_running_snap", "_queue_snap",
        "_completed_log", "masters",
        # static per-run cluster facts, off the per-decision path
        "topo", "has_domains", "drains",
    )

    def __init__(self, sim: "HPCSimulator") -> None:
        jobs = sim.jobs
        n_jobs = len(jobs)
        trace = sim.disruptions if sim.disruptions else None
        self.sim = sim
        self.scheduler = sim.scheduler
        self.cluster = cluster = sim.cluster
        self.jobs = jobs
        self.trace = trace
        self.checker = ConstraintChecker()
        self.idx_of = {job.job_id: i for i, job in enumerate(jobs)}

        self.now = min(0.0, jobs[0].submit_time) if jobs else 0.0
        self.cal = _static_calendar(jobs, trace)

        # One lifecycle code per workload position. A bytearray, not a
        # numpy array: every access is a scalar read/write (plain
        # Python ints, no numpy boxing).
        self.state = bytearray(n_jobs)  # zero-filled == _PENDING
        # The live queue, in queue order (arrival order, requeues at
        # the tail): workload positions and the jobs at them, kept
        # element for element equal by _enqueue and start — as are the
        # queued jobs per distinct node request and the smallest one.
        self.queue_pos = array("q")
        self.queue_jobs: list = []
        self.n_queued = 0
        self.size_counts: dict[int, int] = {}
        self.queue_floor: float = math.inf
        self.n_blocked = 0
        self.pending_arrivals = n_jobs
        self.dependents: dict[int, list[int]] = {}
        for job in jobs:
            for dep in job.depends_on:
                self.dependents.setdefault(dep, []).append(job.job_id)
        self.completed_ids: list[int] = []
        self.completed_set: set[int] = set()
        self.queued_map = _QueueMap(self.idx_of, self.state, jobs)

        self.running: dict[int, RunningJob] = {}
        #: job_id -> (placement seq, walltime key, expected end) of the
        #: current attempt; keeps the drop path and the stale-completion
        #: check off the RunningJob property chain.
        self.run_info: dict[int, tuple[int, float, float]] = {}
        self.wt_index = _SortedIndex()  # (start + walltime, seq) -> job_id
        self.end_index = _SortedIndex()  # (expected_end, seq) -> job_id
        self.place_seq = 0

        self.remaining: dict[int, float] = {}
        self.preemptions: list[PreemptionRecord] = []
        self.pending_restart: dict[int, int] = {}
        self.effective_failures: set[int] = set()
        self.domain_offline: dict[int, list[int]] = {}
        self.failed_down_nodes: set[int] = set()
        self.domain_kills: dict[str, int] = {}
        self.n_kills = {"failure": 0, "drain": 0, "preempt": 0}
        self.last_announce = -math.inf
        self.announce_pending = False

        self.stopped = False
        self.final_stop_asked = False
        self.decision_budget = sim.max_decisions
        if sim.max_decisions is None:
            n_events = trace.n_events if trace is not None else 0
            self.decision_budget = 200 * n_jobs + 1000 + 20 * n_events
        self.records: list[JobRecord] = []
        self.decisions: list[DecisionRecord] = []

        self._view: Optional[SystemView] = None
        self._prev_view: Optional[SystemView] = None
        #: (running jobs in placement order, in walltime-expiry order)
        self._running_snap: Optional[tuple[tuple, tuple]] = None
        #: (queued jobs, their columnar projection): built and dropped
        #: together, so facade tuple and columns can never disagree
        #: about what is queued.
        self._queue_snap: Optional[tuple[tuple, QueueColumns]] = None
        # One CompletedLog per completion, not per view: the log is
        # append-only, so equal length means identical snapshot.
        self._completed_log = CompletedLog(self.completed_ids)
        #: Per-run master columns, built once on first columnar access
        #: and shared by every queue projection of the run.
        self.masters = cache(partial(JobColumns, jobs))

        self.topo = cluster.topology
        self.has_domains = not self.topo.is_flat
        self.drains = trace.drains if trace is not None else ()

        cluster.reset()
        self.scheduler.reset()

    # -- the two invalidation points -----------------------------------
    def running_changed(self) -> None:
        self._view = None
        self._running_snap = None

    def queue_changed(self) -> None:
        self._view = None
        self._queue_snap = None

    # -- queue and running-set transitions -----------------------------
    def _enqueue(self, i: int) -> None:
        self.state[i] = _QUEUED
        self.n_queued += 1
        job = self.jobs[i]
        self.queue_pos.append(i)
        self.queue_jobs.append(job)
        nodes = job.nodes
        counts = self.size_counts
        if nodes in counts:
            counts[nodes] += 1
        else:
            # Only a size not yet queued can lower the floor.
            counts[nodes] = 1
            if nodes < self.queue_floor:
                self.queue_floor = nodes
        self.queue_changed()

    def start(self, i: int) -> None:
        """Take queued job index *i* off the queue, allocate it and
        schedule its completion."""
        self.state[i] = _RUNNING
        self.n_queued -= 1
        queue_pos = self.queue_pos
        # FCFS-shaped policies start the head; anything else costs one
        # C-level search.
        at = 0 if queue_pos[0] == i else queue_pos.index(i)
        del queue_pos[at]
        job = self.queue_jobs.pop(at)
        nodes = job.nodes
        counts = self.size_counts
        left = counts[nodes] - 1
        if left:
            counts[nodes] = left
        else:
            # The last job of this size left: only then can the floor
            # rise, and only over the distinct sizes still queued.
            del counts[nodes]
            if nodes == self.queue_floor:
                self.queue_floor = min(counts) if counts else math.inf
        self.queue_changed()
        self.running_changed()
        job_id = job.job_id
        start = self.now
        self.cluster.allocate(job)
        full = self.remaining.get(job_id, job.duration)
        runtime = full
        if self.sim.enforce_walltime:
            runtime = min(full, job.walltime)
        # Fast construction (cf. the view fast path): runtime is always
        # resolved here, so the frozen __init__ + __post_init__ dance
        # is three guarded setattrs for nothing.
        run = RunningJob.__new__(RunningJob)
        run.__dict__.update(
            {"job": job, "start_time": start, "runtime": runtime}
        )
        self.running[job_id] = run
        seq = self.place_seq
        self.place_seq = seq + 1
        wt_key = start + job.walltime
        self.wt_index.insert(wt_key, seq, job_id)
        expected_end = start + runtime
        self.end_index.insert(expected_end, seq, job_id)
        self.run_info[job_id] = (seq, wt_key, expected_end)
        if job_id in self.pending_restart:
            restarted = self.preemptions[self.pending_restart.pop(job_id)]
            restarted.restart_time = start
        self.cal.push(expected_end, EventKind.COMPLETION, i)

    def _drop(self, job_id: int) -> RunningJob:
        """Remove a job from the running set and both sorted indexes."""
        self.running_changed()
        run = self.running.pop(job_id)
        seq, wt_key, end_key = self.run_info.pop(job_id)
        self.wt_index.remove(wt_key, seq)
        self.end_index.remove(end_key, seq)
        self.cluster.release(job_id)
        return run

    def _own_remaining(self) -> dict[int, float]:
        """``remaining`` for writing. Views share the mapping rather
        than copy it, so the first change after a view took it copies:
        that view keeps the mapping of its own instant. If any view
        holds the current mapping, the latest one does (a non-empty
        mapping goes into every view)."""
        view = self._prev_view
        if view is not None and view.remaining_runtimes is self.remaining:
            self.remaining = dict(self.remaining)
        return self.remaining

    def kill(
        self,
        job_id: int,
        time: float,
        reason: str,
        domain: Optional[str] = None,
    ) -> None:
        """Evict a running job and requeue it under the restart policy
        (see the object engine for the full semantics — identical)."""
        sim = self.sim
        if sim.max_decisions is None and reason != "preempt":
            self.decision_budget += 8
        run = self._drop(job_id)
        elapsed = time - run.start_time
        prior = self.remaining.get(job_id, run.job.duration)
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
                and self.last_announce >= run.start_time
            ):
                saved = max(saved, self.last_announce - run.start_time)
            saved = min(saved, elapsed)
        self._own_remaining()[job_id] = prior - saved
        self._enqueue(self.idx_of[job_id])
        self.stopped = False
        self.final_stop_asked = False
        self.n_kills[reason] += 1
        if domain is not None:
            self.domain_kills[domain] = self.domain_kills.get(domain, 0) + 1
        self.pending_restart[job_id] = len(self.preemptions)
        self.preemptions.append(
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
        # _on_completion drops it as stale (mismatched expected end).

    # -- event handlers, one per EventKind -----------------------------
    def apply_events(self, now: float) -> None:
        """Pop and apply every event due at *now*, in calendar order."""
        pop_due, handlers = self.cal.pop_due, _HANDLERS
        while True:
            event = pop_due(now)
            if event is None:
                return
            time, kind, payload = event
            handlers[kind](self, payload, time)

    def _on_completion(self, i: int, time: float) -> None:
        job = self.jobs[i]
        job_id = job.job_id
        run = self.running.get(job_id)
        if run is None or self.run_info[job_id][2] != time:
            return  # stale: this attempt was killed
        self._drop(job_id)
        self.state[i] = _COMPLETED
        full = job.duration
        if job_id in self.remaining:
            full = self._own_remaining().pop(job_id)
        self.records.append(
            JobRecord(job, run.start_time, time, killed=run.runtime < full)
        )
        self.completed_ids.append(job_id)
        self._completed_log = CompletedLog(self.completed_ids)
        done = self.completed_set
        done.add(job_id)
        for dep_id in self.dependents.get(job_id, ()):
            j = self.idx_of[dep_id]
            waiting = self.jobs[j].depends_on
            if self.state[j] == _BLOCKED and done.issuperset(waiting):
                self.n_blocked -= 1
                self._enqueue(j)

    def _on_arrival(self, i: int, time: float) -> None:
        self.pending_arrivals -= 1
        if self.completed_set.issuperset(self.jobs[i].depends_on):
            self._enqueue(i)
        else:
            self.state[i] = _BLOCKED
            self.n_blocked += 1

    def _on_node_failure(self, idx: int, time: float) -> None:
        node = self.trace.failures[idx].node
        if node in self.failed_down_nodes:
            return
        victim = self.cluster.slot_victim(node)
        if victim is not None:
            self.kill(victim, time, "failure")
        if self.cluster.mark_failed(node):
            self.effective_failures.add(idx)
            self.failed_down_nodes.add(node)

    def _on_node_repair(self, idx: int, time: float) -> None:
        if idx in self.effective_failures:
            self.effective_failures.discard(idx)
            node = self.trace.failures[idx].node
            self.failed_down_nodes.discard(node)
            self.cluster.mark_repaired(node)

    def _on_domain_failure(self, idx: int, time: float) -> None:
        shock = self.trace.domain_failures[idx]
        cluster = self.cluster
        fresh = [
            node for node in shock.nodes if node not in self.failed_down_nodes
        ]
        # dict.fromkeys: each victim once, in first-slot order.
        victims = dict.fromkeys(map(cluster.slot_victim, fresh))
        victims.pop(None, None)
        for victim in victims:
            self.kill(victim, time, "failure", shock.domain)
        taken = [node for node in fresh if cluster.mark_failed(node)]
        if taken:
            self.domain_offline[idx] = taken
            self.failed_down_nodes.update(taken)

    def _on_domain_repair(self, idx: int, time: float) -> None:
        for node in self.domain_offline.pop(idx, ()):
            self.failed_down_nodes.discard(node)
            self.cluster.mark_repaired(node)

    def _on_drain_start(self, idx: int, time: float) -> None:
        drain = self.trace.drains[idx]
        cluster = self.cluster
        tag = f"drain:{idx}"
        target = min(drain.nodes, cluster.total_nodes)
        within: Optional[range] = None
        if drain.domain is not None:
            within = self.topo.domain_range(drain.domain)
            target = min(target, len(within))
        taken = 0
        while taken < target:
            if cluster.drain_take_idle(tag, within):
                taken += 1
                continue
            victim = cluster.drain_victim(within)
            if victim is None:
                break  # nothing left to take; partial drain
            self.kill(victim, drain.start, "drain", drain.domain)

    def _on_drain_end(self, idx: int, time: float) -> None:
        self.cluster.drain_release(f"drain:{idx}")

    def _on_drain_announce(self, idx: int, time: float) -> None:
        self.last_announce = time
        self.announce_pending = True

    # -- the view ------------------------------------------------------
    def _snapshot_queue(self) -> tuple[tuple, QueueColumns]:
        """The queued tuple and its columns, as of now: both are
        copies, so a view kept across a later queue change still shows
        the queue of its own instant."""
        return (
            tuple(self.queue_jobs),
            QueueColumns(
                self.masters, self.queue_pos[:], self.n_queued,
                self.queue_floor,
            ),
        )

    def build_view(self) -> SystemView:
        """The scheduler's view of this instant (cached until the
        running set, the queue or the clock moves)."""
        if self._view is not None:
            return self._view
        cluster = self.cluster
        jobs = self.jobs
        pending_arrivals = self.pending_arrivals
        reused_queue = self._queue_snap is not None
        if not reused_queue:
            self._queue_snap = self._snapshot_queue()
        queued, queue_cols = self._queue_snap
        if self._running_snap is None:
            running = self.running
            self._running_snap = (
                tuple(running.values()),
                tuple(map(running.__getitem__, self.wt_index.ids())),
            )
        running_snap, running_sorted = self._running_snap
        now = self.now
        drains: tuple[DrainWindow, ...] = ()
        if self.drains:
            drains = tuple(
                d for d in self.drains if d.announce_time <= now < d.end
            )
        # Fast construction: write the instance dict directly instead
        # of going through the frozen dataclass __init__ (17 guarded
        # object.__setattr__ calls per decision point). The field
        # layout is pinned against the dataclass by the import-time
        # _VIEW_FIELDS check.
        view = SystemView.__new__(SystemView)
        fields = view.__dict__
        fields.update({
            "now": now,
            "queued": queued,
            "running": running_snap,
            "completed_ids": self._completed_log,
            "free_nodes": cluster.free_nodes,
            "free_memory_gb": cluster.free_memory_gb,
            "total_nodes": cluster.total_nodes,
            "total_memory_gb": cluster.total_memory_gb,
            "pending_arrivals": pending_arrivals,
            "next_arrival_time": (
                jobs[len(jobs) - pending_arrivals].submit_time
                if pending_arrivals
                else None
            ),
            "next_completion_time": (
                self.end_index.min_key() if self.running else None
            ),
            "blocked_jobs": self.n_blocked,
            "nodes_offline": getattr(cluster, "offline_nodes", 0),
            "upcoming_drains": drains,
            # Shared, not copied: see _own_remaining.
            "remaining_runtimes": self.remaining or _NO_REMAINING,
            "topology": self.topo,
            "domain_free_nodes": (
                tuple(cluster.domain_free_nodes()) if self.has_domains else ()
            ),
            "_queued_index": None,
            "_running_sorted": running_sorted,
            # Zero-copy columnar projection: shared masters, selector
            # gathered at most once per queue change.
            "_columns": ViewColumns(queue_cols, view),
        })
        # Unchanged queue: carry the previous view's lazily-built id
        # index forward so optimizer-style schedulers don't rebuild an
        # O(queue) dict at every decision point of a stable backlog.
        prev = self._prev_view
        if (
            reused_queue
            and prev is not None
            and prev.queued is queued
            and prev._queued_index is not None
        ):
            fields["_queued_index"] = prev._queued_index
        self._view = self._prev_view = view
        return view

    # -- decisions -----------------------------------------------------
    def ask(
        self, view: SystemView, retry_index: int = 0, closing: bool = False
    ) -> Optional[Action]:
        """Query the scheduler once, validate and record its answer;
        return the action if it was accepted, else ``None``.

        The *closing* Stop query offers nothing to preempt and does not
        feed a rejection back to the scheduler.
        """
        scheduler = self.scheduler
        action = scheduler.decide(view)
        result = self.checker.validate(
            action,
            queued=self.queued_map,
            cluster=self.cluster,
            all_scheduled=view.all_jobs_scheduled,
            running=None if closing else self.running,
        )
        self.decisions.append(
            DecisionRecord(
                time=self.now,
                action=action,
                accepted=result.ok,
                violations=result.violations,
                retry_index=retry_index,
                meta=dict(scheduler.decision_meta()),
            )
        )
        if result.ok:
            return action
        if not closing:
            scheduler.on_rejection(action, result.violations, view)
        return None

    def apply_action(self, action: Action) -> None:
        """Carry out an accepted action (Delay changes nothing)."""
        kind = action.kind
        if kind is ActionKind.PREEMPT:
            self.kill(action.job_id, self.now, "preempt")  # type: ignore[arg-type]
        elif kind is ActionKind.STOP:
            self.stopped = True
        elif kind is not ActionKind.DELAY:  # StartJob / BackfillJob
            self.start(self.idx_of[action.job_id])  # type: ignore[index]

    def _decision_loop(self) -> None:
        """Keep querying while jobs are queued and the scheduler keeps
        placing them (within the same timestep)."""
        max_retries = self.sim.max_retries
        decisions = self.decisions
        retries = 0
        while self.n_queued and not self.stopped:
            if len(decisions) >= self.decision_budget:
                raise SimulationError(
                    f"decision budget exhausted ({self.decision_budget}); "
                    f"scheduler {self.scheduler.name!r} appears stuck"
                )
            action = self.ask(self.build_view(), retries)
            if action is None:
                retries += 1
                if retries > max_retries:
                    return  # force a delay
            elif action.kind is ActionKind.DELAY:
                return
            else:
                retries = 0
                self.apply_action(action)

    def step(self) -> bool:
        """Advance one time instant; ``False`` once the run is over."""
        self._view = None  # views carry `now`
        self.apply_events(self.now)

        # Announce-time reactive decision (see the object engine).
        if self.announce_pending:
            self.announce_pending = False
            if (
                self.running
                and not self.n_queued
                and not self.stopped
                and len(self.decisions) < self.decision_budget
            ):
                action = self.ask(self.build_view())
                if action is not None:
                    self.apply_action(action)

        if self.n_queued and not self.stopped:
            self._decision_loop()

        # Closing-Stop query for narrate-stop agents.
        if (
            not self.n_queued
            and not self.n_blocked
            and self.pending_arrivals == 0
            and not self.stopped
            and not self.final_stop_asked
            and getattr(self.scheduler, "emits_stop", False)
        ):
            self.final_stop_asked = True
            action = self.ask(self.build_view(), closing=True)
            if action is not None:
                self.apply_action(action)

        return self._advance()

    def _advance(self) -> bool:
        """Termination checks, then move the clock to the next event."""
        n_queued = self.n_queued
        if not self.running and self.pending_arrivals == 0:
            if not n_queued:
                if self.n_blocked:
                    raise SimulationError(
                        f"{self.n_blocked} jobs blocked on dependencies "
                        "with nothing running — dependency graph is "
                        "inconsistent"
                    )
                return False
            if self.stopped:
                raise SimulationError("stopped with jobs still queued")
        next_time = self.cal.peek_time()
        if next_time is None:
            if n_queued and not self.stopped:
                raise SimulationError(
                    f"deadlock at t={self.now}: {n_queued} jobs queued, "
                    "no running jobs, no pending arrivals, and the "
                    f"scheduler {self.scheduler.name!r} keeps delaying"
                )
            return False
        if next_time > self.now:
            self.now = next_time
        return True

    def result(self) -> ScheduleResult:
        """The finished run (call once :meth:`step` returned False)."""
        trace = self.trace
        result = ScheduleResult(
            records=self.records,
            decisions=self.decisions,
            total_nodes=self.cluster.total_nodes,
            total_memory_gb=self.cluster.total_memory_gb,
            scheduler_name=self.scheduler.name,
            preemptions=self.preemptions,
            disrupted=trace is not None,
        )
        if trace is not None:
            result.extras["disruption_kills"] = dict(self.n_kills)
            n_domain_events = len(trace.domain_failures) + sum(
                1 for d in trace.drains if d.domain is not None
            )
            if n_domain_events:
                result.extras["domain_events"] = n_domain_events
                result.extras["domain_kills"] = dict(
                    sorted(self.domain_kills.items())
                )
        collect = getattr(self.scheduler, "collect_extras", None)
        if collect is not None:
            result.extras.update(collect())
        return result


#: Event handlers by ``EventKind`` value (popped events carry plain
#: ints). Plain functions, not bound methods: a state holds no
#: reference to itself.
_HANDLERS = {
    int(kind): getattr(EngineState, f"_on_{kind.name.lower()}")
    for kind in EventKind
}


def run_soa(sim: "HPCSimulator") -> ScheduleResult:
    """Execute *sim* on the structure-of-arrays core."""
    state = EngineState(sim)
    while state.step():
        pass
    return state.result()
