"""Structure-of-arrays simulator core.

This is the flat-array rebuild of :meth:`HPCSimulator.run`'s hot
loop. Job lifecycle state lives in flat preallocated arrays
indexed by workload position, the event stream is an
:class:`~repro.sim.events.ArrayCalendar` (a static event list sorted
once plus a heap of mid-run completions, all plain tuples), and the
running-set indexes (walltime expiry, next completion) are plain lists
of ``(key, seq, item)`` tuples kept in order by :mod:`bisect`, so every
insert and removal is one C-level search and one C-level shift. Queue
membership is a state code array; the queue itself is maintained, never
re-derived: the queued workload positions sit in queue order in one
``array('q')``, appended to on enqueue and deleted from on start, so a
snapshot is a plain copy of it over the run's (never mutated) job list.
Every enqueue appends, so queue order is enqueue order: a start off the
head finds its position by bisect on each job's enqueue number, not by
a scan that compares every position.

**Byte-identity is the contract.** Every observable of a run — job
records, decision stream, preemption records, view contents handed to
schedulers — is bit-for-bit identical to the object engine's:
:class:`EngineState` is a translation that changes data layout, never
semantics or float arithmetic. ``tests/test_soa_regression.py`` pins
this on seeded scenarios including disrupted, correlated and
walltime-enforced workloads; the digest suites from earlier PRs run
through this engine by default, pinning it transitively to digests
generated before it existed.

:class:`~repro.sim.simulator.SystemView` (and ``Job``/``RunningJob`` at
the API boundary) stay untouched facades: schedulers, disruption
generators, and metrics modules cannot tell the engines apart. What the
layout buys on top of the object loop:

* no ``Event`` allocation or heap traffic for the (large, static)
  arrival + disruption schedule — popped off one sorted list by cursor;
* O(1) next-completion lookup per view instead of an O(running) scan;
* the queue snapshot is a copy of the queued positions, taken only
  when the queue actually changes and shared by every view of that
  queue state; the ``queued`` tuple (and its id index) is built from it
  on first read only — ``fcfs`` and the columnar kernels read the
  length and single positions off the copy and never build it;
* a view is a copy of one per-run template dict (the fields that
  never move during a run, filled once) with the fields that do move
  written over it, installed as the view's instance dict;
* a view's :class:`~repro.sim.columns.ViewColumns` are built on the
  first ``columns()`` call, by a policy that asks for them; policies
  that never do (``fcfs``, the agent) pay nothing for them;
* a decision is recorded at plain-object cost: the validator returns
  the violations tuple itself and the record is written through its
  instance dict;
* a killed job is not in the queue, so its requeue is a plain append;
* views are freed by reference count: a view owns its columns, which
  refer back weakly, so a dropped view and its queue snapshot never
  wait for the cyclic collector.
"""

from __future__ import annotations

import dataclasses
import math
from array import array
from bisect import bisect_left, insort
from functools import cache, partial
from typing import TYPE_CHECKING, Optional

from repro.sim.actions import Action, ActionKind
from repro.sim.columns import JobColumns, QueueColumns
from repro.sim.constraints import ConstraintChecker
from repro.sim.disruptions import PreemptionRecord
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

#: Job lifecycle codes for the flat state array: an arrival queues a
#: pending job, a start runs it, a kill queues it again and its
#: completion ends it.
_PENDING, _QUEUED, _RUNNING, _COMPLETED = 0, 1, 2, 3

#: ``SystemView`` field layout the per-run view template is derived
#: from (init fields in declaration order, then the three lazy caches;
#: see :func:`_view_template`). Guarded at import so a field added to
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
        "SystemView fields changed; update _view_template and "
        "EngineState.build_view to match"
    )
if tuple(f.name for f in dataclasses.fields(DecisionRecord)) != (
    "time", "action", "accepted", "violations", "retry_index", "meta",
):
    raise AssertionError(
        "DecisionRecord fields changed; update EngineState.ask's fast "
        "constructor to match"
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


def _view_template(cluster) -> dict:
    """The instance dict every view of one run is copied from.

    One key per :data:`_VIEW_FIELDS` entry, in that order, except that
    ``queued`` is carried as ``queue``, the view's queue snapshot (a
    view builds ``queued`` off it on first read). It holds the run's
    constants, and ``None`` / ``()`` for the fields
    :meth:`EngineState.build_view` writes only when they are set; it
    writes every other field over each copy. It never holds engine
    state, so no copy of it aliases anything the engine mutates.
    """
    fields = dict.fromkeys(
        "queue" if name == "queued" else name for name in _VIEW_FIELDS
    )
    fields.update(
        total_nodes=cluster.total_nodes,
        total_memory_gb=cluster.total_memory_gb,
        upcoming_drains=(),
        topology=cluster.topology,
        domain_free_nodes=(),
    )
    return fields


def _static_calendar(jobs, trace) -> ArrayCalendar:
    """The calendar of one run: one ARRIVAL per job in workload order
    (payload = workload index), then the disruption schedule.

    The events are listed in the object engine's push order exactly,
    so the sequence numbers — the tie-break of last resort — are
    identical. Every run builds its own.
    """
    arrival = EventKind.ARRIVAL
    events = [(job.submit_time, arrival, i) for i, job in enumerate(jobs)]
    if trace is not None:
        for idx, failure in enumerate(trace.failures):
            events.append((failure.time, EventKind.NODE_FAILURE, idx))
            events.append((failure.repair_time, EventKind.NODE_REPAIR, idx))
        for idx, shock in enumerate(trace.domain_failures):
            events.append((shock.time, EventKind.DOMAIN_FAILURE, idx))
            events.append((shock.repair_time, EventKind.DOMAIN_REPAIR, idx))
        for idx, drain in enumerate(trace.drains):
            if drain.announce_time < drain.start:
                events.append(
                    (drain.announce_time, EventKind.DRAIN_ANNOUNCE, idx)
                )
            events.append((drain.start, EventKind.DRAIN_START, idx))
            events.append((drain.end, EventKind.DRAIN_END, idx))
    return ArrayCalendar(events)


class EngineState:
    """Everything one run mutates, and the phases that mutate it.

    :meth:`step` advances one time instant: :meth:`apply_events` (one
    handler per :class:`~repro.sim.events.EventKind`), the decision
    loop, the closing Stop query, then the termination checks and the
    clock. :meth:`ask` is the only place a scheduler is queried,
    validated and recorded. The cached
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
        "state", "queue_pos", "enq_seq", "n_enqueued", "n_queued",
        "size_counts", "queue_floor", "pending_arrivals", "completed_ids",
        "queued_map",
        # running set and its sorted indexes
        "running", "run_info", "wt_index", "wt_runs", "end_index",
        "place_seq",
        # disruption bookkeeping
        "remaining", "preemptions", "pending_restart", "effective_failures",
        "domain_offline", "failed_down_nodes", "domain_kills", "n_kills",
        "last_announce",
        # decision control and result lists
        "stopped", "final_stop_asked", "decision_budget", "records",
        "decisions",
        # snapshots and what they are built from
        "_view", "_prev_view", "_view_template", "_running_snap",
        "_queue_snap", "_completed_log", "masters",
        # static per-run cluster facts, off the per-decision path
        "has_domains", "drains",
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

        # One lifecycle code per workload position, in a bytearray: each
        # scalar read or write is a plain Python int (no numpy boxing).
        self.state = bytearray(n_jobs)  # zero-filled == _PENDING
        # The live queue, in queue order (arrival order, requeues at
        # the tail): workload positions, kept by _enqueue and start —
        # as are each job's latest enqueue number (ascending along the
        # queue: start's bisect key), the queued jobs per distinct node
        # request and the smallest one.
        self.queue_pos = array("q")
        self.enq_seq = array("q", bytes(8 * n_jobs))
        self.n_enqueued = 0
        self.n_queued = 0
        self.size_counts: dict[int, int] = {}
        self.queue_floor: float = math.inf
        self.pending_arrivals = n_jobs
        self.completed_ids: list[int] = []
        self.queued_map = _QueueMap(self.idx_of, self.state, jobs)

        self.running: dict[int, RunningJob] = {}
        #: job_id -> (placement seq, walltime key, expected end) of the
        #: current attempt, for the drop path and stale completions.
        self.run_info: dict[int, tuple[int, float, float]] = {}
        #: ``(start + walltime, seq, run)`` and ``(expected_end, seq,
        #: job_id)`` rows in (unique) ``(key, seq)`` order; ``wt_runs``
        #: is the runs of ``wt_index``, edited at the same positions.
        self.wt_index: list[tuple[float, int, RunningJob]] = []
        self.wt_runs: list[RunningJob] = []
        self.end_index: list[tuple[float, int, int]] = []
        self.place_seq = 0

        self.remaining: dict[int, float] = {}
        self.preemptions: list[PreemptionRecord] = []
        self.pending_restart: dict[int, int] = {}
        self.effective_failures: set[int] = set()
        self.domain_offline: dict[int, list[int]] = {}
        self.failed_down_nodes: set[int] = set()
        self.domain_kills: dict[str, int] = {}
        self.n_kills = {"failure": 0, "drain": 0}
        self.last_announce = -math.inf

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
        self._view_template = _view_template(cluster)
        #: (running jobs in placement order, in walltime-expiry order)
        self._running_snap: Optional[tuple[tuple, tuple]] = None
        #: The queue snapshot every view of this queue state shares: the
        #: one source of its ``queued`` tuple and of its columns, so the
        #: two can never disagree about what is queued.
        self._queue_snap: Optional[QueueColumns] = None
        # One CompletedLog per completion, not per view: the log is
        # append-only, so equal length means identical snapshot.
        self._completed_log = CompletedLog(self.completed_ids)
        #: Per-run master columns, built once on first columnar access
        #: and shared by every queue projection of the run.
        self.masters = cache(partial(JobColumns, jobs))

        self.has_domains = not cluster.topology.is_flat
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
        self.queue_pos.append(i)
        seq = self.n_enqueued
        self.enq_seq[i] = seq
        self.n_enqueued = seq + 1
        nodes = self.jobs[i].nodes
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
        # FCFS-shaped policies start the head; anything else is found
        # by bisect, since enqueue numbers ascend along the queue.
        enq_seq = self.enq_seq
        at = 0 if queue_pos[0] == i else bisect_left(
            queue_pos, enq_seq[i], key=enq_seq.__getitem__
        )
        del queue_pos[at]
        job = self.jobs[i]
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
        wt_index = self.wt_index
        at = bisect_left(wt_index, (wt_key, seq))
        wt_index.insert(at, (wt_key, seq, run))
        self.wt_runs.insert(at, run)
        expected_end = start + runtime
        insort(self.end_index, (expected_end, seq, job_id))
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
        # (key, seq) sorts just before the one row that carries it.
        wt_index, end_index = self.wt_index, self.end_index
        at = bisect_left(wt_index, (wt_key, seq))
        del wt_index[at]
        del self.wt_runs[at]
        del end_index[bisect_left(end_index, (end_key, seq))]
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
        if sim.max_decisions is None:
            self.decision_budget += 8
        run = self._drop(job_id)
        elapsed = time - run.start_time
        prior = self.remaining.get(job_id, run.job.duration)
        if sim.restart_policy == "resubmit":
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

    def _on_arrival(self, i: int, time: float) -> None:
        self.pending_arrivals -= 1
        self._enqueue(i)

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
        taken = 0
        while taken < target:
            if cluster.drain_take_idle(tag):
                taken += 1
                continue
            victim = cluster.drain_victim()
            if victim is None:
                break  # nothing left to take; partial drain
            self.kill(victim, drain.start, "drain")

    def _on_drain_end(self, idx: int, time: float) -> None:
        self.cluster.drain_release(f"drain:{idx}")

    def _on_drain_announce(self, idx: int, time: float) -> None:
        self.last_announce = time

    # -- the view ------------------------------------------------------
    def _snapshot_queue(self) -> QueueColumns:
        """The queue as of now: a copy of the queued positions over the
        run's job list, which nothing mutates, so a view kept across a
        later queue change still shows the queue of its own instant."""
        return QueueColumns(
            self.jobs, self.masters, self.queue_pos[:], self.queue_floor
        )

    def build_view(self) -> SystemView:
        """The scheduler's view of this instant (cached until the
        running set, the queue or the clock moves)."""
        if self._view is not None:
            return self._view
        cluster = self.cluster
        jobs = self.jobs
        pending_arrivals = self.pending_arrivals
        queue_snap = self._queue_snap
        reused_queue = queue_snap is not None
        if not reused_queue:
            queue_snap = self._queue_snap = self._snapshot_queue()
        running_snap = self._running_snap
        if running_snap is None:
            running_snap = self._running_snap = (
                tuple(self.running.values()),
                tuple(self.wt_runs),
            )
        now = self.now
        # Fast construction: the run's template, copied, with the
        # fields that move written over it, becomes the instance dict —
        # no frozen dataclass __init__ (17 guarded object.__setattr__
        # calls per decision point). The layout is pinned against the
        # dataclass by the import-time _VIEW_FIELDS check. The template
        # leaves "queued" out and "_columns" empty: the view builds
        # both on first use.
        fields = self._view_template.copy()
        fields["now"] = now
        fields["queue"] = queue_snap
        fields["running"], fields["_running_sorted"] = running_snap
        fields["completed_ids"] = self._completed_log
        fields["free_nodes"] = cluster.free_nodes
        fields["free_memory_gb"] = cluster.free_memory_gb
        fields["pending_arrivals"] = pending_arrivals
        if pending_arrivals:
            fields["next_arrival_time"] = (
                jobs[len(jobs) - pending_arrivals].submit_time
            )
        if self.end_index:
            fields["next_completion_time"] = self.end_index[0][0]
        fields["nodes_offline"] = cluster.offline_nodes
        if self.drains:
            fields["upcoming_drains"] = tuple(
                d for d in self.drains if d.announce_time <= now < d.end
            )
        # Shared, not copied: see _own_remaining.
        fields["remaining_runtimes"] = self.remaining or _NO_REMAINING
        if self.has_domains:
            fields["domain_free_nodes"] = cluster.domain_free_nodes()
        # Unchanged queue (the previous view shares queue_snap): carry
        # its lazily-built id index forward so optimizer-style
        # schedulers don't rebuild an O(queue) dict at every decision
        # point of a stable backlog.
        prev = self._prev_view
        if (
            reused_queue
            and prev is not None
            and prev._queued_index is not None
        ):
            fields["_queued_index"] = prev._queued_index
        view = SystemView.__new__(SystemView)
        object.__setattr__(view, "__dict__", fields)
        self._view = self._prev_view = view
        return view

    # -- decisions -----------------------------------------------------
    def ask(
        self, view: SystemView, retry_index: int = 0, closing: bool = False
    ) -> Optional[Action]:
        """Query the scheduler once, validate and record its answer;
        return the action if it was accepted, else ``None``.

        The *closing* Stop query does not feed a rejection back to the
        scheduler.
        """
        scheduler = self.scheduler
        action = scheduler.decide(view)
        # The view is this instant's: its all_jobs_scheduled, from the
        # counters it was built from, without reading its queue.
        violations = self.checker.validate(
            action,
            queued=self.queued_map,
            cluster=self.cluster,
            all_scheduled=not (self.n_queued or self.pending_arrivals),
        )
        # Fast construction (cf. the view fast path), pinned by the
        # import-time DecisionRecord field check. Key by key, in field
        # order: the instance dict stays a key-sharing table, where a
        # bulk update() would give every kept record its own key table
        # (~200 B more each).
        record = DecisionRecord.__new__(DecisionRecord)
        fields = record.__dict__
        fields["time"] = self.now
        fields["action"] = action
        fields["accepted"] = not violations
        fields["violations"] = violations
        fields["retry_index"] = retry_index
        fields["meta"] = dict(scheduler.decision_meta())
        self.decisions.append(record)
        if not violations:
            return action
        if not closing:
            scheduler.on_rejection(action, violations, view)
        return None

    def apply_action(self, action: Action) -> None:
        """Carry out an accepted action (Delay changes nothing)."""
        kind = action.kind
        if kind is ActionKind.STOP:
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

        if self.n_queued and not self.stopped:
            self._decision_loop()

        # Closing-Stop query for narrate-stop agents.
        if (
            not self.n_queued
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
            if trace.domain_failures:
                result.extras["domain_events"] = len(trace.domain_failures)
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
