"""The original object-graph event loop — the reference engine.

The flat-array core in :mod:`repro.sim.engine` is the only engine the
package ships. This object loop is the executable specification the
pinned digests were generated against, and it lives with the tests,
outside the installed package: ``tests/conftest.py``'s
``object_engine`` fixture substitutes :func:`run_object` for
``HPCSimulator.run`` so the differential suites can replay it. It is
frozen except for contract-level fixes that must land in both engines,
which is also why it keeps its one long function (the file-level
``ruff: noqa: C901`` below).

Every semantic subtlety below (event push order, stale-completion
checks, decision-budget accounting, lazy queue compaction) is
contractual for both engines; see :mod:`repro.sim.engine`'s module
docstring for the byte-identity statement.
"""

# ruff: noqa: C901

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Optional

from repro.sim.actions import ActionKind
from repro.sim.constraints import ConstraintChecker
from repro.sim.disruptions import DrainWindow, PreemptionRecord
from repro.sim.events import EventKind
from repro.sim.job import Job
from repro.sim.schedule import DecisionRecord, JobRecord, ScheduleResult
from repro.sim.simulator import (
    _NO_REMAINING,
    CompletedLog,
    RunningJob,
    SimulationError,
    SystemView,
)
from repro.sim.topology import ClusterTopology

from tests.event_reference import Event, EventQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.simulator import HPCSimulator


def run_object(sim: "HPCSimulator") -> ScheduleResult:
    """Execute *sim* on the object-graph reference loop.

    Line-for-line the pre-PR-10 ``HPCSimulator._run_object`` method
    body with ``self`` renamed to ``sim`` — the digests pinned against
    that method pin this function transitively.
    """
    checker = ConstraintChecker()
    events = EventQueue()
    jobs_by_id = {j.job_id: j for j in sim.jobs}
    for job in sim.jobs:
        events.push(Event(job.submit_time, EventKind.ARRIVAL, job.job_id))

    # Disruption events. The trace is plain data generated up
    # front, so the event stream is identical for every scheduler
    # and every execution mode. ``job_id`` carries the index into
    # the trace's failure/drain tuples.
    trace = sim.disruptions if sim.disruptions else None
    disrupted = trace is not None
    if trace is not None:
        for idx, failure in enumerate(trace.failures):
            events.push(
                Event(failure.time, EventKind.NODE_FAILURE, idx)
            )
            events.push(
                Event(failure.repair_time, EventKind.NODE_REPAIR, idx)
            )
        for idx, shock in enumerate(trace.domain_failures):
            events.push(
                Event(shock.time, EventKind.DOMAIN_FAILURE, idx)
            )
            events.push(
                Event(shock.repair_time, EventKind.DOMAIN_REPAIR, idx)
            )
        for idx, drain in enumerate(trace.drains):
            if drain.announce_time < drain.start:
                events.push(
                    Event(
                        drain.announce_time,
                        EventKind.DRAIN_ANNOUNCE,
                        idx,
                    )
                )
            events.push(Event(drain.start, EventKind.DRAIN_START, idx))
            events.push(Event(drain.end, EventKind.DRAIN_END, idx))

    queued: dict[int, Job] = {}
    #: Queue in arrival order, requeues at the tail. Placed jobs leave
    #: ``queued`` but their ids linger here until the lazy compaction
    #: below, keeping removal O(1) and iteration amortized O(queue size).
    queue_order: list[int] = []
    #: Submit times in arrival order (``sim.jobs`` is sorted by
    #: (submit_time, job_id)); arrivals pop from the event heap in
    #: exactly this order, so the next un-arrived job's submit time
    #: is ``arrival_times[n_jobs - pending_arrivals]`` — an O(1)
    #: lookup replacing a full scan over every job per decision.
    arrival_times: list[float] = [j.submit_time for j in sim.jobs]
    running: dict[int, RunningJob] = {}
    records: list[JobRecord] = []
    decisions: list[DecisionRecord] = []
    pending_arrivals = len(sim.jobs)
    completed_ids: list[int] = []
    stopped = False
    #: The budget guards against runaway schedulers, but disruption
    #: churn is legitimate work: every event is a decision point
    #: and every kill implies at least one extra placement. The
    #: default scales with the trace (and grows per kill, below);
    #: an explicit ``max_decisions`` stays a hard cap.
    decision_budget = (
        sim.max_decisions
        if sim.max_decisions is not None
        else 200 * len(sim.jobs)
        + 1000
        + 20 * (trace.n_events if trace is not None else 0)
    )

    # -- disruption bookkeeping -------------------------------------
    #: Remaining runtime of killed-and-requeued jobs; absent = full
    #: duration. Entries persist until final completion so views
    #: and restart math agree.
    remaining: dict[int, float] = {}
    preemptions: list[PreemptionRecord] = []
    #: job_id -> index into ``preemptions`` awaiting a restart time.
    pending_restart: dict[int, int] = {}
    #: Failure-trace indices whose capacity was actually taken
    #: (a failure striking an already-offline node is a no-op and
    #: its paired repair must be skipped too).
    effective_failures: set[int] = set()
    #: Domain-failure index -> node indices actually taken offline
    #: by that shock (nodes already down when it struck are skipped,
    #: and must not be double-restored at the paired repair).
    domain_offline: dict[int, list[int]] = {}
    #: Node labels currently down due to a failure (single-node or
    #: domain shock). Node-identity clusters detect re-failing a
    #: down node themselves, but the aggregate pool cannot — its
    #: ``mark_failed`` ignores the index and would take a *fresh*
    #: free node for a label that is already offline. Tracking
    #: labels here makes "failing an already-down node is a no-op"
    #: hold uniformly across cluster models.
    failed_down_nodes: set[int] = set()
    #: Kills attributed to a failure domain label.
    domain_kills: dict[str, int] = {}
    #: Most recent drain announcement (preempt_migrate implicitly
    #: checkpoints every running job at that instant).
    last_announce = -math.inf
    n_kills = {"failure": 0, "drain": 0}

    # -- running-set snapshots (copy-on-write) ----------------------
    # ``view.running`` and the walltime-expiry index change only
    # when a job starts, completes, or is killed — not on arrivals
    # or time advances — so both tuples are cached across view
    # rebuilds and invalidated separately from the view itsim.
    # The expiry index (EASY's reservation traversal order) is
    # maintained incrementally with bisect instead of re-sorted
    # per blocked decision: entries are ``(start + walltime, seq,
    # job_id)`` where ``seq`` is a monotone placement counter, so
    # ties replay insertion order exactly like a stable sort.
    running_snapshot: Optional[tuple[RunningJob, ...]] = None
    running_sorted_snapshot: Optional[tuple[RunningJob, ...]] = None
    walltime_order: list[tuple[float, int, int]] = []
    place_seq = 0
    run_seq: dict[int, int] = {}

    if hasattr(sim.cluster, "reset"):
        sim.cluster.reset()
    sim.scheduler.reset()

    now = 0.0
    if sim.jobs:
        now = min(now, sim.jobs[0].submit_time)

    #: Decision-point snapshot, reused verbatim across rejection
    #: retries (system state cannot change between them) and rebuilt
    #: only after a mutation. ``completed_ids`` shares the
    #: append-only completion log via CompletedLog, so building a
    #: view costs O(queue) — flat in completed-job count, and flat
    #: in running-job count while the running set is unchanged.
    view_cache: Optional[SystemView] = None

    def invalidate_view() -> None:
        nonlocal view_cache
        view_cache = None

    def invalidate_running() -> None:
        nonlocal view_cache, running_snapshot, running_sorted_snapshot
        view_cache = None
        running_snapshot = None
        running_sorted_snapshot = None

    def start_running(job: Job, start: float) -> None:
        """Allocate *job* and schedule its completion."""
        nonlocal place_seq
        invalidate_running()
        sim.cluster.allocate(job)
        full = remaining.get(job.job_id, job.duration)
        runtime = (
            min(full, job.walltime) if sim.enforce_walltime else full
        )
        running[job.job_id] = RunningJob(job, start, runtime=runtime)
        insort(
            walltime_order, (start + job.walltime, place_seq, job.job_id)
        )
        run_seq[job.job_id] = place_seq
        place_seq += 1
        if job.job_id in pending_restart:
            preemptions[pending_restart.pop(job.job_id)].restart_time = (
                start
            )
        events.push(Event(start + runtime, EventKind.COMPLETION, job.job_id))

    def drop_running(job_id: int) -> RunningJob:
        """Remove a job from the running set and the expiry index."""
        invalidate_running()
        run = running.pop(job_id)
        key = (
            run.start_time + run.job.walltime,
            run_seq.pop(job_id),
            job_id,
        )
        del walltime_order[bisect_left(walltime_order, key)]
        sim.cluster.release(job_id)
        return run

    def kill_running(
        job_id: int,
        time: float,
        reason: str,
        domain: Optional[str] = None,
    ) -> None:
        """Evict a running job and requeue it under the restart
        policy. ``reason`` is "failure" or "drain"; ``domain``
        attributes a shock's kill to its failure domain for
        blast-radius accounting."""
        nonlocal stopped, final_stop_asked, decision_budget
        if sim.max_decisions is None:
            # Each kill legitimately costs extra decisions (the
            # victim must be re-placed, often after several delays);
            # keep the runaway guard proportional.
            decision_budget += 8
        run = drop_running(job_id)
        elapsed = time - run.start_time
        prior = remaining.get(job_id, run.job.duration)
        if sim.restart_policy == "resubmit":
            saved = 0.0
        else:  # checkpoint / preempt_migrate
            interval = sim.checkpoint_interval
            saved = (
                math.floor(elapsed / interval) * interval
                if interval
                else 0.0
            )
            if (
                sim.restart_policy == "preempt_migrate"
                and last_announce >= run.start_time
            ):
                saved = max(saved, last_announce - run.start_time)
            saved = min(saved, elapsed)
        remaining[job_id] = prior - saved
        queued[job_id] = run.job
        # The job's entry from its original queueing may still
        # linger in queue_order (placed ids are only compacted
        # lazily); purge it or the requeued job would appear twice
        # in every view's queue.
        if job_id in queue_order:
            queue_order[:] = [j for j in queue_order if j != job_id]
        queue_order.append(job_id)
        # The world changed: a closing Stop no longer covers this
        # job, so scheduling re-opens (emits_stop policies get to
        # re-close once it is placed again).
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
        # The killed job's COMPLETION event is still in the heap;
        # the completion handler drops it as stale (no matching
        # running entry / expected end).

    def apply_drain_start(idx: int) -> None:
        """Take the drain's nodes out of service, idle nodes first,
        preempting running jobs only when too few are idle."""
        drain = trace.drains[idx]
        tag = f"drain:{idx}"
        taken = 0
        target = min(drain.nodes, sim.cluster.total_nodes)
        while taken < target:
            if sim.cluster.drain_take_idle(tag):
                taken += 1
                continue
            victim = sim.cluster.drain_victim()
            if victim is None:
                break  # nothing left to take; partial drain
            kill_running(victim, drain.start, "drain")
        invalidate_view()

    def process_events_at(time: float) -> None:
        nonlocal pending_arrivals, last_announce
        for event in events.pop_until(time):
            invalidate_view()
            if event.kind is EventKind.COMPLETION:
                run = running.get(event.job_id)
                if run is None or run.expected_end != event.time:
                    # Stale: the attempt this event belonged to was
                    # killed by a failure or a drain.
                    continue
                drop_running(event.job_id)
                full = remaining.pop(event.job_id, run.job.duration)
                records.append(
                    JobRecord(
                        run.job,
                        run.start_time,
                        event.time,
                        killed=run.runtime < full,
                    )
                )
                completed_ids.append(event.job_id)
            elif event.kind is EventKind.ARRIVAL:
                job = jobs_by_id[event.job_id]
                pending_arrivals -= 1
                queued[job.job_id] = job
                queue_order.append(job.job_id)
            elif event.kind is EventKind.NODE_FAILURE:
                failure = trace.failures[event.job_id]
                # A label a domain shock already downed is a no-op
                # (its paired repair is skipped too, via
                # effective_failures): only fresh nodes strike.
                if failure.node not in failed_down_nodes:
                    victim = sim.cluster.slot_victim(failure.node)
                    if victim is not None:
                        kill_running(victim, event.time, "failure")
                    if sim.cluster.mark_failed(failure.node):
                        effective_failures.add(event.job_id)
                        failed_down_nodes.add(failure.node)
            elif event.kind is EventKind.NODE_REPAIR:
                if event.job_id in effective_failures:
                    effective_failures.discard(event.job_id)
                    node = trace.failures[event.job_id].node
                    failed_down_nodes.discard(node)
                    sim.cluster.mark_repaired(node)
            elif event.kind is EventKind.DOMAIN_FAILURE:
                shock = trace.domain_failures[event.job_id]
                # One event, N nodes, pinned ordering: victims are
                # resolved over the pre-shock allocation layout in
                # first-struck-slot order, then evicted together —
                # a job spanning several struck nodes dies exactly
                # once, and later victims never shift into earlier
                # slots mid-event. Labels already down (a prior
                # single-node failure or overlapping shock) are
                # skipped entirely, so the aggregate pool never
                # charges a fresh free node for an already-offline
                # label.
                fresh = [
                    node
                    for node in shock.nodes
                    if node not in failed_down_nodes
                ]
                victims: list[int] = []
                seen_victims: set[int] = set()
                for node in fresh:
                    victim = sim.cluster.slot_victim(node)
                    if victim is not None and victim not in seen_victims:
                        seen_victims.add(victim)
                        victims.append(victim)
                for victim in victims:
                    kill_running(
                        victim, event.time, "failure", shock.domain
                    )
                taken = [
                    node
                    for node in fresh
                    if sim.cluster.mark_failed(node)
                ]
                if taken:
                    domain_offline[event.job_id] = taken
                    failed_down_nodes.update(taken)
            elif event.kind is EventKind.DOMAIN_REPAIR:
                for node in domain_offline.pop(event.job_id, ()):
                    failed_down_nodes.discard(node)
                    sim.cluster.mark_repaired(node)
            elif event.kind is EventKind.DRAIN_START:
                apply_drain_start(event.job_id)
            elif event.kind is EventKind.DRAIN_END:
                sim.cluster.drain_release(f"drain:{event.job_id}")
            else:  # DRAIN_ANNOUNCE
                last_announce = event.time
                # preempt_migrate: implicit checkpoint of all
                # running work at the announcement (handled lazily
                # in kill_running via ``last_announce``).

    def build_view() -> SystemView:
        nonlocal view_cache, running_snapshot, running_sorted_snapshot
        if view_cache is not None:
            return view_cache
        next_arrival: Optional[float] = None
        next_completion: Optional[float] = None
        if pending_arrivals:
            next_arrival = arrival_times[len(arrival_times) - pending_arrivals]
        if running:
            next_completion = min(r.expected_end for r in running.values())
        if len(queue_order) > 2 * len(queued) + 8:
            queue_order[:] = [jid for jid in queue_order if jid in queued]
        ordered_queue = tuple(queued[jid] for jid in queue_order if jid in queued)
        if running_snapshot is None:
            running_snapshot = tuple(running.values())
            running_sorted_snapshot = tuple(
                running[jid] for (_, _, jid) in walltime_order
            )
        drains: tuple[DrainWindow, ...] = ()
        if trace is not None and trace.drains:
            drains = tuple(
                d
                for d in trace.drains
                if d.announce_time <= now < d.end
            )
        # Per-domain capacity is computed only when real domains
        # exist: flat-topology (and legacy) runs never pay the
        # per-rack reduction, keeping the hot path identical.
        topo: Optional[ClusterTopology] = getattr(
            sim.cluster, "topology", None
        )
        domain_free: tuple[int, ...] = ()
        if topo is not None and not topo.is_flat:
            domain_free = tuple(sim.cluster.domain_free_nodes())
        view_cache = SystemView(
            now=now,
            queued=ordered_queue,
            running=running_snapshot,
            completed_ids=CompletedLog(completed_ids),
            free_nodes=sim.cluster.free_nodes,
            free_memory_gb=sim.cluster.free_memory_gb,
            total_nodes=sim.cluster.total_nodes,
            total_memory_gb=sim.cluster.total_memory_gb,
            pending_arrivals=pending_arrivals,
            next_arrival_time=next_arrival,
            next_completion_time=next_completion,
            nodes_offline=getattr(sim.cluster, "offline_nodes", 0),
            upcoming_drains=drains,
            # Snapshot copy: views are immutable snapshots, and the
            # live dict mutates on every kill/completion — a
            # retained view must keep reading its own instant.
            # (Empty on undisrupted runs: shared constant, no
            # allocation on the legacy path.)
            remaining_runtimes=(
                dict(remaining) if remaining else _NO_REMAINING
            ),
            topology=topo,
            domain_free_nodes=domain_free,
        )
        object.__setattr__(
            view_cache, "_running_sorted", running_sorted_snapshot
        )
        return view_cache

    final_stop_asked = False

    while True:
        process_events_at(now)

        # Decision phase: keep querying while jobs are queued and the
        # scheduler keeps placing them (all within the same timestep).
        retries = 0
        while queued and not stopped:
            if len(decisions) >= decision_budget:
                raise SimulationError(
                    f"decision budget exhausted ({decision_budget}); "
                    f"scheduler {sim.scheduler.name!r} appears stuck"
                )
            view = build_view()
            action = sim.scheduler.decide(view)
            violations = checker.validate(
                action,
                queued=queued,
                cluster=sim.cluster,
                all_scheduled=view.all_jobs_scheduled,
            )
            meta = dict(sim.scheduler.decision_meta())
            decisions.append(
                DecisionRecord(
                    time=now,
                    action=action,
                    accepted=not violations,
                    violations=violations,
                    retry_index=retries,
                    meta=meta,
                )
            )
            if violations:
                sim.scheduler.on_rejection(action, violations, view)
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
            # StartJob / BackfillJob
            job = queued.pop(action.job_id)  # type: ignore[arg-type]
            start_running(job, now)

        # Agents that narrate a closing Stop (the paper's ReAct agent
        # emits Stop once every job has been scheduled, possibly while
        # jobs are still running — Fig. 2) get one final query.
        if (
            not queued
            and pending_arrivals == 0
            and not stopped
            and not final_stop_asked
            and getattr(sim.scheduler, "emits_stop", False)
        ):
            final_stop_asked = True
            view = build_view()
            action = sim.scheduler.decide(view)
            violations = checker.validate(
                action,
                queued=queued,
                cluster=sim.cluster,
                all_scheduled=True,
            )
            decisions.append(
                DecisionRecord(
                    time=now,
                    action=action,
                    accepted=not violations,
                    violations=violations,
                    meta=dict(sim.scheduler.decision_meta()),
                )
            )
            if not violations and action.kind is ActionKind.STOP:
                stopped = True

        # Termination / time advance.
        if not queued and not running and pending_arrivals == 0:
            break
        if stopped and not running and pending_arrivals == 0 and queued:
            # Stop accepted only when all_scheduled; defensive.
            raise SimulationError("stopped with jobs still queued")
        next_time = events.peek_time()
        if next_time is None:
            if queued and not stopped:
                raise SimulationError(
                    f"deadlock at t={now}: {len(queued)} jobs queued, "
                    "no running jobs, no pending arrivals, and the "
                    f"scheduler {sim.scheduler.name!r} keeps delaying"
                )
            break
        if next_time > now:
            invalidate_view()  # views carry `now`
            now = next_time

    result = ScheduleResult(
        records=records,
        decisions=decisions,
        total_nodes=sim.cluster.total_nodes,
        total_memory_gb=sim.cluster.total_memory_gb,
        scheduler_name=sim.scheduler.name,
        preemptions=preemptions,
        disrupted=disrupted,
    )
    if disrupted:
        result.extras["disruption_kills"] = dict(n_kills)
        # Blast-radius bookkeeping only for traces that actually
        # carry domain-level events: zero-correlation runs keep the
        # exact PR-3 extras (and therefore metric columns).
        if trace.domain_failures:
            result.extras["domain_events"] = len(trace.domain_failures)
            result.extras["domain_kills"] = dict(
                sorted(domain_kills.items())
            )
    collect = getattr(sim.scheduler, "collect_extras", None)
    if collect is not None:
        result.extras.update(collect())
    return result
