"""The discrete event simulation engine.

Implements the environment of paper §3.1: time advances only at job
arrivals and completions; at each step newly arrived jobs join the
waiting queue, finished jobs release resources, and — if any job is
eligible — the scheduler is queried for a decision. Valid actions are
executed; invalid ones are rejected with structured violations and the
scheduler is re-queried (the LLM agent turns those violations into
scratchpad feedback, §2.4) up to a retry limit, after which the
simulator forces a ``Delay``.

The engine is policy-agnostic: FCFS, SJF, the annealing optimizer and
the ReAct LLM agent all implement :class:`SchedulerProtocol`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.sim.actions import Action
from repro.sim.cluster import ResourcePool
from repro.sim.constraints import Violation
from repro.sim.disruptions import (
    DisruptionTrace,
    DrainWindow,
    normalize_restart_policy,
)
from repro.sim.job import Job, screen_unschedulable, validate_workload
from repro.sim.schedule import ScheduleResult
from repro.sim.topology import ClusterTopology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.columns import ViewColumns


class SimulationError(RuntimeError):
    """Raised on unrecoverable simulation states (deadlock, runaway)."""


#: Shared empty mapping for undisrupted views' ``remaining_runtimes``.
_NO_REMAINING: dict[int, float] = {}


@dataclass(frozen=True, eq=False, repr=False)
class RunningJob:
    """A job currently holding resources.

    ``runtime`` is the *effective* runtime: the job's true duration,
    or its requested walltime when the simulator enforces walltime
    limits and the job would overrun (it gets killed at the limit).
    """

    job: Job
    start_time: float
    runtime: float = -1.0

    def __post_init__(self) -> None:
        if self.runtime < 0:
            object.__setattr__(self, "runtime", float(self.job.duration))

    @property
    def expected_end(self) -> float:
        return self.start_time + self.runtime


class CompletedLog(Sequence[int]):
    """Zero-copy immutable snapshot of the completion log.

    The simulator's completion log is append-only, so a snapshot is
    just the shared underlying list plus its length at snapshot time —
    O(1) to take regardless of how many jobs have completed, while
    earlier snapshots stay valid as the log keeps growing. (The naive
    ``tuple(completed_ids)`` per decision made snapshot cost grow
    linearly with completed jobs, i.e. quadratically over a run.)
    """

    __slots__ = ("_log", "_n")

    def __init__(self, log: list[int], n: Optional[int] = None) -> None:
        self._log = log
        self._n = len(log) if n is None else n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):  # int or slice
        if isinstance(index, slice):
            log = self._log
            return tuple(
                log[i] for i in range(*index.indices(self._n))
            )
        n = self._n
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("CompletedLog index out of range")
        return self._log[index]

    def __iter__(self) -> Iterator[int]:
        log = self._log
        for i in range(self._n):
            yield log[i]

    def since(self, earlier: "CompletedLog") -> Optional[list[int]]:
        """The ids completed after *earlier* was taken, or ``None`` when
        *earlier* is not a shorter-or-equal snapshot of the same log
        (so a reader that kept something derived from *earlier* knows
        whether it can extend it or has to start over)."""
        if earlier._log is not self._log or earlier._n > self._n:
            return None
        return self._log[earlier._n : self._n]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (CompletedLog, tuple, list)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"CompletedLog({tuple(self)!r})"


class _QueuedOnFirstRead:
    """``SystemView.queued`` of a view whose instance dict lacks it (an
    engine-built one): built off the view's queue snapshot and stored
    in that dict. A non-data descriptor yields to the instance dict, so
    every later read, and every read on a hand-built view, is a plain
    attribute read."""

    def __get__(self, view, owner=None):
        if view is None:
            return self
        queued = view.__dict__["queued"] = view.queue.as_tuple()
        return queued


class _HandBuiltQueue:
    """``SystemView.queue`` of a view whose instance dict lacks it (a
    hand-built one): a snapshot over ``queued`` itself, stored in that
    dict."""

    def __get__(self, view, owner=None):
        if view is None:
            return self
        from repro.sim.columns import queue_columns_from_jobs

        queue = view.__dict__["queue"] = queue_columns_from_jobs(view.queued)
        return queue


@dataclass(frozen=True, eq=False, repr=False)
class SystemView:
    """Read-only snapshot handed to schedulers at a decision point.

    This is the machine-readable equivalent of the prompt state block
    in paper §3.4 (current time, available resources, running jobs,
    waiting jobs) plus look-ahead hooks (next event times) that
    event-driven baselines use.

    ``completed_ids`` accepts any integer sequence; the simulator
    passes a :class:`CompletedLog` (an O(1) copy-on-write snapshot of
    its append-only completion log), while hand-built views in tests
    typically pass plain tuples.

    ``queued`` on an engine-built view is built on its first read, off
    the view's queue snapshot (:class:`~repro.sim.columns.QueueColumns`),
    which caches it: a policy that needs only the queue's length, its
    head or a few positions reads them through ``queue`` and never pays
    for the tuple.
    """

    now: float
    queued: tuple[Job, ...]
    running: tuple[RunningJob, ...]
    completed_ids: Sequence[int]
    free_nodes: int
    free_memory_gb: float
    total_nodes: int
    total_memory_gb: float
    pending_arrivals: int
    next_arrival_time: Optional[float]
    next_completion_time: Optional[float]
    #: Nodes currently out of service (failed or draining); already
    #: reflected in ``free_nodes``/``free_memory_gb``, exposed so
    #: recovery-aware policies can tell saturation from outage.
    nodes_offline: int = 0
    #: Announced maintenance windows not yet finished, in start order.
    #: Windows that have already started are still listed until they
    #: end (their capacity is already missing from ``free_nodes``).
    upcoming_drains: tuple[DrainWindow, ...] = ()
    #: Remaining runtime for jobs restarted after a kill (checkpoint
    #: restart); jobs absent from the mapping run their full duration.
    remaining_runtimes: Mapping[int, float] = field(default_factory=dict)
    #: The cluster's node → rack → switch hierarchy, when it has one.
    #: ``None`` (hand-built views) and flat topologies mean "no failure
    #: domains": every topology-aware policy path is a no-op.
    topology: Optional[ClusterTopology] = None
    #: Free (idle, online) node count per rack, aligned with
    #: ``topology.n_racks``; empty for flat/absent topologies — the
    #: engine only pays the per-domain reduction when domains exist.
    domain_free_nodes: tuple[int, ...] = ()
    #: Lazily-built id → job index over ``queued`` (see
    #: :meth:`queued_job`); excluded from init/repr/comparison.
    _queued_index: Optional[dict[int, Job]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Running jobs ordered by walltime-expiry (start + walltime); the
    #: simulator fills this from its incrementally-maintained index so
    #: EASY reservations stop re-sorting per blocked decision. Built
    #: lazily (one sort) for hand-constructed views.
    _running_sorted: Optional[tuple[RunningJob, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Lazily-built columnar projection of the queue (see
    #: :meth:`columns`), built on the first ``columns()`` call from the
    #: view's queue snapshot: on an engine-built view a zero-copy
    #: selection over the run's master arrays, on a hand-built one
    #: columns built from ``queued``.
    _columns: Optional["ViewColumns"] = field(
        default=None, init=False, repr=False, compare=False
    )

    #: The queue snapshot (:class:`~repro.sim.columns.QueueColumns`):
    #: ``n``, ``head`` and integer-index reads that never build
    #: ``queued``. The engine hands every view its own; a hand-built
    #: view gets one over ``queued`` on first read. Not a field: no
    #: init argument, no comparison.
    queue = _HandBuiltQueue()

    @property
    def all_jobs_scheduled(self) -> bool:
        """True when nothing is queued and nothing will arrive."""
        return not self.queue.n and self.pending_arrivals == 0

    def columns(self) -> "ViewColumns":
        """Columnar (structure-of-arrays) projection of the queue.

        Returns a :class:`~repro.sim.columns.ViewColumns`: numpy
        attribute columns over the queued jobs in queue order, plus
        vectorized feasibility/recovery masks — the batch-query surface
        sort/filter-shaped schedulers consume instead of iterating
        ``Job`` facades. Built on the first call and cached on the
        view, so a policy that never asks pays nothing. Engine-built
        views share one set of per-run master arrays (zero
        per-decision copies); hand-built views pay one column build on
        first use.
        """
        cols = self._columns
        if cols is None:
            from repro.sim.columns import ViewColumns

            cols = ViewColumns(self.queue, self)
            object.__setattr__(self, "_columns", cols)
        return cols

    def queued_job(self, job_id: int) -> Optional[Job]:
        """O(1) lookup of a queued job by id.

        Both the optimizer and the LLM prompt/constraint pipeline call
        this per decision; the index is built once on first use instead
        of scanning the queue each call.
        """
        index = self._queued_index
        if index is None:
            index = {job.job_id: job for job in self.queued}
            object.__setattr__(self, "_queued_index", index)
        return index.get(job_id)

    def can_fit(self, job: Job) -> bool:
        """First-fit feasibility against the aggregate free resources."""
        return (
            job.nodes <= self.free_nodes
            and job.memory_gb <= self.free_memory_gb + 1e-9
        )

    @property
    def has_domains(self) -> bool:
        """True when the cluster has real (non-flat) failure domains
        and this view carries their per-domain free capacity."""
        return (
            self.topology is not None
            and not self.topology.is_flat
            and bool(self.domain_free_nodes)
        )

    def effective_walltime(self, job: Job) -> float:
        """Walltime estimate for *job*'s next attempt: the requested
        walltime, tightened to the known remaining runtime for
        checkpoint-restarted jobs."""
        remaining = self.remaining_runtimes.get(job.job_id)
        if remaining is None:
            return job.walltime
        return min(job.walltime, remaining)

    def running_by_walltime_end(self) -> tuple[RunningJob, ...]:
        """Running jobs ordered by ``start + walltime`` (ties keep
        ``running`` order) — the traversal order of EASY reservations.

        The simulator maintains this index incrementally across
        decisions (insert on start, delete on completion/kill), so for
        engine-built views the call is O(1); hand-built views pay one
        sort on first use and cache it.
        """
        cached = self._running_sorted
        if cached is None:
            cached = tuple(
                sorted(
                    self.running,
                    key=lambda r: r.start_time + r.job.walltime,
                )
            )
            object.__setattr__(self, "_running_sorted", cached)
        return cached

    @property
    def node_memory_share(self) -> float:
        """Even per-node memory share — what one offline/drained node
        withholds under the aggregate cluster model."""
        return self.total_memory_gb / self.total_nodes

    def _peak_drained_nodes(self, start: float, end: float) -> int:
        """Peak *simultaneous* node count taken by announced,
        not-yet-started drains over ``[start, end)``.

        Overlapping windows add up — checking each drain individually
        would declare a job safe that the windows jointly kill.
        Windows already in progress are excluded (their capacity is
        already missing from ``free_nodes``).
        """
        deltas: list[tuple[float, int]] = []
        for d in self.upcoming_drains:
            if d.start <= self.now or not d.overlaps(start, end):
                continue
            deltas.append((max(d.start, start), d.nodes))
            deltas.append((d.end, -d.nodes))
        if not deltas:
            return 0
        deltas.sort()
        level = peak = 0
        for _, delta in deltas:
            level += delta
            peak = max(peak, level)
        return peak

    def _fits_alongside_drains(self, job: Job, start: float) -> bool:
        """Would *job*, started at *start*, fit once every announced
        drain overlapping its walltime window has taken its nodes?"""
        peak = self._peak_drained_nodes(
            start, start + self.effective_walltime(job)
        )
        if peak == 0:
            return True
        return (
            job.nodes <= self.free_nodes - peak
            and job.memory_gb
            <= self.free_memory_gb - peak * self.node_memory_share + 1e-9
        )

    def drain_safe(self, job: Job) -> bool:
        """Conservatively, can *job* be started now without straddling
        announced maintenance drains it might not survive?

        The job must fit in the capacity left at the *peak* of the
        announced-but-not-yet-started drains overlapping
        ``[now, now + walltime)`` (overlapping windows add up; windows
        already in progress are skipped — their capacity is already
        gone from ``free_nodes``). Vacuously True with no drains, so
        drain-aware policies are byte-identical to their legacy
        behaviour on undisrupted runs.
        """
        if not self.upcoming_drains:
            return True
        return self._fits_alongside_drains(job, self.now)

    def earliest_drain_safe_start(self, job: Job) -> float:
        """Earliest ``t >= now`` at which starting *job* would not
        straddle announced drains it might not survive (same
        conservative capacity test as :meth:`drain_safe`). This is the
        natural *reservation* time for a drain-parked job: EASY uses it
        as the shadow so short work can still backfill the parked job's
        resources until then. Returns ``now`` when the job is already
        drain-safe.
        """
        drains = self.upcoming_drains
        if not drains:
            return self.now
        # The safe start is either now or the end of some blocking
        # window; past the last end there are no drains left, so the
        # search always terminates.
        candidates = [self.now] + sorted(
            d.end for d in drains if d.start > self.now and d.end > self.now
        )
        for t in candidates:
            if self._fits_alongside_drains(job, t):
                return t
        return candidates[-1]

    def feasible_jobs(self) -> tuple[Job, ...]:
        """Queued jobs that could start right now."""
        return tuple(j for j in self.queued if self.can_fit(j))

    def user_wait_times(self) -> dict[str, float]:
        """Current accumulated wait per user over queued jobs (used by
        fairness-aware policies)."""
        waits: dict[str, float] = {}
        for job in self.queued:
            waits[job.user] = waits.get(job.user, 0.0) + (
                self.now - job.submit_time
            )
        return waits


# Set once the dataclass exists: in the class body, ``queued`` would
# read as the field's default.
SystemView.queued = _QueuedOnFirstRead()  # type: ignore[assignment]


@runtime_checkable
class SchedulerProtocol(Protocol):
    """What the engine requires of a scheduling policy."""

    name: str

    def reset(self) -> None:
        """Clear state before a fresh run."""
        ...

    def decide(self, view: SystemView) -> Action:
        """Propose the next action for the current decision point."""
        ...

    def on_rejection(
        self, action: Action, violations: tuple[Violation, ...], view: SystemView
    ) -> None:
        """Notification that *action* was rejected (feedback channel)."""
        ...

    def decision_meta(self) -> dict[str, Any]:
        """Metadata about the most recent decision (thought text,
        simulated latency, …); attached to the decision record."""
        ...


@dataclass(eq=False, repr=False)
class HPCSimulator:
    """Event-driven simulation of one workload under one scheduler.

    Parameters
    ----------
    jobs:
        The workload. Submit times define arrival events.
    scheduler:
        Any :class:`SchedulerProtocol` implementation.
    cluster:
        Cluster model; defaults to the paper's 256-node / 2048 GB
        aggregate partition.
    max_retries:
        How many consecutive rejected proposals are tolerated at one
        decision point before the simulator forces a ``Delay``.
    max_decisions:
        Hard cap on scheduler queries, guarding against runaway loops.
        Defaults to ``200 * n_jobs + 1000``.
    enforce_walltime:
        Real resource managers kill jobs that exceed their requested
        walltime. When True, a job whose true duration exceeds its
        walltime runs for exactly the walltime and its record is
        marked ``killed`` (the paper's synthetic workloads use perfect
        estimates, so this is off by default). With checkpoint
        restarts the limit applies per attempt.
    disruptions:
        Optional :class:`~repro.sim.disruptions.DisruptionTrace` of
        node failures and maintenance drains to replay. ``None`` or an
        empty trace leaves the engine on the legacy (zero-disruption)
        path, byte-identical to a simulator without the subsystem.
    restart_policy:
        What a killed job keeps: ``resubmit`` (nothing — full rerun),
        ``checkpoint`` (work up to the last multiple of
        ``checkpoint_interval``), or ``preempt_migrate`` (checkpoint
        semantics, plus an implicit checkpoint of every running job at
        each drain announcement, modeling proactive migration).
    checkpoint_interval:
        Seconds between periodic checkpoints; required (positive) for
        the ``checkpoint`` policy, optional for ``preempt_migrate``.
    """

    jobs: list[Job]
    scheduler: SchedulerProtocol
    cluster: ResourcePool = field(default_factory=ResourcePool)
    max_retries: int = 3
    max_decisions: Optional[int] = None
    enforce_walltime: bool = False
    disruptions: Optional[DisruptionTrace] = None
    restart_policy: str = "resubmit"
    checkpoint_interval: Optional[float] = None

    def __post_init__(self) -> None:
        self.restart_policy = normalize_restart_policy(self.restart_policy)
        interval = self.checkpoint_interval
        if interval is not None:
            if not 0.0 < interval < math.inf:
                raise ValueError(
                    f"checkpoint_interval must be positive and finite, "
                    f"got {interval}"
                )
        elif self.restart_policy == "checkpoint":
            raise ValueError(
                "restart_policy='checkpoint' requires a positive "
                "checkpoint_interval"
            )
        self.jobs = validate_workload(self.jobs)
        cluster = self.cluster
        _, too_big = screen_unschedulable(
            self.jobs, cluster.total_nodes, cluster.total_memory_gb
        )
        if too_big:
            job = too_big[0]
            raise SimulationError(
                f"job {job.job_id} exceeds total cluster capacity "
                f"({job.nodes} nodes / {job.memory_gb:g} GB vs "
                f"{cluster.total_nodes} / {cluster.total_memory_gb:g}); "
                "screen the workload with "
                "repro.sim.job.screen_unschedulable first"
            )

    # -- main loop -------------------------------------------------------
    def run(self) -> ScheduleResult:
        """Execute the full simulation and return the schedule.

        Runs the structure-of-arrays core in :mod:`repro.sim.engine`.
        The original object-graph loop survives only as the test
        oracle ``run_object`` in ``tests/object_reference.py``, which
        the parity suites substitute for this method.
        """
        from repro.sim.engine import run_soa

        return run_soa(self)


def simulate(
    jobs: Iterable[Job],
    scheduler: SchedulerProtocol,
    *,
    cluster: Optional[ResourcePool] = None,
    max_retries: int = 3,
    max_decisions: Optional[int] = None,
    enforce_walltime: bool = False,
    disruptions: Optional[DisruptionTrace] = None,
    restart_policy: str = "resubmit",
    checkpoint_interval: Optional[float] = None,
) -> ScheduleResult:
    """One-call convenience wrapper around :class:`HPCSimulator`."""
    sim = HPCSimulator(
        jobs=list(jobs),
        scheduler=scheduler,
        cluster=cluster if cluster is not None else ResourcePool(),
        max_retries=max_retries,
        max_decisions=max_decisions,
        enforce_walltime=enforce_walltime,
        disruptions=disruptions,
        restart_policy=restart_policy,
        checkpoint_interval=checkpoint_interval,
    )
    return sim.run()
