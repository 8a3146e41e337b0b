"""Discrete event HPC cluster simulator.

This subpackage is the substrate the paper's ReAct scheduling agent runs
against (paper §2, §3.1): an event-driven model of a shared HPC partition
that owns the global simulation clock, injects job arrivals, tracks
running jobs, releases resources on completion, validates every proposed
scheduling action, and advances time only at discrete events (arrivals
and completions).

Public surface
--------------
:class:`~repro.sim.job.Job`
    Immutable job description (submit time, duration, walltime, nodes,
    memory, user/group metadata).
:class:`~repro.sim.cluster.ResourcePool`
    Aggregate node/memory accounting with first-fit feasibility, the
    model the paper uses (256 nodes / 2048 GB partition).
:class:`~repro.sim.cluster.NodeLevelCluster`
    Optional finer-grained per-node model (first-fit over a node list).
:class:`~repro.sim.simulator.HPCSimulator`
    The discrete event engine: ties a workload, a cluster model and a
    scheduler together and produces a :class:`~repro.sim.schedule.ScheduleResult`.
:mod:`~repro.sim.actions`
    The action vocabulary shared by every scheduler
    (``StartJob`` / ``BackfillJob`` / ``PreemptJob`` / ``Delay`` /
    ``Stop``).
:class:`~repro.sim.constraints.ConstraintChecker`
    Structured feasibility validation; the natural-language rendering
    used for LLM feedback lives in :mod:`repro.core.constraints`.
:mod:`~repro.sim.disruptions`
    The fault & disruption subsystem: seeded node-failure traces,
    correlated domain shocks, maintenance drain windows, restart
    policies (resubmit/checkpoint/preempt-migrate), and the preemption
    records the reliability metrics consume. An empty
    :class:`~repro.sim.disruptions.DisruptionTrace` leaves the engine
    byte-identical to the undisrupted code path.
:class:`~repro.sim.topology.ClusterTopology`
    Node → rack → switch-group hierarchy: the failure domains the
    correlated generators strike, domain-scoped drains take, and
    spread placement balances. The flat default (one domain) is
    behaviourally invisible.
"""

from repro.sim.actions import (
    Action,
    ActionKind,
    BackfillJob,
    Delay,
    PreemptJob,
    StartJob,
    Stop,
)
from repro.sim.cluster import ClusterModel, NodeLevelCluster, ResourcePool
from repro.sim.constraints import ConstraintChecker, Violation, ViolationKind
from repro.sim.disruptions import (
    DISRUPTION_PRESETS,
    DisruptionSpec,
    DisruptionTrace,
    DomainFailure,
    DrainWindow,
    NodeFailure,
    PreemptionRecord,
    RESTART_POLICIES,
    correlated_failures,
    exponential_failures,
    periodic_drains,
    weibull_failures,
)
from repro.sim.events import EventKind
from repro.sim.topology import ClusterTopology, topology_signature
from repro.sim.job import Job, JobState
from repro.sim.schedule import DecisionRecord, JobRecord, ScheduleResult
from repro.sim.simulator import HPCSimulator, SystemView

__all__ = [
    "Action",
    "ActionKind",
    "BackfillJob",
    "ClusterModel",
    "ConstraintChecker",
    "DISRUPTION_PRESETS",
    "ClusterTopology",
    "DecisionRecord",
    "Delay",
    "DisruptionSpec",
    "DisruptionTrace",
    "DomainFailure",
    "DrainWindow",
    "EventKind",
    "HPCSimulator",
    "Job",
    "JobRecord",
    "JobState",
    "NodeFailure",
    "NodeLevelCluster",
    "PreemptJob",
    "PreemptionRecord",
    "RESTART_POLICIES",
    "ResourcePool",
    "ScheduleResult",
    "StartJob",
    "Stop",
    "SystemView",
    "Violation",
    "ViolationKind",
    "correlated_failures",
    "exponential_failures",
    "periodic_drains",
    "topology_signature",
    "weibull_failures",
]
