"""Fault & disruption modeling: node failures, repairs, and drains.

The simulator's baseline regime is a perfectly reliable cluster — the
only events are job arrivals and completions. This module supplies the
*disruption axis*: a :class:`DisruptionTrace` is a fully materialized,
validated set of node failures (with repair times) and maintenance
drain windows (with announcement lead) that the simulator turns into
extra events (:class:`~repro.sim.events.EventKind` members
``NODE_FAILURE``/``NODE_REPAIR``/``DRAIN_START``/``DRAIN_END``/
``DRAIN_ANNOUNCE``).

Semantics (see also the README "Faults & disruptions" section):

* A **node failure** strikes one node. The job running on it (in the
  aggregate :class:`~repro.sim.cluster.ResourcePool` model: the job
  holding the failed occupancy slot, allocation order) is killed and
  requeued under the simulator's restart policy; the node is offline —
  shrinking free capacity — until its repair time.
* A **drain** takes ``nodes`` nodes out of service over ``[start,
  end)`` for maintenance. Idle nodes are drained first; if too few are
  idle, running jobs are preempted (most recently started first: the
  top of the pool's occupancy-slot layout) until the drain is
  satisfied. Drains are *announced* ``announce_lead`` seconds ahead so
  recovery-aware schedulers can avoid placing long jobs across the
  window.

Reproducibility is part of the contract: traces are plain data
generated from seeds up front (per-node RNG streams spawned from one
``SeedSequence``), so a seeded trace is bit-identical across runs,
across processes, and across serial vs. parallel matrix execution. An
empty trace is falsy and the simulator takes the exact legacy code
path — zero-disruption runs are byte-identical to a simulator without
the subsystem (pinned by ``tests/test_disruption_regression.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.sim.job import Job
from repro.sim.topology import ClusterTopology

#: Restart-policy names accepted by the simulator. ``resubmit`` loses
#: all work on a kill; ``checkpoint`` resumes from the last periodic
#: checkpoint; ``preempt_migrate`` additionally checkpoints every
#: running job the moment a drain is announced (so drain victims lose
#: at most the work since the announcement).
RESTART_POLICIES: tuple[str, ...] = ("resubmit", "checkpoint", "preempt_migrate")


def normalize_restart_policy(name: str) -> str:
    """Canonicalize a restart-policy name (hyphens/underscores)."""
    canon = name.strip().lower().replace("-", "_")
    if canon not in RESTART_POLICIES:
        raise ValueError(
            f"unknown restart policy {name!r}; "
            f"choose from {', '.join(RESTART_POLICIES)}"
        )
    return canon


@dataclass(frozen=True)
class NodeFailure:
    """One node going down at ``time`` and returning at ``repair_time``."""

    time: float
    node: int
    repair_time: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.time < math.inf:
            raise ValueError(f"failure time must be finite and >= 0: {self}")
        if self.node < 0:
            raise ValueError(f"failure node must be non-negative: {self}")
        if not self.time < self.repair_time < math.inf:
            raise ValueError(
                f"repair_time must be finite and after the failure: {self}"
            )


@dataclass(frozen=True)
class DomainFailure:
    """A correlated shock: a contiguous node block dying at one instant.

    One :class:`~repro.sim.events.EventKind.DOMAIN_FAILURE` event kills
    every job touching ``nodes`` — victims are evicted in pinned
    first-slot order within the single event, not as N independent
    per-node failures — and the whole block returns to service together
    at ``repair_time``. ``domain`` is the canonical label of the
    failure domain the shock struck (``rack3``, ``switch1``), carried
    onto the resulting :class:`PreemptionRecord` rows so blast-radius
    metrics can attribute losses per domain.
    """

    time: float
    nodes: tuple[int, ...]
    repair_time: float
    domain: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.nodes, tuple):
            object.__setattr__(self, "nodes", tuple(self.nodes))
        if not 0.0 <= self.time < math.inf:
            raise ValueError(f"failure time must be finite and >= 0: {self}")
        if not self.nodes:
            raise ValueError(f"domain failure must strike >= 1 node: {self}")
        if any(n < 0 for n in self.nodes):
            raise ValueError(f"node indices must be non-negative: {self}")
        if list(self.nodes) != sorted(set(self.nodes)):
            raise ValueError(
                f"domain failure nodes must be strictly ascending: {self}"
            )
        if not self.time < self.repair_time < math.inf:
            raise ValueError(
                f"repair_time must be finite and after the failure: {self}"
            )

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class DrainWindow:
    """A scheduled maintenance window taking ``nodes`` nodes offline.

    ``announce_time`` is when the window becomes visible to schedulers
    (via ``SystemView.upcoming_drains``); a negative value (the
    default) means ``start`` (no advance notice), and the result is
    clamped to 0. NaN and ``+inf`` are rejected.
    """

    start: float
    end: float
    nodes: int
    announce_time: float = -1.0

    def __post_init__(self) -> None:
        if not self.announce_time < math.inf:
            raise ValueError(
                f"drain announce_time must not be NaN or +inf: {self}"
            )
        if self.announce_time < 0:
            object.__setattr__(self, "announce_time", float(self.start))
        object.__setattr__(
            self, "announce_time", max(0.0, float(self.announce_time))
        )
        if not (self.start >= 0.0 and self.start == self.start):
            raise ValueError(f"drain start must be finite and >= 0: {self}")
        if not self.end > self.start:
            raise ValueError(f"drain must end after it starts: {self}")
        if not math.isfinite(self.end):
            raise ValueError(f"drain end must be finite: {self}")
        if self.nodes <= 0:
            raise ValueError(f"drain must take >= 1 node: {self}")
        if self.announce_time > self.start:
            raise ValueError(f"drain announced after its start: {self}")

    def overlaps(self, start: float, end: float) -> bool:
        """True if ``[start, end)`` intersects the drain window."""
        return start < self.end and end > self.start


@dataclass(frozen=True)
class DisruptionTrace:
    """A validated, fully materialized disruption schedule.

    Plain data: building the trace draws every random number up front,
    so the simulator replays it deterministically and two runs with the
    same trace see identical disruptions regardless of scheduler
    behaviour. An empty trace is falsy and leaves the simulator on the
    legacy (zero-disruption) code path.
    """

    failures: tuple[NodeFailure, ...] = ()
    drains: tuple[DrainWindow, ...] = ()
    #: Correlated shocks (rack/switch-level events). Cross-type overlap
    #: with single-node failures is legal — a shock may strike a node
    #: that is already down; the engine treats already-offline nodes as
    #: no-ops with pinned semantics — but two shocks on the same domain
    #: process may not overlap in time on any node.
    domain_failures: tuple[DomainFailure, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.failures, tuple):
            object.__setattr__(self, "failures", tuple(self.failures))
        if not isinstance(self.drains, tuple):
            object.__setattr__(self, "drains", tuple(self.drains))
        if not isinstance(self.domain_failures, tuple):
            object.__setattr__(
                self, "domain_failures", tuple(self.domain_failures)
            )
        # Canonical event order: by time, then node/start for full
        # determinism independent of construction order.
        object.__setattr__(
            self,
            "failures",
            tuple(sorted(self.failures, key=lambda f: (f.time, f.node))),
        )
        object.__setattr__(
            self,
            "drains",
            tuple(sorted(self.drains, key=lambda d: (d.start, d.end))),
        )
        object.__setattr__(
            self,
            "domain_failures",
            tuple(
                sorted(
                    self.domain_failures,
                    key=lambda df: (df.time, df.nodes[0]),
                )
            ),
        )
        # A node must be up to fail: per-node failure intervals may not
        # overlap (generators guarantee this; hand-built traces are
        # validated). Single-node processes and domain shocks are
        # validated independently — overlap *across* the two kinds is
        # tolerated by the engine.
        last_up: dict[int, float] = {}
        for f in self.failures:
            if f.time < last_up.get(f.node, 0.0):
                raise ValueError(
                    f"node {f.node} fails at {f.time:g} before its "
                    f"previous repair at {last_up[f.node]:g}"
                )
            last_up[f.node] = f.repair_time
        domain_up: dict[int, float] = {}
        for df in self.domain_failures:
            for node in df.nodes:
                if df.time < domain_up.get(node, 0.0):
                    raise ValueError(
                        f"domain failure {df.domain or df.nodes[0]} strikes "
                        f"node {node} at {df.time:g} before its previous "
                        f"shock repairs at {domain_up[node]:g}"
                    )
                domain_up[node] = df.repair_time

    def __bool__(self) -> bool:
        return bool(self.failures or self.drains or self.domain_failures)

    @property
    def n_events(self) -> int:
        return (
            len(self.failures)
            + len(self.drains)
            + len(self.domain_failures)
        )


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------

def exponential_failures(
    *,
    n_nodes: int,
    horizon: float,
    mtbf: float,
    mttr: float,
    seed: int | np.random.SeedSequence = 0,
) -> tuple[NodeFailure, ...]:
    """Per-node Poisson failure processes (exponential up-times).

    Each node runs an independent alternating renewal process: up-time
    ~ Exp(mtbf), down-time ~ Exp(mttr), using its own RNG stream
    spawned from *seed* — so the trace for node *i* never depends on
    how many other nodes exist or failed.
    """
    return _renewal_failures(
        n_nodes=n_nodes, horizon=horizon, mtbf=mtbf, mttr=mttr, seed=seed,
        uptime=lambda rng: rng.exponential(mtbf),
    )


def weibull_failures(
    *,
    n_nodes: int,
    horizon: float,
    mtbf: float,
    mttr: float,
    shape: float = 1.5,
    seed: int | np.random.SeedSequence = 0,
) -> tuple[NodeFailure, ...]:
    """Weibull up-times (shape > 1: wear-out; < 1: infant mortality).

    The scale is chosen so the *mean* up-time equals ``mtbf``.
    """
    if shape <= 0:
        raise ValueError(f"weibull shape must be positive, got {shape}")
    scale = mtbf / math.gamma(1.0 + 1.0 / shape)
    return _renewal_failures(
        n_nodes=n_nodes, horizon=horizon, mtbf=mtbf, mttr=mttr, seed=seed,
        uptime=lambda rng: scale * rng.weibull(shape),
    )


def _renewal_failures(
    *,
    n_nodes: int,
    horizon: float,
    mtbf: float,
    mttr: float,
    seed: int | np.random.SeedSequence,
    uptime,
) -> tuple[NodeFailure, ...]:
    if n_nodes <= 0:
        raise ValueError(f"n_nodes must be positive, got {n_nodes}")
    if mtbf <= 0 or mttr <= 0:
        raise ValueError(f"mtbf and mttr must be positive ({mtbf}, {mttr})")
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    base = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    failures: list[NodeFailure] = []
    for node, child in enumerate(base.spawn(n_nodes)):
        rng = np.random.default_rng(child)
        t = float(uptime(rng))
        while t < horizon:
            down = max(float(rng.exponential(mttr)), 1e-6)
            failures.append(NodeFailure(t, node, t + down))
            t += down + float(uptime(rng))
    return tuple(sorted(failures, key=lambda f: (f.time, f.node)))


def correlated_failures(
    *,
    topology: "ClusterTopology",
    horizon: float,
    domain_mtbf: float,
    mttr: float,
    correlation: float = 1.0,
    level: str = "rack",
    seed: int | np.random.SeedSequence = 0,
) -> tuple[DomainFailure, ...]:
    """Per-domain shock processes: correlated whole-block failures.

    Every domain at *level* (rack or switch group) runs an independent
    alternating renewal process — shock inter-arrival ~ Exp(domain_mtbf),
    down-time ~ Exp(mttr) — on its own RNG stream spawned from *seed*,
    so adding racks never perturbs the shocks an existing rack draws.
    Each shock fails one contiguous node block inside the domain:
    ``max(1, round(correlation * domain_size))`` nodes at an offset
    drawn uniformly within the domain (``correlation = 1`` takes the
    whole domain; small values approximate a shared-PDU partial
    outage). All randomness is drawn up front — the trace is plain
    data, bit-identical across runs, processes, and serial vs.
    parallel matrix execution.
    """
    if domain_mtbf <= 0 or mttr <= 0:
        raise ValueError(
            f"domain_mtbf and mttr must be positive ({domain_mtbf}, {mttr})"
        )
    if not 0.0 < correlation <= 1.0:
        raise ValueError(
            f"correlation must be in (0, 1], got {correlation}"
        )
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    n_domains = topology.n_domains(level)
    base = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    shocks: list[DomainFailure] = []
    for domain, child in enumerate(base.spawn(n_domains)):
        rng = np.random.default_rng(child)
        nodes = topology.domain_nodes(level, domain)
        size = len(nodes)
        block = max(1, round(correlation * size))
        label = topology.domain_label(level, domain)
        t = float(rng.exponential(domain_mtbf))
        while t < horizon:
            down = max(float(rng.exponential(mttr)), 1e-6)
            offset = int(rng.integers(0, size - block + 1))
            struck = tuple(
                range(nodes.start + offset, nodes.start + offset + block)
            )
            shocks.append(
                DomainFailure(
                    time=t,
                    nodes=struck,
                    repair_time=t + down,
                    domain=label,
                )
            )
            t += down + float(rng.exponential(domain_mtbf))
    return tuple(sorted(shocks, key=lambda df: (df.time, df.nodes[0])))


def periodic_drains(
    *,
    first_start: float,
    every: float,
    duration: float,
    nodes: int,
    horizon: float,
    announce_lead: float = 0.0,
) -> tuple[DrainWindow, ...]:
    """Deterministic maintenance windows: every ``every`` seconds from
    ``first_start`` until ``horizon``, each taking ``nodes`` nodes for
    ``duration`` seconds and announced ``announce_lead`` ahead."""
    if every <= 0 or duration <= 0:
        raise ValueError("drain period and duration must be positive")
    if announce_lead < 0:
        raise ValueError("announce_lead must be non-negative")
    drains: list[DrainWindow] = []
    start = float(first_start)
    while start < horizon:
        drains.append(
            DrainWindow(
                start=start,
                end=start + duration,
                nodes=nodes,
                announce_time=max(0.0, start - announce_lead),
            )
        )
        start += every
    return tuple(drains)


def estimate_horizon(jobs: Sequence[Job], total_nodes: int) -> float:
    """Conservative upper estimate of a workload's completion time.

    Used to bound generated disruption traces: last arrival, plus twice
    the aggregate work spread over the whole cluster (schedulers are
    never less than 50% efficient on feasible workloads), plus the
    longest single job. Deterministic in the workload alone. Events
    past the actual last completion simply never fire.
    """
    if not jobs:
        return 1.0
    last_submit = max(j.submit_time for j in jobs)
    work = sum(j.node_seconds for j in jobs)
    longest = max(j.duration for j in jobs)
    return last_submit + 2.0 * work / max(total_nodes, 1) + longest + 1.0


# ---------------------------------------------------------------------------
# Sweepable specs & presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DisruptionSpec:
    """Declarative disruption configuration for experiment sweeps.

    A spec is the picklable, hashable identity that travels through
    the matrix engine and the artifact store; :meth:`build` turns it
    into a concrete :class:`DisruptionTrace` for a given cluster size
    and time horizon. The all-defaults spec means "no disruptions".
    """

    #: Mean time between failures per node (seconds); None disables
    #: failures.
    mtbf: Optional[float] = None
    #: Mean time to repair a failed node (seconds).
    mttr: float = 900.0
    #: ``exponential`` or ``weibull`` up-time distribution.
    failure_model: str = "exponential"
    weibull_shape: float = 1.5
    #: Period between maintenance drains (seconds); None disables drains.
    drain_every: Optional[float] = None
    drain_duration: float = 3600.0
    drain_nodes: int = 0
    drain_lead: float = 1800.0
    #: Offset of the first drain window.
    drain_first: float = 7200.0
    #: Mean time between correlated shocks *per failure domain*
    #: (seconds); None disables correlated failures. Repairs reuse
    #: ``mttr``. Requires a (non-flat, for meaningful domains) cluster
    #: topology at :meth:`build` time; against a flat topology the
    #: single domain is the whole machine.
    rack_mtbf: Optional[float] = None
    #: Fraction of the struck domain each shock takes down, in (0, 1]
    #: (1.0 = the whole rack/switch group dies as one block).
    correlation: float = 1.0
    #: Hierarchy level the shock process runs at: ``rack`` or
    #: ``switch``.
    correlation_level: str = "rack"
    #: Seed for the failure RNG streams.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.failure_model not in ("exponential", "weibull"):
            raise ValueError(
                f"unknown failure model {self.failure_model!r}"
            )
        # Validate eagerly so bad values fail at spec construction
        # (where the CLI's friendly-error path catches them), not
        # later inside build() on a worker process. Chained
        # comparisons: NaN fails every one, so each check also rejects
        # NaN and inf — and every numeric field is checked, drains on
        # or off, because the spec is a hashed cache key.
        for name in ("mtbf", "rack_mtbf", "drain_every"):
            value = getattr(self, name)
            if not (value is None or 0.0 < value < math.inf):
                raise ValueError(
                    f"{name} must be positive and finite, got {value}"
                )
        for name in ("mttr", "weibull_shape", "drain_duration"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {value}"
                )
        for name in ("drain_lead", "drain_first"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(
                    f"{name} must be non-negative and finite, got {value}"
                )
        if not 0.0 < self.correlation <= 1.0:
            raise ValueError(
                f"correlation must be in (0, 1], got {self.correlation}"
            )
        if self.correlation_level not in ("rack", "switch"):
            raise ValueError(
                f"correlation_level must be 'rack' or 'switch', "
                f"got {self.correlation_level!r}"
            )
        if self.drain_every is not None and self.drain_nodes <= 0:
            raise ValueError("drain_every requires drain_nodes >= 1")

    def __bool__(self) -> bool:
        return (
            self.mtbf is not None
            or self.drain_every is not None
            or self.rack_mtbf is not None
        )

    def build(
        self,
        *,
        n_nodes: int,
        horizon: float,
        topology: Optional[ClusterTopology] = None,
    ) -> DisruptionTrace:
        """Materialize the trace for a cluster of *n_nodes* over
        ``[0, horizon)``.

        *topology* drives the correlated (``rack_mtbf``) shock process;
        it defaults to the flat topology, under which the single domain
        is the whole machine. Uncorrelated specs ignore it entirely, so
        pre-topology call sites build identical traces.
        """
        failures: tuple[NodeFailure, ...] = ()
        if self.mtbf is not None:
            if self.failure_model == "weibull":
                failures = weibull_failures(
                    n_nodes=n_nodes, horizon=horizon, mtbf=self.mtbf,
                    mttr=self.mttr, shape=self.weibull_shape, seed=self.seed,
                )
            else:
                failures = exponential_failures(
                    n_nodes=n_nodes, horizon=horizon, mtbf=self.mtbf,
                    mttr=self.mttr, seed=self.seed,
                )
        domain_failures: tuple[DomainFailure, ...] = ()
        if self.rack_mtbf is not None:
            topo = (
                topology.validate_for(n_nodes)
                if topology is not None
                else ClusterTopology.flat(n_nodes)
            )
            domain_failures = correlated_failures(
                topology=topo,
                horizon=horizon,
                domain_mtbf=self.rack_mtbf,
                mttr=self.mttr,
                correlation=self.correlation,
                level=self.correlation_level,
                # Offset stream: a spec with both per-node and
                # correlated processes must not feed the same seed to
                # both generators (their draws would be correlated).
                seed=np.random.SeedSequence((self.seed, 1)),
            )
        drains: tuple[DrainWindow, ...] = ()
        if self.drain_every is not None:
            drains = periodic_drains(
                first_start=self.drain_first,
                every=self.drain_every,
                duration=self.drain_duration,
                nodes=self.drain_nodes,
                horizon=horizon,
                announce_lead=self.drain_lead,
            )
        return DisruptionTrace(
            failures=failures,
            drains=drains,
            domain_failures=domain_failures,
        )

    def signature(self) -> str:
        """Canonical compact identity string ("none" when empty).

        Uncorrelated specs keep the exact pre-topology format, so
        existing store cell keys (and ``--resume`` coverage) survive
        the schema bump untouched.
        """
        if not self:
            return "none"
        parts: list[str] = []
        if self.mtbf is not None:
            parts.append(f"mtbf={self.mtbf:g}")
            parts.append(f"mttr={self.mttr:g}")
            if self.failure_model != "exponential":
                parts.append(
                    f"model={self.failure_model}:{self.weibull_shape:g}"
                )
        if self.rack_mtbf is not None:
            parts.append(f"rack_mtbf={self.rack_mtbf:g}")
            if self.mtbf is None:
                parts.append(f"mttr={self.mttr:g}")
            parts.append(f"corr={self.correlation:g}")
            if self.correlation_level != "rack":
                parts.append(f"level={self.correlation_level}")
        if self.drain_every is not None:
            parts.append(
                f"drain={self.drain_nodes}x{self.drain_duration:g}"
                f"@{self.drain_first:g}+{self.drain_every:g}"
                f"~{self.drain_lead:g}"
            )
        parts.append(f"dseed={self.seed}")
        return ",".join(parts)

    def as_dict(self) -> dict:
        """JSON-serializable form for the artifact store."""
        out: dict = {"signature": self.signature()}
        if self.mtbf is not None:
            out.update(
                mtbf=self.mtbf, mttr=self.mttr,
                failure_model=self.failure_model,
            )
            if self.failure_model == "weibull":
                out["weibull_shape"] = self.weibull_shape
        if self.rack_mtbf is not None:
            out.update(
                rack_mtbf=self.rack_mtbf,
                correlation=self.correlation,
                correlation_level=self.correlation_level,
            )
            out.setdefault("mttr", self.mttr)
        if self.drain_every is not None:
            out.update(
                drain_every=self.drain_every,
                drain_duration=self.drain_duration,
                drain_nodes=self.drain_nodes,
                drain_lead=self.drain_lead,
                drain_first=self.drain_first,
            )
        out["seed"] = self.seed
        return out


def disruption_signature(
    spec: Optional[DisruptionSpec],
    restart_policy: str = "resubmit",
    checkpoint_interval: Optional[float] = None,
) -> str:
    """Full disruption identity of an experiment cell: trace config
    plus recovery semantics. "none" for undisrupted cells, so legacy
    store lines and keys stay comparable."""
    if spec is None or not spec:
        return "none"
    policy = normalize_restart_policy(restart_policy)
    sig = spec.signature()
    sig += f",policy={policy}"
    # The interval only shapes the simulation under checkpointing
    # policies; appending it for resubmit would split physically
    # identical cells into distinct identities (breaking --resume and
    # report grouping).
    if checkpoint_interval is not None and policy != "resubmit":
        sig += f",ckpt={checkpoint_interval:g}"
    return sig


#: Named disruption regimes for CLI/sweep convenience. Calibrated for
#: the paper's 256-node partition and scenario timescales (hundreds to
#: tens of thousands of seconds).
DISRUPTION_PRESETS: dict[str, DisruptionSpec] = {
    "none": DisruptionSpec(),
    #: Occasional single-node failures, quick repairs.
    "flaky": DisruptionSpec(mtbf=200_000.0, mttr=1_200.0),
    #: Rolling maintenance: 32 nodes for an hour, twice a day,
    #: announced 30 minutes ahead.
    "maintenance": DisruptionSpec(
        drain_every=43_200.0, drain_duration=3_600.0, drain_nodes=32,
        drain_lead=1_800.0, drain_first=7_200.0,
    ),
    #: Failures and drains together, aggressive rates — the stress
    #: regime for recovery-aware scheduling studies.
    "hostile": DisruptionSpec(
        mtbf=50_000.0, mttr=2_400.0,
        drain_every=28_800.0, drain_duration=5_400.0, drain_nodes=64,
        drain_lead=3_600.0, drain_first=3_600.0,
    ),
    #: Correlated rack shocks: whole racks die together at an
    #: aggressive per-rack rate, plus background single-node churn.
    #: Pair with a non-flat topology (e.g. --rack-size 32) — this is
    #: the regime where domain-spread placement separates policies.
    "rack_storm": DisruptionSpec(
        mtbf=400_000.0, mttr=1_800.0,
        rack_mtbf=30_000.0, correlation=1.0,
    ),
    #: Rarer, wider blast: a whole switch group (several racks) drops
    #: at once — the largest single-event work loss the blast-radius
    #: metrics track. Pair with --rack-size/--racks-per-switch.
    "switch_outage": DisruptionSpec(
        rack_mtbf=120_000.0, mttr=3_600.0,
        correlation=1.0, correlation_level="switch",
    ),
}


def get_disruption_preset(name: str) -> DisruptionSpec:
    """Look up a preset by name with a helpful error."""
    try:
        return DISRUPTION_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown disruption preset {name!r}; available: "
            f"{', '.join(DISRUPTION_PRESETS)}"
        ) from None


# ---------------------------------------------------------------------------
# Run bookkeeping
# ---------------------------------------------------------------------------

@dataclass(repr=False)
class PreemptionRecord:
    """One kill of a running job by a node failure or a drain.

    ``work_saved`` is the checkpointed node-time the job keeps (per
    node: seconds of progress preserved); ``work_lost`` is what must be
    redone. ``restart_time`` is filled in when the job next starts —
    ``None`` means it was still queued when the run ended (impossible
    in a completed simulation) — and ``requeue latency`` is
    ``restart_time - time``.
    """

    job_id: int
    nodes: int
    start_time: float
    time: float
    reason: str  # "failure" | "drain"
    work_saved: float
    work_lost: float
    restart_time: Optional[float] = None
    #: Failure-domain label (``rack3``) when the kill came from a
    #: correlated shock; ``None`` for independent node failures and
    #: drains. Blast-radius
    #: metrics group on (time, reason, domain) to attribute losses.
    domain: Optional[str] = None

    @property
    def requeue_latency(self) -> Optional[float]:
        if self.restart_time is None:
            return None
        return self.restart_time - self.time

    @property
    def lost_node_seconds(self) -> float:
        return self.nodes * self.work_lost


__all__ = [
    "DISRUPTION_PRESETS",
    "DisruptionSpec",
    "DisruptionTrace",
    "DomainFailure",
    "DrainWindow",
    "NodeFailure",
    "PreemptionRecord",
    "RESTART_POLICIES",
    "correlated_failures",
    "disruption_signature",
    "estimate_horizon",
    "exponential_failures",
    "get_disruption_preset",
    "normalize_restart_policy",
    "periodic_drains",
    "weibull_failures",
]
