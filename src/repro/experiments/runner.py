"""Single-run experiment execution.

An :class:`ExperimentRun` bundles everything one (workload, scheduler)
simulation produced: the schedule, the metric report, and — for LLM
agents — the overhead summary computed per the paper's §3.7.1
accounting (only accepted ``start_job``/``backfill_job`` calls count
toward elapsed scheduling time; delay calls reflect saturation, not
reasoning cost). A :class:`MatrixCell` names one run of the evaluation
grid, and refuses to name one that cannot run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from repro.analysis.stats import LatencySummary, summarize_latencies
from repro.metrics.objectives import MetricReport, compute_metrics
from repro.schedulers.registry import check_scheduler, create_scheduler
from repro.sim.cluster import ResourcePool
from repro.sim.disruptions import (
    DisruptionSpec,
    DisruptionTrace,
    check_recovery,
    disruption_signature,
    estimate_horizon,
)
from repro.sim.job import Job
from repro.sim.schedule import ScheduleResult
from repro.sim.simulator import HPCSimulator
from repro.sim.topology import ClusterTopology, topology_signature
from repro.workloads.generator import ArrivalMode, check_arrival_mode, generate_workload
from repro.workloads.scenarios import SCENARIOS

#: The paper's §3.3 comparison set, in figure-legend order.
DEFAULT_SCHEDULERS: tuple[str, ...] = (
    "fcfs",
    "sjf",
    "ortools_like",
    "claude-3.7-sim",
    "o4-mini-sim",
)

#: The LLM entries of the comparison set.
LLM_SCHEDULERS: tuple[str, ...] = ("claude-3.7-sim", "o4-mini-sim")


class OverheadSummary:
    """LLM computational overhead of one run (paper §3.7).

    ``elapsed_s`` is the total virtual scheduling time — the sum of
    per-call latencies over *accepted placement* calls. ``n_calls``
    counts every LLM query (the paper's middle panels count calls ≈
    job count plus backfill variation).
    """

    __slots__ = (
        "model", "elapsed_s", "n_calls", "n_accepted_placements",
        "n_rejected", "latency",
    )

    def __init__(
        self,
        model: str,
        elapsed_s: float,
        n_calls: int,
        n_accepted_placements: int,
        n_rejected: int,
        latency: LatencySummary,
    ) -> None:
        self.model = model
        self.elapsed_s = elapsed_s
        self.n_calls = n_calls
        self.n_accepted_placements = n_accepted_placements
        self.n_rejected = n_rejected
        self.latency = latency

    @classmethod
    def from_result(cls, result: ScheduleResult) -> Optional["OverheadSummary"]:
        calls = result.extras.get("llm_calls")
        if calls is None:
            return None
        accepted_placements = [
            c for c in calls if c.accepted and c.is_placement
        ]
        lat = [c.latency_s for c in accepted_placements]
        return cls(
            model=result.extras.get("model", result.scheduler_name),
            elapsed_s=float(sum(lat)),
            n_calls=len(calls),
            n_accepted_placements=len(accepted_placements),
            n_rejected=sum(1 for c in calls if not c.accepted),
            latency=summarize_latencies(lat),
        )


#: Identity of one matrix cell: (scenario, n_jobs, scheduler,
#: workload_seed, scheduler_seed, arrival_mode, disruption_sig,
#: topology_sig). arrival_mode is part of the identity because the
#: same (scenario, seed) generates a different workload under "zero"
#: arrivals; disruption_sig because the same workload under a
#: different failure regime (or restart policy) is a different
#: experiment; topology_sig because a correlated regime's trace (and
#: spread placement) depends on the rack layout — resume must not
#: treat one regime's runs as covering another.
CellKey = tuple[str, int, str, int, int, str, str, str]


def cell_key(
    scenario: str,
    n_jobs: int,
    scheduler: str,
    workload_seed: int,
    scheduler_seed: int,
    arrival_mode: str = "scenario",
    disruption: str = "none",
    topology: str = "flat",
) -> CellKey:
    """Canonical dictionary/set key for one experiment cell."""
    return (scenario, int(n_jobs), scheduler, int(workload_seed),
            int(scheduler_seed), str(arrival_mode), str(disruption),
            str(topology))


@dataclass(frozen=True)
class MatrixCell:
    """Identity of one independent simulation in a sweep.

    The disruption and topology fields ride along because a worker
    must be able to reconstruct the cell bit-for-bit from the cell
    alone: spec and topology are frozen/picklable plain data, and the
    trace they build depends only on (spec, topology, cluster size,
    workload) — never on which worker runs it.

    The constructor is the one check of a cell's parameters: a cell
    that cannot run (unknown scheduler, scenario or arrival mode, a
    negative size or seed, a broken recovery rule) is a ``ValueError``
    naming the field. The restart policy is stored canonical.
    """

    scenario: str
    n_jobs: int
    scheduler: str
    workload_seed: int = 0
    scheduler_seed: int = 0
    arrival_mode: ArrivalMode = "scenario"
    disruptions: Optional[DisruptionSpec] = None
    restart_policy: str = "resubmit"
    checkpoint_interval: Optional[float] = None
    topology: Optional[ClusterTopology] = None

    def __post_init__(self) -> None:
        check_scheduler(self.scheduler)
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; "
                f"available: {', '.join(SCENARIOS)}"
            )
        for name in ("n_jobs", "workload_seed", "scheduler_seed"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )
        check_arrival_mode(self.arrival_mode)
        object.__setattr__(self, "restart_policy", check_recovery(
            self.restart_policy, self.checkpoint_interval
        ))

    @property
    def key(self) -> CellKey:
        return cell_key(
            self.scenario,
            self.n_jobs,
            self.scheduler,
            self.workload_seed,
            self.scheduler_seed,
            self.arrival_mode,
            disruption_signature(
                self.disruptions,
                self.restart_policy,
                self.checkpoint_interval,
            ),
            topology_signature(self.topology),
        )

    # -- lossless config round-trip --------------------------------------
    # The CellKey alone cannot rebuild a cell: its disruption/topology
    # parts are opaque signature strings. to_config()/from_config()
    # carry the actual constructor arguments, so a quarantined cell's
    # sidecar record is enough to re-run it (`matrix --retry-failed`).
    def to_config(self) -> dict:
        """JSON-safe dict from which :meth:`from_config` rebuilds the
        cell exactly (``from_config(to_config()) == cell``)."""
        return asdict(self)

    @classmethod
    def from_config(cls, config: dict) -> "MatrixCell":
        """Inverse of :meth:`to_config`; raises ``ValueError`` on a
        malformed dict (e.g. hand-edited sidecar). Keys it does not
        know are ignored, so configs written before the ``"engine"``
        key was retired (older sidecars and clients) still load."""
        # A window is refused rather than ignored: dropping it would
        # run full search under the plain scheduler key.
        if config.get("anneal_window") is not None:
            raise ValueError(
                "windowed annealing was removed: a cell config's "
                "anneal_window must be null or absent"
            )
        try:
            disruptions = None
            if config.get("disruptions") is not None:
                disruptions = DisruptionSpec(**config["disruptions"])
            topology = None
            if config.get("topology") is not None:
                topology = ClusterTopology(**config["topology"])
            checkpoint = config.get("checkpoint_interval")
            return cls(
                scenario=str(config["scenario"]),
                n_jobs=int(config["n_jobs"]),
                scheduler=str(config["scheduler"]),
                workload_seed=int(config["workload_seed"]),
                scheduler_seed=int(config["scheduler_seed"]),
                arrival_mode=str(config["arrival_mode"]),
                disruptions=disruptions,
                restart_policy=str(config["restart_policy"]),
                checkpoint_interval=(
                    float(checkpoint) if checkpoint is not None else None
                ),
                topology=topology,
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed cell config: {exc}") from exc


@dataclass(eq=False, repr=False)
class ExperimentRun:
    """One simulated (workload, scheduler) pair with its measurements."""

    scenario: str
    n_jobs: int
    scheduler: str
    workload_seed: int
    scheduler_seed: int
    result: ScheduleResult
    metrics: MetricReport
    overhead: Optional[OverheadSummary]
    #: Arrival process the workload was generated with; part of the
    #: cell identity (a "zero" run is a different experiment than a
    #: "scenario" run of the same seed).
    arrival_mode: str = "scenario"
    #: Canonical disruption identity (trace config + restart policy);
    #: "none" for undisrupted cells. Part of the cell identity: the
    #: same seeds under a different failure regime are a different
    #: experiment. Named like StoredRun's field (whose ``disruption``
    #: is the config dict) so consumers see one attribute, one type.
    disruption_sig: str = "none"
    #: The spec the cell ran under (None for undisrupted cells);
    #: serialized into the artifact store's disruption column.
    disruption_spec: Optional[DisruptionSpec] = None
    restart_policy: str = "resubmit"
    checkpoint_interval: Optional[float] = None
    #: Cluster topology identity; "flat" (no failure domains) unless a
    #: topology was attached. Part of the cell identity — the same
    #: correlated spec builds a different trace on a different layout.
    topology_sig: str = "flat"

    @property
    def values(self) -> dict[str, float]:
        return self.metrics.as_dict()


def run_single(
    scenario: str,
    n_jobs: int,
    scheduler: str,
    *,
    workload_seed: int = 0,
    scheduler_seed: int = 0,
    arrival_mode: ArrivalMode = "scenario",
    jobs: Optional[Sequence[Job]] = None,
    cluster: Optional[ResourcePool] = None,
    topology: Optional[ClusterTopology] = None,
    max_retries: int = 3,
    max_decisions: Optional[int] = None,
    enforce_walltime: bool = False,
    disruptions: Optional[DisruptionSpec] = None,
    restart_policy: str = "resubmit",
    checkpoint_interval: Optional[float] = None,
) -> ExperimentRun:
    """Simulate one scenario instance under one scheduler.

    Parameters
    ----------
    jobs:
        Pre-generated workload override (e.g. a Polaris trace); when
        given, *scenario*/*n_jobs*/*workload_seed* are labels only.
    cluster:
        Cluster model override (defaults to the paper's 256/2048
        partition).
    topology:
        Optional node → rack → switch hierarchy for the default
        cluster; drives correlated-failure traces and spread
        placement, and enters the cell identity.
        To combine with a *cluster* override, attach the topology to
        the cluster directly instead (passing both is an error).
    max_retries / max_decisions / enforce_walltime:
        Forwarded to :class:`HPCSimulator` (retry tolerance, decision
        budget, walltime-kill semantics).
    disruptions:
        Optional :class:`~repro.sim.disruptions.DisruptionSpec`; its
        trace is materialized deterministically from the workload (the
        horizon estimate depends only on the jobs, cluster size, and
        topology), so the same cell identity always replays the same
        disruptions — in-process, across processes, serial or parallel.
    restart_policy / checkpoint_interval:
        Recovery semantics for killed jobs (see
        :class:`~repro.sim.simulator.HPCSimulator`).

    The finished schedule's capacity invariant is always re-verified.
    """
    if jobs is None:
        job_list = generate_workload(
            scenario, n_jobs, seed=workload_seed, arrival_mode=arrival_mode
        )
    else:
        job_list = list(jobs)
    if cluster is not None and topology is not None:
        raise ValueError(
            "pass either cluster= or topology=, not both — attach the "
            "topology to the cluster model instead"
        )
    if cluster is not None:
        the_cluster = cluster
    else:
        the_cluster = ResourcePool(topology=topology)
    the_topology = the_cluster.topology
    trace: Optional[DisruptionTrace] = None
    spec = disruptions if disruptions else None
    if spec is not None:
        trace = spec.build(
            n_nodes=the_cluster.total_nodes,
            horizon=estimate_horizon(job_list, the_cluster.total_nodes),
            topology=the_topology,
        )
    sched = create_scheduler(scheduler, seed=scheduler_seed)
    sim = HPCSimulator(
        jobs=job_list,
        scheduler=sched,
        cluster=the_cluster,
        max_retries=max_retries,
        max_decisions=max_decisions,
        enforce_walltime=enforce_walltime,
        disruptions=trace,
        restart_policy=restart_policy,
        checkpoint_interval=checkpoint_interval,
    )
    result = sim.run()
    result.verify_capacity()
    return ExperimentRun(
        scenario=scenario,
        n_jobs=len(job_list),
        scheduler=scheduler,
        workload_seed=workload_seed,
        scheduler_seed=scheduler_seed,
        result=result,
        metrics=compute_metrics(result),
        overhead=OverheadSummary.from_result(result),
        arrival_mode=arrival_mode,
        disruption_sig=disruption_signature(
            spec, restart_policy, checkpoint_interval
        ),
        disruption_spec=spec,
        restart_policy=restart_policy,
        checkpoint_interval=checkpoint_interval,
        topology_sig=topology_signature(the_topology),
    )
