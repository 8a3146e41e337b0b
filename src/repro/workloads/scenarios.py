"""The seven benchmark scenarios of paper §3.1.

Each scenario couples a per-job *sampler* (runtime, node and memory
distributions) with an *arrival process*. Parameters follow the paper's
descriptions verbatim where given:

* **Homogeneous Short** — uniform 30–120 s jobs with 2 nodes, 4 GB
  (lightweight CI/test workloads).
* **Heterogeneous Mix** — Gamma(shape=1.5, scale=300) runtimes and
  varied node/memory demands (production-like).
* **Long-Job Dominant** — 20% extremely long jobs (50 000 s, 128 nodes)
  among short ones (500 s, 2 nodes); probes convoy-effect handling.
* **High Parallelism** — large parallel jobs (64–256 nodes) with Gamma
  walltimes (tightly coupled simulations).
* **Resource Sparse** — 1-node, <8 GB, 30–300 s jobs.
* **Bursty + Idle** — alternating short and long jobs with modest
  demands, submitted in bursts separated by idle periods.
* **Adversarial** — one large blocking job (128 nodes, 100 000 s)
  followed by many tiny jobs (1 node, 60 s); exposes convoy effects.

Every sampler draws against the paper's 256-node / 2048 GB partition
and never emits a job that exceeds total capacity.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.workloads.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    PoissonArrivals,
)

#: Cluster the scenarios are calibrated for (paper §3.1).
CLUSTER_NODES = 256
CLUSTER_MEMORY_GB = 2048.0

#: Size of the synthetic user population; per-user fairness (Jain over
#: per-user mean waits) needs multiple users per workload.
DEFAULT_USER_POOL = 8


class JobDraw:
    """One sampled job profile (before ids/arrival times are attached)."""

    __slots__ = ("duration", "nodes", "memory_gb")

    def __init__(self, duration: float, nodes: int, memory_gb: float) -> None:
        self.duration = duration
        self.nodes = nodes
        self.memory_gb = memory_gb

    def clamped(self) -> "JobDraw":
        """Clamp to cluster capacity and sane minima."""
        nodes = int(min(max(self.nodes, 1), CLUSTER_NODES))
        memory = float(min(max(self.memory_gb, 0.5), CLUSTER_MEMORY_GB))
        duration = float(max(self.duration, 1.0))
        return JobDraw(duration, nodes, memory)


Sampler = Callable[[np.random.Generator, int, int], JobDraw]


class Scenario:
    """A named workload scenario: sampler + arrival process + metadata.

    ``heterogeneity`` is the degree of heterogeneity in [0, 1]; it
    feeds the simulated-LLM latency model (reasoning is slower on
    diverse queues, paper §3.7.1).
    """

    __slots__ = (
        "name", "description", "sampler", "arrivals", "heterogeneity",
        "user_pool",
    )

    def __init__(
        self,
        name: str,
        description: str,
        sampler: Sampler,
        arrivals: ArrivalProcess,
        heterogeneity: float = 0.0,
        user_pool: int = DEFAULT_USER_POOL,
    ) -> None:
        self.name = name
        self.description = description
        self.sampler = sampler
        self.arrivals = arrivals
        self.heterogeneity = heterogeneity
        self.user_pool = user_pool

    def sample(self, rng: np.random.Generator, index: int, n: int) -> JobDraw:
        return self.sampler(rng, index, n).clamped()


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def _homogeneous_short(rng: np.random.Generator, i: int, n: int) -> JobDraw:
    return JobDraw(duration=rng.uniform(30.0, 120.0), nodes=2, memory_gb=4.0)


#: Node-count menu for heterogeneous production mixes, weighted toward
#: small jobs the way real traces are, but including full-machine jobs
#: (the paper's Fig. 2 traces show 256-node, up-to-2048 GB jobs in this
#: scenario) — these create the head-blocking that separates schedulers.
_HET_NODES = np.array([1, 2, 4, 8, 16, 32, 64, 128, 256])
_HET_NODE_WEIGHTS = np.array(
    [0.24, 0.20, 0.15, 0.12, 0.10, 0.08, 0.06, 0.03, 0.02]
)


def _heterogeneous_mix(rng: np.random.Generator, i: int, n: int) -> JobDraw:
    duration = rng.gamma(shape=1.5, scale=300.0)
    nodes = int(rng.choice(_HET_NODES, p=_HET_NODE_WEIGHTS))
    if rng.random() < 0.1:
        # Memory-heavy job: demand decoupled from node count.
        memory = rng.uniform(512.0, 2048.0)
    else:
        memory = nodes * rng.uniform(1.0, 8.0)
    return JobDraw(duration=duration, nodes=nodes, memory_gb=memory)


def _long_job_dominant(rng: np.random.Generator, i: int, n: int) -> JobDraw:
    if rng.random() < 0.2:
        return JobDraw(duration=50_000.0, nodes=128, memory_gb=512.0)
    return JobDraw(duration=500.0, nodes=2, memory_gb=8.0)


def _high_parallelism(rng: np.random.Generator, i: int, n: int) -> JobDraw:
    nodes = int(rng.integers(64, CLUSTER_NODES + 1))
    duration = rng.gamma(shape=2.0, scale=400.0)
    per_node_gb = rng.uniform(2.0, 6.0)
    return JobDraw(duration=duration, nodes=nodes, memory_gb=nodes * per_node_gb)


def _resource_sparse(rng: np.random.Generator, i: int, n: int) -> JobDraw:
    return JobDraw(
        duration=rng.uniform(30.0, 300.0),
        nodes=1,
        memory_gb=rng.uniform(1.0, 8.0),
    )


def _bursty_idle(rng: np.random.Generator, i: int, n: int) -> JobDraw:
    # Alternate short and long jobs (paper: "alternates between short and
    # long-running jobs with modest resource demands").
    if i % 2 == 0:
        duration = rng.uniform(60.0, 300.0)
    else:
        duration = rng.uniform(4000.0, 10000.0)
    nodes = int(rng.choice([4, 8, 16, 32]))
    return JobDraw(duration=duration, nodes=nodes, memory_gb=nodes * 4.0)


def _adversarial(rng: np.random.Generator, i: int, n: int) -> JobDraw:
    if i == 0:
        return JobDraw(duration=100_000.0, nodes=128, memory_gb=256.0)
    return JobDraw(duration=60.0, nodes=1, memory_gb=2.0)


def _checkpoint_stress(rng: np.random.Generator, i: int, n: int) -> JobDraw:
    # Long-running, moderately parallel jobs: each holds a big slab of
    # the cluster for hours, so a node failure without checkpointing
    # throws away enormous node-time. The regime where restart policies
    # separate (pair with --mtbf / the "flaky"/"hostile" presets).
    duration = rng.gamma(shape=3.0, scale=6000.0)
    nodes = int(rng.choice([16, 32, 48, 64]))
    return JobDraw(duration=duration, nodes=nodes, memory_gb=nodes * 4.0)


def _rack_storm(rng: np.random.Generator, i: int, n: int) -> JobDraw:
    # Many sub-rack jobs (8-32 nodes, tens of minutes to a few hours):
    # with a 32-node rack topology each job sits inside one or two
    # racks, so a whole-rack shock wipes several jobs at one instant —
    # the blast-radius regime domain-spread placement exists to blunt.
    # Pair with --rack-size 32 and the "rack_storm" preset.
    duration = rng.gamma(shape=2.0, scale=2_000.0)
    nodes = int(rng.choice([8, 16, 24, 32]))
    return JobDraw(duration=duration, nodes=nodes, memory_gb=nodes * 4.0)


def _switch_outage(rng: np.random.Generator, i: int, n: int) -> JobDraw:
    # Wide, long jobs (32-128 nodes) spanning several racks behind one
    # switch group: a switch-level outage is the largest single-event
    # work loss the blast-radius metrics track. Pair with
    # --rack-size 32 --racks-per-switch 4 and the "switch_outage"
    # preset.
    duration = rng.gamma(shape=2.5, scale=4_000.0)
    nodes = int(rng.choice([32, 64, 96, 128]))
    return JobDraw(duration=duration, nodes=nodes, memory_gb=nodes * 3.0)


def _drain_window(rng: np.random.Generator, i: int, n: int) -> JobDraw:
    # Steady mix of medium jobs whose walltimes straddle typical
    # maintenance-window scales: whether a scheduler parks long jobs
    # until after an announced drain (or walks into it) dominates the
    # outcome. Pair with --drain-every / the "maintenance" preset.
    if rng.random() < 0.3:
        duration = rng.uniform(4000.0, 12000.0)  # spans a 1h drain
    else:
        duration = rng.uniform(300.0, 1800.0)  # fits between drains
    nodes = int(rng.choice([2, 4, 8, 16, 32]))
    return JobDraw(duration=duration, nodes=nodes, memory_gb=nodes * 6.0)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

SCENARIOS: dict[str, Scenario] = {
    "homogeneous_short": Scenario(
        name="homogeneous_short",
        description="Uniform 30-120s jobs, 2 nodes / 4 GB (CI/test load)",
        sampler=_homogeneous_short,
        arrivals=PoissonArrivals(rate=1 / 2.0),
        heterogeneity=0.05,
    ),
    "heterogeneous_mix": Scenario(
        name="heterogeneous_mix",
        description=(
            "Gamma(1.5, 300) runtimes, varied node/memory demands "
            "(production mix)"
        ),
        sampler=_heterogeneous_mix,
        arrivals=PoissonArrivals(rate=1 / 8.0),
        heterogeneity=1.0,
    ),
    "long_job_dominant": Scenario(
        name="long_job_dominant",
        description=(
            "20% extremely long 50000s/128-node jobs among 500s/2-node "
            "jobs (convoy effect)"
        ),
        sampler=_long_job_dominant,
        arrivals=PoissonArrivals(rate=1 / 60.0),
        heterogeneity=0.7,
    ),
    "high_parallelism": Scenario(
        name="high_parallelism",
        description=(
            "Large 64-256 node jobs with Gamma walltimes (tightly "
            "coupled simulations)"
        ),
        sampler=_high_parallelism,
        arrivals=PoissonArrivals(rate=1 / 120.0),
        heterogeneity=0.6,
    ),
    "resource_sparse": Scenario(
        name="resource_sparse",
        description="1-node, <8 GB, 30-300s jobs (sparse lightweight load)",
        sampler=_resource_sparse,
        arrivals=PoissonArrivals(rate=1 / 10.0),
        heterogeneity=0.1,
    ),
    "bursty_idle": Scenario(
        name="bursty_idle",
        description=(
            "Alternating short/long jobs with modest demands, bursty "
            "submissions with idle gaps"
        ),
        sampler=_bursty_idle,
        arrivals=BurstyArrivals(burst_size=12, burst_rate=0.5, idle_gap=1800.0),
        heterogeneity=0.5,
    ),
    "adversarial": Scenario(
        name="adversarial",
        description=(
            "One 128-node/100000s blocking job followed by many 1-node/60s "
            "jobs (stress test)"
        ),
        sampler=_adversarial,
        arrivals=PoissonArrivals(rate=1 / 5.0),
        heterogeneity=0.3,
    ),
    # -- failure-themed scenarios (beyond the paper's seven): workload
    # shapes built to stress the disruption subsystem. The disruption
    # regime itself is orthogonal — attach one via run_single(
    # disruptions=...) or the CLI --disruptions/--mtbf/--drain-* flags.
    "checkpoint_stress": Scenario(
        name="checkpoint_stress",
        description=(
            "Hours-long 16-64 node jobs; node failures without "
            "checkpointing waste massive node-time (pair with --mtbf)"
        ),
        sampler=_checkpoint_stress,
        arrivals=PoissonArrivals(rate=1 / 300.0),
        heterogeneity=0.5,
    ),
    "drain_window": Scenario(
        name="drain_window",
        description=(
            "Mixed 300s-12000s jobs around maintenance-window scales "
            "(pair with --drain-every / the maintenance preset)"
        ),
        sampler=_drain_window,
        arrivals=PoissonArrivals(rate=1 / 60.0),
        heterogeneity=0.6,
    ),
    "rack_storm": Scenario(
        name="rack_storm",
        description=(
            "8-32 node sub-rack jobs; whole-rack shocks kill several "
            "at once (pair with --rack-size 32 / the rack_storm preset)"
        ),
        sampler=_rack_storm,
        arrivals=PoissonArrivals(rate=1 / 120.0),
        heterogeneity=0.5,
    ),
    "switch_outage": Scenario(
        name="switch_outage",
        description=(
            "Wide 32-128 node jobs spanning racks; a switch-group "
            "outage maximizes single-event loss (pair with "
            "--racks-per-switch / the switch_outage preset)"
        ),
        sampler=_switch_outage,
        arrivals=PoissonArrivals(rate=1 / 240.0),
        heterogeneity=0.6,
    ),
}

#: Canonical ordering used in figures (Fig. 3 shows six of the seven —
#: heterogeneous_mix is covered separately in the scalability analysis).
SCENARIO_NAMES: tuple[str, ...] = tuple(SCENARIOS)

#: The paper's original seven scenarios (§3.1).
PAPER_SCENARIOS: tuple[str, ...] = (
    "homogeneous_short",
    "heterogeneous_mix",
    "long_job_dominant",
    "high_parallelism",
    "resource_sparse",
    "bursty_idle",
    "adversarial",
)

#: Scenarios added for the disruption subsystem (not in the paper).
FAILURE_SCENARIOS: tuple[str, ...] = (
    "checkpoint_stress",
    "drain_window",
    "rack_storm",
    "switch_outage",
)

#: The six scenarios plotted in Fig. 3 (§3.5 excludes heterogeneous_mix).
FIGURE3_SCENARIOS: tuple[str, ...] = tuple(
    name for name in PAPER_SCENARIOS if name != "heterogeneous_mix"
)

#: Queue sizes instantiated per scenario in the paper.
PAPER_JOB_COUNTS: tuple[int, ...] = (10, 20, 40, 60, 80, 100)


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name with a helpful error."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIOS)}"
        ) from None
