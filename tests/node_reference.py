"""The per-node cluster model — the reference for the aggregate pool.

The package ships one cluster model, :class:`repro.sim.cluster.ResourcePool`:
the paper's two aggregate pools (nodes and memory) with first-fit
feasibility. This per-node model is the finer-grained check on it and
lives with the tests, outside the installed package:
``tests/test_integration.py::TestClusterModelAgreement`` runs both
models on the same workloads and asserts aggregate accounting does not
change scheduling outcomes (jobs spread memory evenly across their
nodes), and ``tests/test_engine_state.py``'s audit draws it beside the
pool. Node identity is what the pool does not have, so failures strike
real nodes and single-rack jobs go to the emptiest rack — the cases
where a crash in the shared engine shows up only here.

``tests/test_sim_cluster.py`` checks that it still provides every
attribute the engine reads off a cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.sim.cluster import AllocationError
from repro.sim.job import Job
from repro.sim.topology import ClusterTopology


@dataclass
class NodeLevelCluster:
    """Per-node first-fit cluster model.

    Each node has its own memory capacity; a job asking for ``n`` nodes
    and ``m`` GB is placed on the first ``n`` nodes (in index order,
    classic first-fit) that each have at least ``m / n`` GB free. Jobs
    are assumed to spread memory evenly across their nodes, which is how
    both the paper's generator and the Polaris preprocessing derive
    memory demands.

    Exposes the same interface as :class:`ResourcePool` so the simulator
    can run with either model.
    """

    node_count: int = 256
    memory_per_node_gb: float = 8.0
    topology: Optional[ClusterTopology] = None
    _node_free_mem: np.ndarray = field(init=False, repr=False)
    _node_owner: np.ndarray = field(init=False, repr=False)
    #: Per-node out-of-service flag (failed or draining); offline nodes
    #: are excluded from placement candidates and aggregate capacity.
    _node_offline: np.ndarray = field(init=False, repr=False)
    _drain_tags: dict[str, list[int]] = field(
        init=False, default_factory=dict, repr=False
    )
    _placements: dict[int, tuple[np.ndarray, float]] = field(
        init=False, default_factory=dict, repr=False
    )
    #: Cached (free_nodes, free_memory_gb); recomputed with the exact
    #: same numpy reductions on first read after a state change, so the
    #: per-decision aggregate queries are O(1) without any accumulated
    #: float drift an incremental running total would introduce.
    _agg_cache: tuple[int, float] | None = field(
        init=False, default=None, repr=False
    )

    def __post_init__(self) -> None:
        if self.node_count <= 0:
            raise ValueError("node_count must be positive")
        if self.memory_per_node_gb <= 0:
            raise ValueError("memory_per_node_gb must be positive")
        if self.topology is None:
            self.topology = ClusterTopology.flat(self.node_count)
        else:
            self.topology.validate_for(self.node_count)
        self._node_free_mem = np.full(
            self.node_count, float(self.memory_per_node_gb)
        )
        self._node_owner = np.full(self.node_count, -1, dtype=np.int64)
        self._node_offline = np.zeros(self.node_count, dtype=bool)

    # Aggregate capacity view (ClusterModel protocol).
    @property
    def total_nodes(self) -> int:
        return self.node_count

    @property
    def total_memory_gb(self) -> float:
        return self.node_count * self.memory_per_node_gb

    def _aggregates(self) -> tuple[int, float]:
        agg = self._agg_cache
        if agg is None:
            free = (self._node_owner < 0) & ~self._node_offline
            agg = (
                int(free.sum()),
                float(self._node_free_mem[free].sum()),
            )
            self._agg_cache = agg
        return agg

    @property
    def free_nodes(self) -> int:
        return self._aggregates()[0]

    @property
    def free_memory_gb(self) -> float:
        return self._aggregates()[1]

    def _candidate_nodes(self, job: Job) -> np.ndarray | None:
        per_node_mem = job.memory_gb / job.nodes
        free = (self._node_owner < 0) & ~self._node_offline
        enough = self._node_free_mem >= per_node_mem - 1e-9
        eligible = np.flatnonzero(free & enough)
        if eligible.size < job.nodes:
            return None
        topo = self.topology
        if topo is not None and not topo.is_flat:
            # Spread-first-fit: a job that fits inside one rack goes to
            # the rack with the most eligible nodes (ties: lowest rack
            # index), keeping domains evenly loaded so one correlated
            # shock does not wipe out a disproportionate share of the
            # running work. Jobs wider than any single rack's supply
            # fall back to the global first-fit scan. Gated on a
            # non-flat topology: default clusters place identically to
            # the pre-topology code.
            rack_ids = eligible // topo.rack_size
            counts = np.bincount(rack_ids, minlength=topo.n_racks)
            fits = np.flatnonzero(counts >= job.nodes)
            if fits.size:
                best = int(fits[np.argmax(counts[fits])])
                within = eligible[rack_ids == best]
                return within[: job.nodes]
        return eligible[: job.nodes]

    def can_fit(self, job: Job) -> bool:
        return self._candidate_nodes(job) is not None

    def allocate(self, job: Job) -> None:
        if job.job_id in self._placements:
            raise AllocationError(f"job {job.job_id} is already allocated")
        nodes = self._candidate_nodes(job)
        if nodes is None:
            raise AllocationError(
                f"job {job.job_id} does not fit on any {job.nodes} free nodes"
            )
        per_node_mem = job.memory_gb / job.nodes
        self._node_owner[nodes] = job.job_id
        self._node_free_mem[nodes] -= per_node_mem
        self._placements[job.job_id] = (nodes.copy(), per_node_mem)
        self._agg_cache = None

    def release(self, job_id: int) -> None:
        try:
            nodes, per_node_mem = self._placements.pop(job_id)
        except KeyError:
            raise AllocationError(f"job {job_id} holds no allocation") from None
        self._node_owner[nodes] = -1
        self._node_free_mem[nodes] += per_node_mem
        np.minimum(
            self._node_free_mem, self.memory_per_node_gb, out=self._node_free_mem
        )
        self._agg_cache = None

    def reset(self) -> None:
        self._placements.clear()
        self._node_free_mem[:] = self.memory_per_node_gb
        self._node_owner[:] = -1
        self._node_offline[:] = False
        self._drain_tags.clear()
        self._agg_cache = None

    # -- disruptions -----------------------------------------------------
    # Unlike the aggregate pool, nodes have identity here: failures hit
    # the actual node index and drains take the highest-indexed online
    # nodes (idle ones first), killing owners only when necessary.

    def slot_victim(self, node_index: int) -> Optional[int]:
        """Job owning node *node_index* (``None`` if idle or offline)."""
        if not 0 <= node_index < self.node_count:
            return None
        if self._node_offline[node_index]:
            return None
        owner = int(self._node_owner[node_index])
        return owner if owner >= 0 else None

    def mark_failed(self, node_index: int) -> bool:
        """Take node *node_index* offline; the owner (if any) must have
        been killed/released first. False if it is already offline."""
        if not 0 <= node_index < self.node_count:
            return False
        if self._node_offline[node_index]:
            return False
        if self._node_owner[node_index] >= 0:
            raise AllocationError(
                f"node {node_index} still owned by job "
                f"{int(self._node_owner[node_index])}; kill it first"
            )
        self._node_offline[node_index] = True
        self._agg_cache = None
        return True

    def mark_repaired(self, node_index: int) -> None:
        self._node_offline[node_index] = False
        self._agg_cache = None

    @staticmethod
    def _highest_in(mask: np.ndarray) -> int:
        """Highest node index satisfying *mask*; -1 if none does."""
        hits = np.flatnonzero(mask)
        return int(hits[-1]) if hits.size else -1

    def drain_take_idle(self, tag: str) -> bool:
        """Drain the highest-indexed idle online node under *tag*."""
        idle = (self._node_owner < 0) & ~self._node_offline
        node = self._highest_in(idle)
        if node < 0:
            return False
        self._node_offline[node] = True
        self._drain_tags.setdefault(tag, []).append(node)
        self._agg_cache = None
        return True

    def drain_victim(self) -> Optional[int]:
        """Owner of the highest-indexed occupied online node."""
        occupied = (self._node_owner >= 0) & ~self._node_offline
        node = self._highest_in(occupied)
        if node < 0:
            return None
        return int(self._node_owner[node])

    def drain_release(self, tag: str) -> None:
        for node in self._drain_tags.pop(tag, ()):
            self._node_offline[node] = False
        self._agg_cache = None

    @property
    def offline_nodes(self) -> int:
        return int(self._node_offline.sum())

    @property
    def running_job_ids(self) -> list[int]:
        return sorted(self._placements)

    def domain_free_nodes(self) -> tuple[int, ...]:
        """Exact free (idle, online) node count per rack."""
        topo = self.topology
        assert topo is not None  # set in __post_init__
        free = (self._node_owner < 0) & ~self._node_offline
        rack_ids = np.flatnonzero(free) // topo.rack_size
        counts = np.bincount(rack_ids, minlength=topo.n_racks)
        return tuple(int(c) for c in counts)

    def placement_of(self, job_id: int) -> np.ndarray:
        """Node indices assigned to a running job (testing/inspection)."""
        return self._placements[job_id][0].copy()
