"""Cluster resource models.

The paper models a shared partition as two aggregate pools — 256 compute
nodes and 2048 GB of memory (§3.1) — with a *first-fit* allocation
strategy (§3.3): a selected job is placed on the first available set of
resources meeting its requirements, and topology/storage are abstracted
away. :class:`ResourcePool` is that model.

:class:`NodeLevelCluster` is an optional finer-grained model that tracks
per-node memory and performs first-fit over an explicit node list. It
is the reference ``tests/test_integration.py::TestClusterModelAgreement``
checks the aggregate model against: aggregate accounting does not
change scheduling outcomes for the paper's workloads (jobs spread
memory evenly across their nodes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol, runtime_checkable

import numpy as np

from repro.sim.job import Job
from repro.sim.topology import ClusterTopology


@runtime_checkable
class ClusterModel(Protocol):
    """Protocol every cluster resource model implements."""

    total_nodes: int
    total_memory_gb: float

    def can_fit(self, job: Job) -> bool:
        """True if *job* could start right now."""
        ...

    def allocate(self, job: Job) -> None:
        """Reserve resources for *job* (raises if infeasible)."""
        ...

    def release(self, job_id: int) -> None:
        """Free the resources held by *job_id*."""
        ...

    @property
    def free_nodes(self) -> int:
        ...

    @property
    def free_memory_gb(self) -> float:
        ...


class AllocationError(RuntimeError):
    """Raised when an allocation request cannot be satisfied.

    The simulator never lets this happen for validated actions; seeing
    it indicates a scheduler bypassed constraint checking.
    """


@dataclass
class ResourcePool:
    """Aggregate node + memory accounting with first-fit feasibility.

    This is the paper's cluster model: a job fits iff its node request
    is at most the free node count and its memory request at most the
    free memory. Allocations are tracked per job id so releases are
    exact and double-release is detected.

    Parameters
    ----------
    total_nodes:
        Partition node count (paper default 256).
    total_memory_gb:
        Partition memory capacity in GB (paper default 2048).
    topology:
        Optional node → rack → switch hierarchy; defaults to the flat
        single-domain topology, under which every topology-aware code
        path is a no-op and the pool behaves exactly as before.
    """

    total_nodes: int = 256
    total_memory_gb: float = 2048.0
    topology: Optional[ClusterTopology] = None
    _free_nodes: int = field(init=False)
    _free_memory_gb: float = field(init=False)
    _allocations: dict[int, tuple[int, float]] = field(
        init=False, default_factory=dict
    )
    #: Nodes currently out of service (failed or draining); each holds
    #: back one node and an even memory share from the free pool.
    _offline_nodes: int = field(init=False, default=0)
    #: Nodes held per active drain tag (see :meth:`drain_take_idle`).
    _drain_tags: dict[str, int] = field(init=False, default_factory=dict)
    #: Last :meth:`domain_free_nodes` answer and the ``(topology, busy,
    #: idle_end)`` it was computed for — everything it depends on, so
    #: it is reused until one of them moves.
    _domain_free: tuple[tuple, tuple[int, ...]] = field(
        init=False, default=((), ()), repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.total_nodes <= 0:
            raise ValueError("total_nodes must be positive")
        if self.total_memory_gb <= 0:
            raise ValueError("total_memory_gb must be positive")
        if self.topology is None:
            self.topology = ClusterTopology.flat(self.total_nodes)
        else:
            self.topology.validate_for(self.total_nodes)
        self._free_nodes = self.total_nodes
        self._free_memory_gb = float(self.total_memory_gb)

    @property
    def _node_memory_share(self) -> float:
        """Memory an offline node withholds: the even per-node share."""
        return self.total_memory_gb / self.total_nodes

    # -- feasibility ---------------------------------------------------
    def can_fit(self, job: Job) -> bool:
        return (
            job.nodes <= self._free_nodes
            and job.memory_gb <= self._free_memory_gb + 1e-9
        )

    # -- state transitions ---------------------------------------------
    def allocate(self, job: Job) -> None:
        if job.job_id in self._allocations:
            raise AllocationError(f"job {job.job_id} is already allocated")
        if not self.can_fit(job):
            raise AllocationError(
                f"job {job.job_id} needs {job.nodes} nodes / "
                f"{job.memory_gb:g} GB; free: {self._free_nodes} nodes / "
                f"{self._free_memory_gb:g} GB"
            )
        self._allocations[job.job_id] = (job.nodes, job.memory_gb)
        self._free_nodes -= job.nodes
        self._free_memory_gb -= job.memory_gb

    def release(self, job_id: int) -> None:
        try:
            nodes, memory = self._allocations.pop(job_id)
        except KeyError:
            raise AllocationError(f"job {job_id} holds no allocation") from None
        self._free_nodes += nodes
        self._free_memory_gb += memory
        # Guard against drift from repeated float adds.
        if self._free_nodes > self.total_nodes:
            raise AllocationError("node accounting corrupted (over-release)")
        self._free_memory_gb = min(self._free_memory_gb, self.total_memory_gb)

    def reset(self) -> None:
        """Return to the fully idle state."""
        self._allocations.clear()
        self._free_nodes = self.total_nodes
        self._free_memory_gb = float(self.total_memory_gb)
        self._offline_nodes = 0
        self._drain_tags.clear()

    # -- disruptions -----------------------------------------------------
    # The aggregate model has no node identity, so disruptions operate
    # on *occupancy slots*: running allocations are laid out
    # contiguously over [0, allocated nodes) in allocation order, and idle
    # capacity occupies the rest. A failure at slot index i therefore
    # kills the job holding slot i — or an idle node when i falls past
    # the busy region. Free memory can transiently go (slightly)
    # negative when a failure strikes a memory-saturated cluster; every
    # feasibility comparison treats that as "nothing fits", and the
    # books balance exactly on repair.

    def slot_victim(self, node_index: int) -> Optional[int]:
        """Job occupying occupancy slot *node_index*, or ``None`` if the
        slot is idle/offline. Deterministic: allocation (insertion)
        order, which the simulator replays identically under a seed."""
        offset = 0
        for job_id, (nodes, _mem) in self._allocations.items():
            if offset <= node_index < offset + nodes:
                return job_id
            offset += nodes
        return None

    def mark_failed(self, node_index: int) -> bool:
        """Take one (idle) node offline for a failure. Returns False —
        a no-op — when every non-busy node is already offline (the
        abstract slot pointed at a node that is already down); the
        caller must then skip the paired repair too."""
        if self._free_nodes < 1:
            return False
        self._free_nodes -= 1
        self._free_memory_gb -= self._node_memory_share
        self._offline_nodes += 1
        return True

    def mark_repaired(self, node_index: int) -> None:
        """Bring a failed node back into service."""
        if self._offline_nodes < 1:
            raise AllocationError("repair with no offline nodes")
        self._offline_nodes -= 1
        self._free_nodes += 1
        self._free_memory_gb += self._node_memory_share

    def drain_take_idle(
        self, tag: str, within: Optional[range] = None
    ) -> bool:
        """Drain one idle node under *tag*; False if none is idle
        (the simulator must kill a running job first — see
        :meth:`drain_victim`). The aggregate model has no node
        identity, so a domain restriction (*within*) cannot narrow the
        idle pool and is ignored."""
        if self._free_nodes < 1:
            return False
        self._free_nodes -= 1
        self._free_memory_gb -= self._node_memory_share
        self._offline_nodes += 1
        self._drain_tags[tag] = self._drain_tags.get(tag, 0) + 1
        return True

    def drain_victim(self, within: Optional[range] = None) -> Optional[int]:
        """Job to preempt so a drain can proceed: the most recently
        started allocation (the "top" of the slot layout). *within* is
        ignored — see :meth:`drain_take_idle`."""
        if not self._allocations:
            return None
        return next(reversed(self._allocations))

    def drain_release(self, tag: str) -> None:
        """End a drain: every node taken under *tag* returns."""
        count = self._drain_tags.pop(tag, 0)
        self._offline_nodes -= count
        self._free_nodes += count
        self._free_memory_gb += count * self._node_memory_share

    # -- introspection ---------------------------------------------------
    @property
    def free_nodes(self) -> int:
        return self._free_nodes

    @property
    def free_memory_gb(self) -> float:
        return self._free_memory_gb

    @property
    def offline_nodes(self) -> int:
        """Nodes currently failed or draining."""
        return self._offline_nodes

    @property
    def running_job_ids(self) -> list[int]:
        return sorted(self._allocations)

    def domain_free_nodes(self) -> tuple[int, ...]:
        """Free (idle, online) node count per rack.

        The aggregate pool has no node identity, so the count is
        derived from the canonical slot layout the disruption subsystem
        already uses: busy allocations occupy slots ``[0, used)``,
        offline nodes are pinned to the top slots, and the idle region
        is what remains in between — each rack's free count is its
        overlap with that region. Deterministic, and consistent with
        :meth:`slot_victim`'s view of the world.
        """
        topo = self.topology
        assert topo is not None  # set in __post_init__
        busy = self.total_nodes - self._free_nodes - self._offline_nodes
        idle_end = self.total_nodes - self._offline_nodes
        key, free = self._domain_free
        if key != (topo, busy, idle_end):
            out = []
            for rack in range(topo.n_racks):
                nodes = topo.rack_nodes(rack)
                lo = max(nodes.start, busy)
                hi = min(nodes.stop, idle_end)
                out.append(max(0, hi - lo))
            free = tuple(out)
            self._domain_free = ((topo, busy, idle_end), free)
        return free


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
    def _highest_in(mask: np.ndarray, within: Optional[range]) -> int:
        """Highest node index satisfying *mask* inside *within* (the
        whole machine when None); -1 if none does."""
        if within is not None:
            hits = np.flatnonzero(mask[within.start : within.stop])
            return within.start + int(hits[-1]) if hits.size else -1
        hits = np.flatnonzero(mask)
        return int(hits[-1]) if hits.size else -1

    def drain_take_idle(
        self, tag: str, within: Optional[range] = None
    ) -> bool:
        """Drain the highest-indexed idle online node under *tag*.

        With *within* (a domain's node range) only nodes inside that
        block are taken — a rack-scoped maintenance window drains that
        rack, not whichever nodes happen to be idle elsewhere.
        """
        idle = (self._node_owner < 0) & ~self._node_offline
        node = self._highest_in(idle, within)
        if node < 0:
            return False
        self._node_offline[node] = True
        self._drain_tags.setdefault(tag, []).append(node)
        self._agg_cache = None
        return True

    def drain_victim(self, within: Optional[range] = None) -> Optional[int]:
        """Owner of the highest-indexed occupied online node (within
        the given domain block, when restricted)."""
        occupied = (self._node_owner >= 0) & ~self._node_offline
        node = self._highest_in(occupied, within)
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
