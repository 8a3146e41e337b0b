"""The cluster resource model.

The paper models a shared partition as two aggregate pools — 256 compute
nodes and 2048 GB of memory (§3.1) — with a *first-fit* allocation
strategy (§3.3): a selected job is placed on the first available set of
resources meeting its requirements, and topology/storage are abstracted
away. :class:`ResourcePool` is that model, and the only one the package
ships; the engine reads its attributes directly.

A per-node model that tracks each node's memory and owner is kept as a
test reference in ``tests/node_reference.py``; ``tests/test_integration.py``
checks against it that aggregate accounting does not change scheduling
outcomes for the paper's workloads (jobs spread memory evenly across
their nodes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sim.job import Job
from repro.sim.topology import ClusterTopology


class AllocationError(RuntimeError):
    """Raised when an allocation request cannot be satisfied.

    The simulator never lets this happen for validated actions; seeing
    it indicates a scheduler bypassed constraint checking.
    """


@dataclass(eq=False, repr=False)
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

    def drain_take_idle(self, tag: str) -> bool:
        """Drain one idle node under *tag*; False if none is idle
        (the simulator must kill a running job first — see
        :meth:`drain_victim`)."""
        if self._free_nodes < 1:
            return False
        self._free_nodes -= 1
        self._free_memory_gb -= self._node_memory_share
        self._offline_nodes += 1
        self._drain_tags[tag] = self._drain_tags.get(tag, 0) + 1
        return True

    def drain_victim(self) -> Optional[int]:
        """Job to preempt so a drain can proceed: the most recently
        started allocation (the "top" of the slot layout)."""
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
