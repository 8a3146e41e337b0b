"""Unit tests for the cluster resource models."""

import ast

import pytest

from repro.sim.cluster import AllocationError, ResourcePool

from tests.conftest import make_job
from tests.node_reference import NodeLevelCluster
from tests.test_src_shape import SRC, is_cluster

#: The modules that hold a cluster and read it.
CLUSTER_READERS = (
    "sim/engine.py", "sim/simulator.py", "sim/constraints.py",
    "experiments/runner.py",
)


class TestResourcePoolBasics:
    def test_defaults_match_paper(self):
        pool = ResourcePool()
        assert pool.total_nodes == 256
        assert pool.total_memory_gb == 2048.0

    def test_initially_idle(self):
        pool = ResourcePool(total_nodes=8, total_memory_gb=64.0)
        assert pool.free_nodes == 8
        assert pool.free_memory_gb == 64.0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResourcePool(total_nodes=0)
        with pytest.raises(ValueError):
            ResourcePool(total_memory_gb=-1.0)


class TestAllocation:
    def test_allocate_reduces_free(self):
        pool = ResourcePool(total_nodes=8, total_memory_gb=64.0)
        pool.allocate(make_job(1, nodes=3, memory=16.0))
        assert pool.free_nodes == 5
        assert pool.free_memory_gb == 48.0
        assert pool.running_job_ids == [1]

    def test_release_restores(self):
        pool = ResourcePool(total_nodes=8, total_memory_gb=64.0)
        pool.allocate(make_job(1, nodes=3, memory=16.0))
        pool.release(1)
        assert pool.free_nodes == 8
        assert pool.free_memory_gb == 64.0
        assert pool.running_job_ids == []

    def test_can_fit_checks_both_dimensions(self):
        pool = ResourcePool(total_nodes=8, total_memory_gb=64.0)
        assert pool.can_fit(make_job(1, nodes=8, memory=64.0))
        assert not pool.can_fit(make_job(2, nodes=9, memory=1.0))
        assert not pool.can_fit(make_job(3, nodes=1, memory=65.0))

    def test_allocate_infeasible_raises(self):
        pool = ResourcePool(total_nodes=2, total_memory_gb=8.0)
        with pytest.raises(AllocationError, match="needs"):
            pool.allocate(make_job(1, nodes=4, memory=1.0))

    def test_double_allocate_raises(self):
        pool = ResourcePool()
        pool.allocate(make_job(1))
        with pytest.raises(AllocationError, match="already allocated"):
            pool.allocate(make_job(1))

    def test_release_unknown_raises(self):
        with pytest.raises(AllocationError, match="no allocation"):
            ResourcePool().release(99)


class TestUtilization:
    def test_reset(self):
        pool = ResourcePool()
        pool.allocate(make_job(1, nodes=10, memory=10.0))
        pool.reset()
        assert pool.free_nodes == 256
        assert pool.running_job_ids == []


class TestNodeLevelCluster:
    def test_aggregate_capacity(self):
        cluster = NodeLevelCluster(node_count=4, memory_per_node_gb=8.0)
        assert cluster.total_nodes == 4
        assert cluster.total_memory_gb == 32.0

    def test_allocate_marks_nodes(self):
        cluster = NodeLevelCluster(node_count=4, memory_per_node_gb=8.0)
        cluster.allocate(make_job(1, nodes=2, memory=8.0))
        assert cluster.free_nodes == 2
        assert len(cluster.placement_of(1)) == 2

    def test_first_fit_picks_lowest_indices(self):
        cluster = NodeLevelCluster(node_count=4, memory_per_node_gb=8.0)
        cluster.allocate(make_job(1, nodes=2, memory=4.0))
        assert list(cluster.placement_of(1)) == [0, 1]
        cluster.allocate(make_job(2, nodes=1, memory=4.0))
        assert list(cluster.placement_of(2)) == [2]

    def test_release_restores_nodes(self):
        cluster = NodeLevelCluster(node_count=4, memory_per_node_gb=8.0)
        cluster.allocate(make_job(1, nodes=3, memory=6.0))
        # Nodes are exclusive, so memory accounting is whole-node.
        assert cluster.free_memory_gb == pytest.approx(8.0)
        cluster.release(1)
        assert cluster.free_nodes == 4
        assert cluster.free_memory_gb == pytest.approx(32.0)

    def test_per_node_memory_constraint(self):
        # 4 nodes × 8 GB each: a 1-node 16 GB job can never run even
        # though aggregate memory suffices.
        cluster = NodeLevelCluster(node_count=4, memory_per_node_gb=8.0)
        job = make_job(1, nodes=1, memory=16.0)
        assert not cluster.can_fit(job)
        # The aggregate model would accept it — the models differ here.
        assert ResourcePool(total_nodes=4, total_memory_gb=32.0).can_fit(job)

    def test_memory_spread_across_nodes(self):
        cluster = NodeLevelCluster(node_count=4, memory_per_node_gb=8.0)
        # 2 nodes × 8 GB/node needed; 16 GB over 2 nodes fits exactly.
        assert cluster.can_fit(make_job(1, nodes=2, memory=16.0))

    def test_nodes_are_exclusive(self):
        # Node allocation is exclusive: once a job owns a node, no other
        # job can run there regardless of leftover memory.
        cluster = NodeLevelCluster(node_count=2, memory_per_node_gb=8.0)
        cluster.allocate(make_job(1, nodes=2, memory=2.0))
        assert cluster.free_nodes == 0
        assert not cluster.can_fit(make_job(2, nodes=1, memory=1.0))

    def test_partial_allocation_leaves_free_nodes(self):
        cluster = NodeLevelCluster(node_count=2, memory_per_node_gb=8.0)
        cluster.allocate(make_job(1, nodes=1, memory=8.0))
        # Per-node demand above capacity never fits the free node...
        assert not cluster.can_fit(make_job(2, nodes=1, memory=10.0))
        # ...but a full-node memory demand does.
        assert cluster.can_fit(make_job(3, nodes=1, memory=8.0))

    def test_double_allocate_raises(self):
        cluster = NodeLevelCluster(node_count=4)
        cluster.allocate(make_job(1, nodes=1, memory=1.0))
        with pytest.raises(AllocationError):
            cluster.allocate(make_job(1, nodes=1, memory=1.0))

    def test_release_unknown_raises(self):
        with pytest.raises(AllocationError):
            NodeLevelCluster(node_count=4).release(5)

    def test_reset(self):
        cluster = NodeLevelCluster(node_count=4, memory_per_node_gb=8.0)
        cluster.allocate(make_job(1, nodes=4, memory=32.0))
        cluster.reset()
        assert cluster.free_nodes == 4
        assert cluster.free_memory_gb == pytest.approx(32.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeLevelCluster(node_count=0)
        with pytest.raises(ValueError):
            NodeLevelCluster(memory_per_node_gb=0.0)


def cluster_reads() -> set[str]:
    """Every attribute :data:`CLUSTER_READERS` reads off a cluster."""
    trees = [
        ast.parse((SRC / module).read_text(encoding="utf-8"))
        for module in CLUSTER_READERS
    ]
    return {
        node.attr for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and is_cluster(node.value)
    }


class TestClusterSeam:
    """No ``Protocol`` ties the pool to the per-node reference any more;
    this does, for exactly what the package reads."""

    def test_the_collector_sees_the_engine_seam(self):
        assert cluster_reads() >= {
            "allocate", "release", "reset", "topology", "slot_victim",
            "mark_failed", "mark_repaired", "drain_take_idle",
            "drain_victim", "drain_release", "free_nodes",
            "free_memory_gb", "total_nodes", "total_memory_gb",
            "offline_nodes", "domain_free_nodes",
        }

    @pytest.mark.parametrize("model", [
        ResourcePool(total_nodes=8, total_memory_gb=64.0),
        NodeLevelCluster(node_count=8, memory_per_node_gb=8.0),
    ], ids=["pool", "nodes"])
    def test_both_models_provide_every_attribute_read(self, model):
        assert sorted(
            name for name in cluster_reads() if not hasattr(model, name)
        ) == []
