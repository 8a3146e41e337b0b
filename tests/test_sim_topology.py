"""Unit tests for the cluster topology layer."""

import pickle

import pytest

from repro.sim.cluster import ResourcePool
from repro.sim.job import Job
from repro.sim.topology import (
    ClusterTopology,
    topology_signature,
)

from tests.node_reference import NodeLevelCluster


def topo(n=256, rack=32, per_switch=4):
    return ClusterTopology(
        n_nodes=n, rack_size=rack, racks_per_switch=per_switch
    )


class TestShape:
    def test_counts(self):
        t = topo()
        assert t.n_racks == 8
        assert t.n_switches == 2
        assert not t.is_flat

    def test_ragged_last_rack(self):
        t = ClusterTopology(n_nodes=100, rack_size=32)
        assert t.n_racks == 4
        assert t.rack_nodes(3) == range(96, 100)

    def test_flat_constructor(self):
        t = ClusterTopology.flat(256)
        assert t.is_flat
        assert t.n_racks == 1
        assert t.n_switches == 1
        assert t.rack_nodes(0) == range(0, 256)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterTopology(n_nodes=0, rack_size=1)
        with pytest.raises(ValueError):
            ClusterTopology(n_nodes=16, rack_size=0)
        with pytest.raises(ValueError):
            ClusterTopology(n_nodes=16, rack_size=32)
        with pytest.raises(ValueError):
            ClusterTopology(n_nodes=16, rack_size=4, racks_per_switch=0)


class TestMembership:
    def test_racks_tile_the_machine_in_contiguous_blocks(self):
        t = topo()
        tiled = [n for r in range(t.n_racks) for n in t.rack_nodes(r)]
        assert tiled == list(range(256))
        assert t.rack_nodes(0) == range(0, 32)
        assert t.rack_nodes(7) == range(224, 256)
        with pytest.raises(IndexError):
            t.rack_nodes(8)
        with pytest.raises(IndexError):
            t.rack_nodes(-1)

    def test_switch_of_groups_racks(self):
        t = topo()
        assert t.switch_nodes(0) == range(0, 128)
        assert t.switch_nodes(1) == range(128, 256)

    def test_domain_levels(self):
        t = topo()
        assert t.n_domains("rack") == 8
        assert t.n_domains("switch") == 2
        assert t.domain_nodes("rack", 2) == range(64, 96)
        assert t.domain_nodes("switch", 0) == range(0, 128)
        with pytest.raises(ValueError):
            t.n_domains("pdu")

    def test_domain_labels_round_trip(self):
        t = topo()
        assert t.domain_label("rack", 3) == "rack3"
        assert t.domain_label("switch", 1) == "switch1"
        for level, nodes_of in (
            ("rack", t.rack_nodes), ("switch", t.switch_nodes)
        ):
            for index in range(t.n_domains(level)):
                label = t.domain_label(level, index)
                back = int(label.removeprefix(level))
                assert t.domain_nodes(level, back) == nodes_of(index)
        with pytest.raises(ValueError):
            t.domain_label("pdu", 7)


class TestIdentity:
    def test_signatures(self):
        assert topology_signature(None) == "flat"
        assert ClusterTopology.flat(256).signature() == "flat"
        assert ClusterTopology(256, 32).signature() == "rack32"
        assert topo().signature() == "rack32x4"

    def test_hashable_and_picklable(self):
        t = topo()
        assert hash(t) == hash(topo())
        assert pickle.loads(pickle.dumps(t)) == t


class TestClusterIntegration:
    def test_default_clusters_get_flat_topology(self):
        assert ResourcePool().topology.is_flat
        assert NodeLevelCluster().topology.is_flat

    def test_mismatched_topology_rejected(self):
        with pytest.raises(ValueError):
            ResourcePool(total_nodes=128, topology=topo(n=256))
        with pytest.raises(ValueError):
            NodeLevelCluster(node_count=128, topology=topo(n=256))

    def test_pool_domain_free_nodes_tracks_slots(self):
        pool = ResourcePool(total_nodes=256, topology=topo())
        assert pool.domain_free_nodes() == (32,) * 8
        pool.allocate(Job(job_id=1, submit_time=0.0, duration=10.0,
                          nodes=48, memory_gb=64.0))
        # Slot model: busy region [0, 48) covers rack0 and half rack1.
        assert pool.domain_free_nodes() == (0, 16, 32, 32, 32, 32, 32, 32)
        assert sum(pool.domain_free_nodes()) == pool.free_nodes

    def test_node_level_domain_free_nodes_exact(self):
        cluster = NodeLevelCluster(node_count=256, topology=topo())
        free = cluster.domain_free_nodes()
        assert free == (32,) * 8
        cluster.allocate(Job(job_id=1, submit_time=0.0, duration=10.0,
                             nodes=40, memory_gb=40.0))
        assert sum(cluster.domain_free_nodes()) == cluster.free_nodes

    def test_spread_placement_balances_racks(self):
        cluster = NodeLevelCluster(node_count=256, topology=topo())

        def job(jid, nodes=16):
            return Job(job_id=jid, submit_time=0.0, duration=10.0,
                       nodes=nodes, memory_gb=float(nodes))

        cluster.allocate(job(1))
        cluster.allocate(job(2))
        racks = {
            int(cluster.placement_of(jid)[0]) // 32 for jid in (1, 2)
        }
        # Spread: the second job lands in a different (fuller-free)
        # rack instead of first-fitting next to the first.
        assert len(racks) == 2

    def test_flat_cluster_places_like_legacy_first_fit(self):
        flat = NodeLevelCluster(node_count=256)
        legacy_expected = list(range(16))
        flat.allocate(Job(job_id=1, submit_time=0.0, duration=10.0,
                          nodes=16, memory_gb=16.0))
        assert list(flat.placement_of(1)) == legacy_expected

    def test_wide_job_falls_back_to_global_first_fit(self):
        cluster = NodeLevelCluster(node_count=256, topology=topo())
        cluster.allocate(Job(job_id=1, submit_time=0.0, duration=10.0,
                             nodes=64, memory_gb=64.0))
        assert list(cluster.placement_of(1)) == list(range(64))

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(
                lambda: ResourcePool(total_nodes=256, topology=topo()),
                id="pool",
            ),
            pytest.param(
                lambda: NodeLevelCluster(node_count=256, topology=topo()),
                id="node",
            ),
        ],
    )
    def test_drain_takes_the_top_of_the_machine(self, make):
        # A drain names no rack: it takes the highest idle nodes, across
        # rack boundaries, on both cluster models.
        cluster = make()
        cluster.allocate(Job(job_id=1, submit_time=0.0, duration=10.0,
                             nodes=48, memory_gb=48.0))
        for _ in range(40):
            assert cluster.drain_take_idle("drain:0")
        assert cluster.domain_free_nodes() == (0, 16, 32, 32, 32, 32, 24, 0)
        while cluster.drain_take_idle("drain:0"):
            pass
        assert cluster.free_nodes == 0
        assert cluster.domain_free_nodes() == (0,) * 8
        assert cluster.drain_victim() == 1
        cluster.drain_release("drain:0")
        assert cluster.free_nodes == 256 - 48
        assert cluster.domain_free_nodes() == (0, 16) + (32,) * 6
