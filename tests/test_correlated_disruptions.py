"""Correlated failure domains: generator, spec, and engine semantics.

Mirrors ``tests/test_disruption_regression.py``'s structure for the
domain-level axis PR 4 adds: seeded shock generators, the
``DomainFailure`` event's one-instant / pinned-ordering contract, and
the same-instant tie-breaks between domain failures, single-node
restorations, and arrivals.
"""

import pytest

from repro.schedulers.registry import create_scheduler
from repro.sim.disruptions import (
    DISRUPTION_PRESETS,
    DisruptionSpec,
    DisruptionTrace,
    DomainFailure,
    DrainWindow,
    NodeFailure,
    correlated_failures,
)
from repro.sim.job import Job
from repro.sim.simulator import HPCSimulator
from repro.sim.topology import ClusterTopology

from tests.node_reference import NodeLevelCluster

TOPO = ClusterTopology(n_nodes=256, rack_size=32, racks_per_switch=4)
#: Each rack's node range under its shock label (``rack0`` …).
RACKS = {
    TOPO.domain_label("rack", r): TOPO.domain_nodes("rack", r)
    for r in range(TOPO.n_domains("rack"))
}


def job(jid, submit=0.0, duration=500.0, nodes=8, memory=None, walltime=None):
    return Job(
        job_id=jid, submit_time=submit, duration=duration, nodes=nodes,
        memory_gb=float(nodes) if memory is None else memory,
        walltime=walltime if walltime is not None else duration,
    )


def run_sim(jobs, trace, *, cluster=None, scheduler="fcfs", **kwargs):
    sim = HPCSimulator(
        jobs=list(jobs),
        scheduler=create_scheduler(scheduler, seed=0),
        cluster=cluster if cluster is not None else NodeLevelCluster(
            node_count=16, memory_per_node_gb=64.0,
            topology=ClusterTopology(n_nodes=16, rack_size=4),
        ),
        disruptions=trace,
        **kwargs,
    )
    return sim.run()


class TestDomainFailureValidation:
    def test_basic_construction(self):
        df = DomainFailure(10.0, (0, 1, 2), 20.0, domain="rack0")
        assert df.n_nodes == 3

    def test_rejects_empty_and_unsorted(self):
        with pytest.raises(ValueError):
            DomainFailure(10.0, (), 20.0)
        with pytest.raises(ValueError):
            DomainFailure(10.0, (2, 1), 20.0)
        with pytest.raises(ValueError):
            DomainFailure(10.0, (1, 1), 20.0)
        with pytest.raises(ValueError):
            DomainFailure(10.0, (0,), 5.0)

    def test_trace_rejects_overlapping_shocks_on_same_node(self):
        with pytest.raises(ValueError):
            DisruptionTrace(
                domain_failures=(
                    DomainFailure(10.0, (0, 1), 100.0, domain="rack0"),
                    DomainFailure(50.0, (1, 2), 200.0, domain="rack0"),
                )
            )

    def test_cross_type_overlap_is_tolerated(self):
        # A shock may strike a node that an independent failure already
        # took down; the engine handles it, so validation must not
        # reject the trace.
        trace = DisruptionTrace(
            failures=(NodeFailure(5.0, 0, 500.0),),
            domain_failures=(
                DomainFailure(10.0, (0, 1), 100.0, domain="rack0"),
            ),
        )
        assert trace and trace.n_events == 2


class TestCorrelatedGenerator:
    def test_deterministic(self):
        a = correlated_failures(
            topology=TOPO, horizon=500_000.0, domain_mtbf=40_000.0,
            mttr=2_000.0, seed=7,
        )
        b = correlated_failures(
            topology=TOPO, horizon=500_000.0, domain_mtbf=40_000.0,
            mttr=2_000.0, seed=7,
        )
        assert a == b
        assert a  # the horizon is long enough to produce shocks

    def test_domain_streams_independent_of_domain_count(self):
        # Rack 0's shocks must not change when the machine grows more
        # racks (per-domain spawned streams).
        small = ClusterTopology(n_nodes=64, rack_size=32)
        big = ClusterTopology(n_nodes=256, rack_size=32)
        kw = dict(horizon=500_000.0, domain_mtbf=30_000.0, mttr=1_500.0,
                  seed=3)
        shocks_small = [
            df for df in correlated_failures(topology=small, **kw)
            if df.domain == "rack0"
        ]
        shocks_big = [
            df for df in correlated_failures(topology=big, **kw)
            if df.domain == "rack0"
        ]
        assert shocks_small == shocks_big

    def test_full_correlation_takes_whole_domain(self):
        shocks = correlated_failures(
            topology=TOPO, horizon=500_000.0, domain_mtbf=50_000.0,
            mttr=2_000.0, correlation=1.0, seed=0,
        )
        for df in shocks:
            assert df.nodes == tuple(RACKS[df.domain])

    def test_partial_correlation_block_inside_domain(self):
        shocks = correlated_failures(
            topology=TOPO, horizon=500_000.0, domain_mtbf=50_000.0,
            mttr=2_000.0, correlation=0.25, seed=0,
        )
        assert shocks
        for df in shocks:
            assert df.n_nodes == 8  # 0.25 × 32
            rack = RACKS[df.domain]
            assert df.nodes[0] >= rack.start
            assert df.nodes[-1] < rack.stop
            # Contiguous block.
            assert df.nodes == tuple(
                range(df.nodes[0], df.nodes[0] + df.n_nodes)
            )

    def test_switch_level_shocks_span_racks(self):
        shocks = correlated_failures(
            topology=TOPO, horizon=1_000_000.0, domain_mtbf=200_000.0,
            mttr=3_000.0, level="switch", seed=1,
        )
        assert shocks
        for df in shocks:
            assert df.domain.startswith("switch")
            assert df.n_nodes == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            correlated_failures(
                topology=TOPO, horizon=100.0, domain_mtbf=-1.0, mttr=10.0
            )
        with pytest.raises(ValueError):
            correlated_failures(
                topology=TOPO, horizon=100.0, domain_mtbf=10.0, mttr=10.0,
                correlation=0.0,
            )


class TestSpecKnobs:
    def test_rack_mtbf_enables_the_spec(self):
        spec = DisruptionSpec(rack_mtbf=30_000.0)
        assert spec
        assert spec.signature() != "none"

    def test_signature_unchanged_for_uncorrelated_specs(self):
        # Resume-safety across the schema bump: a PR-3 spec keeps its
        # exact signature string.
        spec = DisruptionSpec(mtbf=60_000.0, mttr=800.0, seed=5)
        assert spec.signature() == "mtbf=60000,mttr=800,dseed=5"

    def test_correlated_signature_carries_knobs(self):
        sig = DisruptionSpec(
            rack_mtbf=30_000.0, correlation=0.5,
            correlation_level="switch",
        ).signature()
        assert "rack_mtbf=30000" in sig
        assert "corr=0.5" in sig
        assert "level=switch" in sig

    def test_build_respects_topology(self):
        spec = DisruptionSpec(rack_mtbf=20_000.0)
        trace = spec.build(
            n_nodes=256, horizon=300_000.0, topology=TOPO
        )
        assert trace.domain_failures
        assert not trace.failures
        with pytest.raises(ValueError):
            spec.build(
                n_nodes=128, horizon=1_000.0, topology=TOPO
            )

    def test_flat_topology_shocks_whole_machine(self):
        spec = DisruptionSpec(rack_mtbf=20_000.0)
        trace = spec.build(n_nodes=64, horizon=300_000.0)
        assert trace.domain_failures
        assert all(df.n_nodes == 64 for df in trace.domain_failures)

    def test_per_node_and_correlated_streams_differ(self):
        spec = DisruptionSpec(mtbf=30_000.0, rack_mtbf=30_000.0, seed=0)
        trace = spec.build(n_nodes=256, horizon=200_000.0, topology=TOPO)
        assert trace.failures and trace.domain_failures
        # The two processes draw from decoupled streams.
        node_times = {f.time for f in trace.failures}
        shock_times = {df.time for df in trace.domain_failures}
        assert not node_times & shock_times

    def test_presets_registered(self):
        assert "rack_storm" in DISRUPTION_PRESETS
        assert "switch_outage" in DISRUPTION_PRESETS
        assert DISRUPTION_PRESETS["rack_storm"].rack_mtbf is not None
        assert (
            DISRUPTION_PRESETS["switch_outage"].correlation_level
            == "switch"
        )


class TestDomainFailureSemantics:
    def test_one_event_kills_every_job_in_block_at_one_instant(self):
        # Jobs 1 and 2 fill nodes 0-3 and 4-7 (racks 0 and 1 under the
        # 4-node rack layout... but with spread placement job2 lands in
        # another rack); strike both racks with one shock.
        jobs = [job(1, nodes=4, duration=1000.0),
                job(2, nodes=4, duration=1000.0)]
        trace = DisruptionTrace(
            domain_failures=(
                DomainFailure(100.0, tuple(range(0, 8)), 5_000.0,
                              domain="switch0"),
            )
        )
        result = run_sim(jobs, trace)
        shock_kills = [p for p in result.preemptions
                       if p.reason == "failure"]
        assert len(shock_kills) == 2
        assert all(p.time == 100.0 for p in shock_kills)
        assert all(p.domain == "switch0" for p in shock_kills)
        # Pinned ordering: victims evicted in first-struck-slot order.
        assert [p.job_id for p in shock_kills] == [1, 2]

    def test_job_spanning_struck_nodes_dies_exactly_once(self):
        jobs = [job(1, nodes=8, duration=1000.0)]
        trace = DisruptionTrace(
            domain_failures=(
                DomainFailure(100.0, tuple(range(0, 8)), 2_000.0),
            )
        )
        result = run_sim(jobs, trace)
        assert len([p for p in result.preemptions
                    if p.reason == "failure"]) == 1

    def test_block_capacity_returns_at_domain_repair(self):
        # 16-node cluster; 12-node job arrives during the outage of
        # nodes 0-7 and can only start once the whole block repairs.
        jobs = [job(1, submit=200.0, nodes=12, duration=100.0)]
        trace = DisruptionTrace(
            domain_failures=(
                DomainFailure(100.0, tuple(range(0, 8)), 1_000.0),
            )
        )
        result = run_sim(jobs, trace)
        (rec,) = result.records
        assert rec.start_time == 1_000.0

    def test_aggregate_pool_shock_overlap_is_noop_per_label(self):
        # Aggregate-model twin of the node-level overlap test: node 0
        # is already down when a shock strikes nodes 0-7, so the shock
        # must take only the 7 fresh labels — never charge an extra
        # free node for the already-offline one.
        from repro.sim.cluster import ResourcePool

        jobs = [job(1, submit=200.0, nodes=8, duration=100.0)]
        trace = DisruptionTrace(
            failures=(NodeFailure(10.0, 0, 10_000.0),),
            domain_failures=(
                DomainFailure(100.0, tuple(range(0, 8)), 500.0,
                              domain="rack0"),
            ),
        )
        result = run_sim(
            jobs, trace,
            cluster=ResourcePool(total_nodes=16, total_memory_gb=1024.0),
        )
        (rec,) = result.records
        # 16 - 1 (node 0) - 7 (fresh shock labels) = 8 free at t=200.
        assert rec.start_time == 200.0

    def test_shock_on_already_offline_node_is_pinned_noop(self):
        # Node 0 fails independently at t=50 (repairs at t=5000). A
        # shock at t=100 strikes nodes 0-3: it takes only 1-3, and its
        # repair at t=500 must NOT resurrect node 0 early.
        jobs = [job(1, submit=600.0, nodes=16, duration=100.0)]
        trace = DisruptionTrace(
            failures=(NodeFailure(50.0, 0, 5_000.0),),
            domain_failures=(
                DomainFailure(100.0, (0, 1, 2, 3), 500.0, domain="rack0"),
            ),
        )
        result = run_sim(jobs, trace)
        (rec,) = result.records
        # The full-machine job waits for node 0's own repair.
        assert rec.start_time == 5_000.0


class TestSameInstantOrdering:
    """Satellite: domain failure vs single-node restoration vs arrival.

    EventKind pins NODE_REPAIR < DOMAIN_FAILURE < ARRIVAL at equal
    timestamps; each test fails if the relative order flips.
    """

    def test_single_node_restoration_applies_before_domain_failure(self):
        # Node 0 is down and repairs at t=100 — the same instant a
        # shock strikes nodes 0-1. Repair-first means the shock takes
        # BOTH nodes (and both return at its repair time); shock-first
        # would skip node 0, leaving it online after its own repair.
        jobs = [job(1, submit=100.0, nodes=15, duration=100.0)]
        trace = DisruptionTrace(
            failures=(NodeFailure(20.0, 0, 100.0),),
            domain_failures=(
                DomainFailure(100.0, (0, 1), 800.0, domain="rack0"),
            ),
        )
        result = run_sim(jobs, trace)
        (rec,) = result.records
        # 15-node job fits only after the shock's repair restores both.
        assert rec.start_time == 800.0

    def test_domain_failure_applies_before_same_instant_arrival(self):
        # A job arriving at the exact shock instant queues against the
        # shrunken cluster.
        jobs = [job(1, submit=100.0, nodes=12, duration=100.0)]
        trace = DisruptionTrace(
            domain_failures=(
                DomainFailure(100.0, tuple(range(0, 8)), 900.0),
            )
        )
        result = run_sim(jobs, trace)
        (rec,) = result.records
        assert rec.start_time == 900.0

    def test_single_node_failure_strikes_before_domain_failure(self):
        # Both a node failure (node 0) and a shock (nodes 0-3) land at
        # t=100 while job 1 occupies nodes 0-3. NODE_FAILURE fires
        # first, so the kill is attributed to the independent failure
        # (domain=None), not the shock.
        jobs = [job(1, nodes=4, duration=1_000.0)]
        trace = DisruptionTrace(
            failures=(NodeFailure(100.0, 0, 2_000.0),),
            domain_failures=(
                DomainFailure(100.0, (0, 1, 2, 3), 600.0, domain="rack0"),
            ),
        )
        result = run_sim(jobs, trace)
        kills = [p for p in result.preemptions if p.reason == "failure"]
        assert len(kills) == 1
        assert kills[0].domain is None

    def test_completion_releases_before_domain_failure(self):
        # Job 1 completes at the exact instant its rack dies: the
        # completion is real (no kill), pinned by COMPLETION < kinds.
        jobs = [job(1, nodes=4, duration=100.0)]
        trace = DisruptionTrace(
            domain_failures=(
                DomainFailure(100.0, (0, 1, 2, 3), 600.0, domain="rack0"),
            )
        )
        result = run_sim(jobs, trace)
        assert not result.preemptions
        (rec,) = result.records
        assert rec.end_time == 100.0


class TestBlastRadiusEndToEnd:
    def test_domain_metrics_reported_only_for_domain_traces(self):
        from repro.metrics.objectives import compute_metrics

        jobs = [job(1, nodes=4, duration=1_000.0),
                job(2, nodes=4, duration=1_000.0)]
        trace = DisruptionTrace(
            domain_failures=(
                DomainFailure(100.0, tuple(range(0, 8)), 5_000.0,
                              domain="switch0"),
            )
        )
        result = run_sim(jobs, trace)
        values = compute_metrics(result).as_dict()
        assert values["n_domain_kills"] == 2.0
        assert values["domains_hit"] == 1.0
        assert values["largest_event_loss_node_hours"] == pytest.approx(
            2 * 4 * 100.0 / 3600.0
        )
        assert result.extras["domain_kills"] == {"switch0": 2}

        plain = DisruptionTrace(failures=(NodeFailure(100.0, 0, 500.0),))
        clean = run_sim([job(1, nodes=4, duration=1_000.0)], plain)
        assert "n_domain_kills" not in compute_metrics(clean).as_dict()
        assert "domain_kills" not in clean.extras

    def test_drain_kills_stay_outside_the_blast_radius(self, object_engine):
        # A shock and a drain in one trace: only the shock names a
        # domain, so only its kills and its one event are counted, on
        # the product engine and the object reference alike.
        from repro.metrics.objectives import compute_metrics

        jobs = [job(1, nodes=4, duration=1_000.0),
                job(2, nodes=4, duration=1_000.0)]
        trace = DisruptionTrace(
            domain_failures=(
                DomainFailure(100.0, tuple(range(0, 8)), 5_000.0,
                              domain="switch0"),
            ),
            drains=(DrainWindow(start=300.0, end=400.0, nodes=16),),
        )
        result = run_sim(jobs, trace)
        shock = [p for p in result.preemptions if p.reason == "failure"]
        drain = [p for p in result.preemptions if p.reason == "drain"]
        assert [p.domain for p in shock] == ["switch0", "switch0"]
        assert drain and all(p.domain is None for p in drain)
        assert result.extras["domain_events"] == 1
        assert result.extras["domain_kills"] == {"switch0": 2}
        assert compute_metrics(result).as_dict()["n_domain_kills"] == 2.0

        with object_engine():
            reference = run_sim(jobs, trace)
        assert reference.preemptions == result.preemptions
        assert reference.records == result.records
        assert reference.extras == result.extras
