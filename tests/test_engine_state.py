"""``EngineState`` from the outside: audit, isolation, shape.

1. **Step-wise invariant audit**: :func:`run_audited` drives
   :meth:`EngineState.step` itself and checks the state after every
   step — node conservation, running-set indexes, lifecycle counters,
   queue order, clock monotonicity — and at the end that every job
   completed exactly once and that the node-hours the running set held
   (integrated independently, step by step) equal goodput + wasted.
   It runs over the ten identity regimes of ``test_soa_regression``
   (where the audited run must also reproduce the pinned digest: the
   audit only reads) and over generated workloads x disruptions under
   ``RandomScheduler``. Nothing in ``src/`` knows about it.
2. **Instances share nothing**: two states stepped alternately digest
   exactly as when run alone.
3. **Shape**: ``engine.py`` keeps no ``nonlocal``, no function longer
   than the recorded maximum, and one decision site.
"""

import ast
import gc
import types
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.engine as engine
from repro.experiments.runner import run_single
from repro.metrics.disruption import goodput_node_hours, wasted_node_hours
from repro.metrics.objectives import compute_metrics
from repro.schedulers.heuristics import RandomScheduler
from repro.schedulers.registry import create_scheduler
from repro.service.protocol import schedule_digest
from repro.sim.cluster import NodeLevelCluster, ResourcePool
from repro.sim.disruptions import DisruptionSpec, estimate_horizon
from repro.sim.engine import EngineState, run_soa
from repro.sim.simulator import HPCSimulator
from repro.sim.topology import ClusterTopology
from repro.workloads.generator import generate_workload

from tests.conftest import _substituted
from tests.test_properties import build_jobs, job_lists
from tests.test_soa_regression import (
    CORRELATED,
    IDENTITY_CELLS,
    IDENTITY_DIGESTS,
    IDENTITY_SEEDS,
    SPEC,
    TOPOLOGY,
)
from tests.test_windowed_regression import run_digest


def audit(state: EngineState) -> int:
    """Assert every between-steps invariant of *state*; return the
    node count its running set holds."""
    cluster, running, codes = state.cluster, state.running, state.state

    # Nodes: held + free + offline partition the machine, so no job
    # holds an offline node; the cluster agrees on who is running.
    held = sum(run.job.nodes for run in running.values())
    free, offline = cluster.free_nodes, cluster.offline_nodes
    assert held >= 0 and free >= 0 and offline >= 0
    assert held + free + offline == cluster.total_nodes
    assert cluster.running_job_ids == sorted(running)
    if isinstance(cluster, NodeLevelCluster):
        assert not (cluster._node_offline & (cluster._node_owner >= 0)).any()

    # Running-set indexes hold exactly the running set.
    ids = sorted(running)
    assert sorted(state.wt_index.ids()) == ids
    assert sorted(state.end_index.ids()) == ids
    assert sorted(state.run_info) == ids
    assert all(codes[state.idx_of[i]] == engine._RUNNING for i in ids)

    # Counters equal the counts of their lifecycle codes.
    assert state.n_queued == codes.count(engine._QUEUED)
    assert state.n_blocked == codes.count(engine._BLOCKED)
    assert state.pending_arrivals == codes.count(engine._PENDING)
    assert len(running) == codes.count(engine._RUNNING)
    assert len(state.records) == codes.count(engine._COMPLETED)

    # Queue order: no index twice (the capacity bound of the order
    # array), every queued job present.
    order = state.order[: state.order_len].tolist()
    assert len(set(order)) == len(order)
    queued = {i for i, code in enumerate(codes) if code == engine._QUEUED}
    assert queued <= set(order)
    return held


def run_audited(sim: HPCSimulator):
    """``HPCSimulator.run`` with :func:`audit` after every step."""
    state = EngineState(sim)
    audit(state)
    held_node_seconds = 0.0
    alive = True
    while alive:
        before = state.now
        alive = state.step()
        assert state.now >= before
        # What the running set holds now, it holds until the next step.
        held_node_seconds += audit(state) * (state.now - before)
    result = state.result()
    assert sorted(r.job.job_id for r in result.records) == sorted(
        job.job_id for job in sim.jobs
    )
    assert goodput_node_hours(result) + wasted_node_hours(
        result
    ) == pytest.approx(held_node_seconds / 3600.0, rel=1e-9, abs=1e-9)
    return result


audited_engine = partial(_substituted, HPCSimulator, "run", run_audited)


class TestStepwiseAudit:
    @pytest.mark.parametrize("scenario,n,scheduler,kw", IDENTITY_CELLS)
    def test_identity_regimes(self, scenario, n, scheduler, kw, request):
        with audited_engine():
            run = run_single(scenario, n, scheduler, **IDENTITY_SEEDS, **kw)
        cell = request.node.callspec.id
        assert run_digest(run) == IDENTITY_DIGESTS[cell]

    @settings(max_examples=60, deadline=None)
    @given(
        raw=job_lists,
        cluster_kind=st.sampled_from(["pool", "pool-racks", "nodes-racks"]),
        mtbf=st.one_of(st.none(), st.floats(200.0, 20_000.0)),
        rack_mtbf=st.one_of(st.none(), st.floats(500.0, 20_000.0)),
        drain_every=st.one_of(st.none(), st.floats(300.0, 3_000.0)),
        drain_nodes=st.integers(1, 6),
        policy=st.sampled_from(["resubmit", "checkpoint", "preempt_migrate"]),
        seed=st.integers(0, 2**16),
    )
    def test_generated_workloads_under_disruption(
        self, raw, cluster_kind, mtbf, rack_mtbf, drain_every, drain_nodes,
        policy, seed,
    ):
        topology = None
        if cluster_kind != "pool":
            topology = ClusterTopology(n_nodes=8, rack_size=4)
        if cluster_kind == "nodes-racks":
            cluster = NodeLevelCluster(
                node_count=8, memory_per_node_gb=8.0, topology=topology
            )
        else:
            cluster = ResourcePool(
                total_nodes=8, total_memory_gb=64.0, topology=topology
            )
        # Every node has 8 GB: keep each job placeable node by node.
        jobs = build_jobs(
            [(s, d, n, min(m, 8.0 * n), u) for s, d, n, m, u in raw]
        )
        spec = DisruptionSpec(
            mtbf=mtbf,
            mttr=120.0,
            rack_mtbf=rack_mtbf,
            correlation=0.5,
            drain_every=drain_every,
            drain_nodes=drain_nodes if drain_every is not None else 0,
            drain_duration=200.0,
            drain_lead=100.0,
            drain_first=150.0,
            seed=seed,
        )
        trace = spec.build(
            n_nodes=8, horizon=estimate_horizon(jobs, 8), topology=topology
        )
        sim = HPCSimulator(
            jobs=jobs,
            scheduler=RandomScheduler(seed=seed),
            cluster=cluster,
            disruptions=trace,
            restart_policy=policy,
            checkpoint_interval=50.0,
        )
        run_audited(sim).verify_capacity()


def _simulators():
    """Two unlike runs: disrupted backfill on the flat pool, and a
    correlated-failure SJF run on a rack topology."""
    a_jobs = generate_workload("checkpoint_stress", 60, seed=1)
    b_jobs = generate_workload("rack_storm", 80, seed=2)
    return (
        HPCSimulator(
            jobs=a_jobs,
            scheduler=create_scheduler("fcfs_backfill"),
            disruptions=SPEC.build(
                n_nodes=256, horizon=estimate_horizon(a_jobs, 256)
            ),
            restart_policy="checkpoint",
            checkpoint_interval=900.0,
        ),
        HPCSimulator(
            jobs=b_jobs,
            scheduler=create_scheduler("sjf", seed=5),
            cluster=ResourcePool(topology=TOPOLOGY),
            disruptions=CORRELATED.build(
                n_nodes=256,
                horizon=estimate_horizon(b_jobs, 256),
                topology=TOPOLOGY,
            ),
            restart_policy="preempt_migrate",
            checkpoint_interval=1200.0,
        ),
    )


def _digest(result) -> str:
    return schedule_digest(result, compute_metrics(result).as_dict())


class TestInstancesShareNothing:
    def test_alternating_steps_digest_as_run_alone(self):
        alone = [_digest(run_soa(sim)) for sim in _simulators()]
        states = [EngineState(sim) for sim in _simulators()]
        live = list(states)
        steps = 0
        while live:
            live = [state for state in live if state.step()]
            steps += 1
        assert steps > 100  # the runs really were interleaved
        assert [_digest(state.result()) for state in states] == alone


#: Longest function in ``engine.py`` after the closure was split
#: (``EngineState.__init__``); ``run_soa`` was 710 lines before.
MAX_FUNCTION_LINES = 91


class TestEngineShape:
    source = Path(engine.__file__).read_text(encoding="utf-8")

    def test_no_nonlocal_and_no_long_function(self):
        lengths = {}
        for node in ast.walk(ast.parse(self.source)):
            assert not isinstance(node, ast.Nonlocal), node.lineno
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lengths[node.name] = node.end_lineno - node.lineno + 1
        longest = max(lengths, key=lengths.get)
        assert lengths[longest] <= MAX_FUNCTION_LINES, longest

    def test_one_decision_site(self):
        assert self.source.count("scheduler.decide(") == 1
        assert self.source.count("checker.validate(") == 1
        assert self.source.count("DecisionRecord(") == 1

    def test_nothing_in_a_run_refers_back_to_its_state(self):
        """No snapshot, column projection or handler keeps the state
        alive: it is freed by reference count when the run ends, not
        by a later cycle collection (daemon sessions build one per
        generation)."""
        jobs = generate_workload("heterogeneous_mix", 40, seed=0)
        sim = HPCSimulator(jobs=jobs, scheduler=create_scheduler("sjf"))
        state = EngineState(sim)
        while state.step():
            pass
        holders = [
            ref
            for ref in gc.get_referrers(state)
            if not isinstance(ref, types.FrameType)
        ]
        assert holders == []
