"""``EngineState`` from the outside: audit, isolation, views, shape.

1. **Step-wise invariant audit**: :func:`run_audited` drives
   :meth:`EngineState.step` itself and checks the state after every
   step — node conservation, running-set indexes and what a view reads
   off them, lifecycle counters,
   queue order, clock monotonicity — and at the end that every job
   completed exactly once and that the node-hours the running set held
   (integrated independently, step by step) equal goodput + wasted.
   It runs over the ten identity regimes of ``test_soa_regression``
   (where the audited run must also reproduce the pinned digest: the
   audit reads, and the view it builds only fills caches) and over
   generated workloads x disruptions x every registered scheduler. Nothing in ``src/`` knows about it.
2. **Instances share nothing**: two states stepped alternately digest
   exactly as when run alone.
3. **Views**: a view kept across later queue changes still shows the
   queue of its own instant, columns included — also when its
   ``queued`` is first built after those changes — and the remaining
   runtimes of its own instant; and the queue contents
   every ``decide`` sees equal the object oracle's, decision by
   decision, where starts come from the middle and where kills
   requeue.
4. **Queue model**: driven op by op, the queue equals a plain list
   under arrivals, starts from anywhere and kill-requeues.
5. **Shape**: ``engine.py`` keeps no ``nonlocal``, no function longer
   than the recorded maximum, one decision site, one queue
   representation mutated in two places and enqueue numbers written
   in one.
"""

import ast
import dataclasses
import gc
import math
import types
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.engine as engine
from repro.experiments.runner import run_single
from repro.metrics.disruption import goodput_node_hours, wasted_node_hours
from repro.metrics.objectives import compute_metrics
from repro.schedulers.registry import available_schedulers, create_scheduler
from repro.service.protocol import schedule_digest
from repro.sim.cluster import ResourcePool
from repro.sim.disruptions import DisruptionSpec, estimate_horizon
from repro.sim.engine import EngineState, run_soa
from repro.sim.job import Job
from repro.sim.simulator import HPCSimulator, SystemView, simulate
from repro.sim.topology import ClusterTopology
from repro.workloads.generator import generate_workload

from tests.conftest import _substituted, run_digest
from tests.node_reference import NodeLevelCluster
from tests.test_properties import build_jobs, job_lists
from tests.test_soa_regression import (
    CORRELATED,
    IDENTITY_CELLS,
    IDENTITY_DIGESTS,
    IDENTITY_SEEDS,
    SPEC,
    TOPOLOGY,
)


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

    # Running-set indexes hold exactly the running set, one row per
    # job as run_info records it, in (key, seq) order.
    ids = sorted(running)
    info = state.run_info
    assert sorted(info) == ids
    assert all(codes[state.idx_of[i]] == engine._RUNNING for i in ids)
    assert state.wt_index == sorted(
        (key, seq, running[job_id]) for job_id, (seq, key, _) in info.items()
    )
    assert state.end_index == sorted(
        (end, seq, job_id) for job_id, (seq, _, end) in info.items()
    )
    # The run list is the walltime index's third column, object for
    # object (it is edited at the same positions).
    assert list(map(id, state.wt_runs)) == [id(run) for *_, run in state.wt_index]
    # What a view reads off them: the walltime order is a stable sort
    # of the running set (placement order breaks ties), and the next
    # completion is the earliest expected end.
    view = state.build_view()
    assert view.running == tuple(running.values())
    assert view.running_by_walltime_end() == tuple(
        sorted(view.running, key=lambda r: r.start_time + r.job.walltime)
    )
    assert view.next_completion_time == min(
        (end for _, _, end in info.values()), default=None
    )

    # Counters equal the counts of their lifecycle codes.
    assert state.n_queued == codes.count(engine._QUEUED)
    assert state.pending_arrivals == codes.count(engine._PENDING)
    assert len(running) == codes.count(engine._RUNNING)
    assert len(state.records) == codes.count(engine._COMPLETED)

    # The queue is the live queue, nothing more or less: exactly the
    # positions coded _QUEUED, each once. A snapshot still held is of
    # this very queue (any queue change drops it), read position by
    # position so the audit builds no tuple.
    positions = state.queue_pos.tolist()
    assert len(positions) == state.n_queued
    assert sorted(positions) == [
        i for i, code in enumerate(codes) if code == engine._QUEUED
    ]
    # start's bisect precondition: enqueue numbers strictly ascend
    # along the queue, and none reaches the counter.
    seqs = [state.enq_seq[p] for p in positions]
    assert all(a < b for a, b in zip(seqs, seqs[1:]))
    assert all(seq < state.n_enqueued for seq in seqs)
    queue = [state.jobs[p] for p in positions]
    snap = state._queue_snap
    if snap is not None:
        assert [id(snap[k]) for k in range(snap.n)] == list(
            map(id, queue)
        )

    # The floor is an invariant of the queue, not a cache of it: at
    # every step the smallest node request queued, with the per-size
    # counts behind it equal to a recount (no size left at zero).
    sizes = [job.nodes for job in queue]
    assert state.size_counts == Counter(sizes)
    assert state.queue_floor == min(sizes, default=math.inf)
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

#: Registry names the generated workloads are drawn against: every
#: registered policy, the LLM agents included.
AUDITED_SCHEDULERS = available_schedulers()


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
        scheduler=st.sampled_from(AUDITED_SCHEDULERS),
        cluster_kind=st.sampled_from(["pool", "pool-racks", "nodes-racks"]),
        mtbf=st.one_of(st.none(), st.floats(200.0, 20_000.0)),
        rack_mtbf=st.one_of(st.none(), st.floats(500.0, 20_000.0)),
        drain_every=st.one_of(st.none(), st.floats(300.0, 3_000.0)),
        drain_nodes=st.integers(1, 6),
        policy=st.sampled_from(["resubmit", "checkpoint", "preempt_migrate"]),
        seed=st.integers(0, 2**16),
    )
    def test_generated_workloads_under_disruption(
        self, raw, scheduler, cluster_kind, mtbf, rack_mtbf, drain_every,
        drain_nodes, policy, seed,
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
            scheduler=create_scheduler(scheduler, seed=seed),
            cluster=cluster,
            disruptions=trace,
            restart_policy=policy,
            checkpoint_interval=50.0,
        )
        run_audited(sim).verify_capacity()


def _checkpoint_disrupted(jobs):
    """Keyword arguments of a ``checkpoint_stress`` run under seeded
    node failures and drains: kills, requeues at the tail."""
    return {
        "disruptions": SPEC.build(
            n_nodes=256, horizon=estimate_horizon(jobs, 256)
        ),
        "restart_policy": "checkpoint",
        "checkpoint_interval": 900.0,
    }


def _simulators():
    """Two unlike runs: disrupted backfill on the flat pool, and a
    correlated-failure SJF run on a rack topology."""
    a_jobs = generate_workload("checkpoint_stress", 60, seed=1)
    b_jobs = generate_workload("rack_storm", 80, seed=2)
    return (
        HPCSimulator(
            jobs=a_jobs,
            scheduler=create_scheduler("fcfs_backfill"),
            **_checkpoint_disrupted(a_jobs),
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


class TestRetainedViews:
    def test_view_kept_across_queue_changes_is_unchanged(self):
        """Hold every view the scheduler is shown, touch no column
        until the run is over (starts, kills and requeues since), then
        gather the snapshot's columns for the first time."""
        jobs = generate_workload("checkpoint_stress", 60, seed=1)
        scheduler = create_scheduler("fcfs_backfill")
        held = []
        decide = scheduler.decide

        def keeping(view):
            held.append((view, [job.job_id for job in view.queued]))
            return decide(view)

        scheduler.decide = keeping
        result = simulate(jobs, scheduler, **_checkpoint_disrupted(jobs))
        assert result.preemptions and len(held) > len(jobs)
        for view, ids_then in held:
            queue = view.queue
            assert [job.job_id for job in view.queued] == ids_then
            assert [jobs[p] for p in queue.sel.tolist()] == list(view.queued)
            assert queue.col("job_id").tolist() == ids_then
            assert queue.n == len(ids_then)
            assert queue.fits_mask(
                view.free_nodes, view.free_memory_gb
            ).tolist() == [view.can_fit(job) for job in view.queued]


    def test_queued_first_read_after_later_queue_changes(self, object_engine):
        """``fcfs`` reads only the head, so no view it is shown builds
        ``queued``. Each is read for the first time after the run —
        after starts, kills and requeues since — and must show what the
        object oracle's views held at the same decision."""
        jobs = generate_workload("checkpoint_stress", 60, seed=1)

        def run(log):
            scheduler = create_scheduler("fcfs")
            decide = scheduler.decide

            def keeping(view):
                log.append(view)
                return decide(view)

            scheduler.decide = keeping
            return simulate(
                list(jobs), scheduler, **_checkpoint_disrupted(jobs)
            )

        held = []
        result = run(held)
        assert result.preemptions and len(held) > len(jobs)
        assert not any("queued" in vars(view) for view in held)
        with object_engine():
            oracle = []
            run(oracle)
        assert [[j.job_id for j in view.queued] for view in held] == [
            [j.job_id for j in view.queued] for view in oracle
        ]

    def test_view_kept_across_kills_and_completions_keeps_its_remaining(self):
        """Views share the engine's ``remaining`` mapping instead of
        copying it; a kill (adds or rewrites an entry) and the
        completion of a restarted job (removes one) must not reach a
        view taken before them."""
        jobs = generate_workload("checkpoint_stress", 60, seed=1)
        scheduler = create_scheduler("fcfs_backfill")
        held = []
        decide = scheduler.decide

        def keeping(view):
            held.append((view, dict(view.remaining_runtimes)))
            return decide(view)

        scheduler.decide = keeping
        result = simulate(jobs, scheduler, **_checkpoint_disrupted(jobs))
        assert all(view.remaining_runtimes == then for view, then in held)
        mappings = [then for _, then in held]
        # Both kinds of change happened between held views, and sharing
        # did too: fewer distinct mappings than views that carry one.
        assert any(
            set(a) - set(b) for a, b in zip(mappings, mappings[1:])
        ), "no restarted job completed between two views"
        assert any(
            set(b) - set(a) for a, b in zip(mappings, mappings[1:])
        ), "no kill between two views"
        carrying = [view for view, then in held if then]
        shared = {id(view.remaining_runtimes) for view in carrying}
        assert result.preemptions and len(shared) < len(carrying)


def queue_contents_log(run):
    """What every ``decide`` of *run* saw queued: ids off the facade
    tuple and ids off the columnar selector, per decision."""
    log = []

    def recording(scheduler):
        decide = scheduler.decide

        def logged(view):
            log.append(
                (
                    [job.job_id for job in view.queued],
                    view.queue.col("job_id").tolist(),
                )
            )
            return decide(view)

        scheduler.decide = logged
        return scheduler

    result = run(recording)
    assert len(log) == len(result.decisions)
    assert all(facade == columnar for facade, columnar in log)
    return log


class TestViewContentsAgainstOracle:
    def test_starts_from_the_middle_of_a_deep_backlog(self, object_engine):
        jobs = [
            replace(job, submit_time=0.0)
            for job in generate_workload("heterogeneous_mix", 150, seed=4)
        ]

        def run(recording):
            return simulate(
                list(jobs), recording(create_scheduler("sjf_firstfit"))
            )

        log = queue_contents_log(run)
        # Not FCFS-shaped: most starts are not the head of the queue.
        heads = sum(
            1 for (a, _), (b, _) in zip(log, log[1:]) if b == a[1:]
        )
        assert len(log[0][0]) == 150 and heads < len(log) // 2
        with object_engine():
            assert queue_contents_log(run) == log

    def test_requeues_at_the_tail(self, object_engine):
        jobs = generate_workload("checkpoint_stress", 80, seed=3)

        def run(recording):
            result = simulate(
                list(jobs),
                recording(create_scheduler("fcfs_backfill")),
                **_checkpoint_disrupted(jobs),
            )
            assert result.preemptions
            return result

        log = queue_contents_log(run)
        with object_engine():
            assert queue_contents_log(run) == log


class TestQueueModel:
    """The queue against a plain list under every way it changes:
    arrivals and kills append at the tail, starts take from anywhere in
    it, and completions leave it alone."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(2, 12))
    def test_queue_follows_a_list_model(self, data, n):
        # Ids equal workload positions: the model speaks in positions.
        jobs = [Job(j, 0.0, 10.0, nodes=1, memory_gb=1.0) for j in range(n)]
        state = EngineState(
            HPCSimulator(jobs=jobs, scheduler=create_scheduler("fcfs"))
        )
        model: list[int] = []
        arrived = 0
        for _ in range(data.draw(st.integers(1, 40))):
            running = sorted(state.running)
            ops = ["arrive"] * (arrived < n) + ["start"] * bool(model)
            ops += ["kill", "complete"] * bool(running)
            if not ops:
                break
            op = data.draw(st.sampled_from(ops))
            state.now += 1.0
            if op == "arrive":
                state._on_arrival(arrived, state.now)
                model.append(arrived)
                arrived += 1
            elif op == "start":
                i = data.draw(st.sampled_from(model))
                state.start(i)
                model.remove(i)
            elif op == "kill":
                job_id = data.draw(st.sampled_from(running))
                state.kill(job_id, state.now, "failure")
                model.append(state.idx_of[job_id])
            else:
                job_id = data.draw(st.sampled_from(running))
                state._on_completion(
                    state.idx_of[job_id], state.run_info[job_id][2]
                )
            assert state.queue_pos.tolist() == model
            audit(state)


#: Longest function in ``engine.py`` after the closure was split
#: (``EngineState.__init__``); ``run_soa`` was 710 lines before.
MAX_FUNCTION_LINES = 91


class TestEngineShape:
    source = Path(engine.__file__).read_text(encoding="utf-8")
    tree = ast.parse(source)
    functions = {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }

    def test_no_nonlocal_and_no_long_function(self):
        lengths = {}
        for node in ast.walk(self.tree):
            assert not isinstance(node, ast.Nonlocal), node.lineno
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lengths[node.name] = node.end_lineno - node.lineno + 1
        longest = max(lengths, key=lengths.get)
        assert lengths[longest] <= MAX_FUNCTION_LINES, longest

    def test_one_decision_site(self):
        assert self.source.count("scheduler.decide(") == 1
        assert self.source.count("checker.validate(") == 1
        # The one record write site: the fast constructor in ``ask``.
        assert self.source.count("DecisionRecord.__new__(") == 1
        assert "DecisionRecord.__new__(" in ast.get_source_segment(
            self.source, self.functions["ask"]
        )

    @pytest.mark.parametrize("name", available_schedulers())
    def test_nothing_in_a_run_refers_back_to_its_state(self, name):
        """No snapshot, column projection or handler keeps the state
        alive, under any policy: it is freed by reference count when
        the run ends, not by a later cycle collection (daemon sessions
        build one per generation)."""
        jobs = generate_workload("heterogeneous_mix", 40, seed=0)
        sim = HPCSimulator(jobs=jobs, scheduler=create_scheduler(name))
        state = EngineState(sim)
        while state.step():
            pass
        holders = [
            ref
            for ref in gc.get_referrers(state)
            if not isinstance(ref, types.FrameType)
        ]
        assert holders == []

    def test_view_template_follows_the_field_guard(self):
        """The import-time ``_VIEW_FIELDS`` check covers the template
        every view dict is copied from: one key per field, in field
        order, ``queue`` (the snapshot) standing in for ``queued``; a
        built view carries exactly those keys until something reads
        ``queued``."""
        assert engine._VIEW_FIELDS == tuple(
            f.name for f in dataclasses.fields(SystemView)
        )
        keys = [
            "queue" if name == "queued" else name
            for name in engine._VIEW_FIELDS
        ]
        jobs = generate_workload("heterogeneous_mix", 20, seed=0)
        state = EngineState(
            HPCSimulator(jobs=jobs, scheduler=create_scheduler("fcfs"))
        )
        assert list(state._view_template) == keys
        state.step()
        view = state.build_view()
        assert list(vars(view)) == keys
        assert isinstance(view.queued, tuple)
        assert list(vars(view)) == keys + ["queued"]

    def test_the_queue_has_one_representation(self):
        assert not hasattr(engine, "QueueChurnCrossover")
        assert not {
            "order", "order_len", "crossover", "state_np", "queue_jobs",
        } & set(EngineState.__slots__)

    def test_queue_containers_change_in_two_methods(self):
        """``queue_pos`` is created in ``__init__``, changed in
        ``_enqueue`` and ``start``, and named in one more place,
        ``_snapshot_queue`` — a single ``return`` of a copy, no loop, no
        comprehension, no mutating call. ``kill`` reaches the queue
        through ``_enqueue`` alone."""

        def attrs(name):
            return {
                node.attr
                for node in ast.walk(self.functions[name])
                if isinstance(node, ast.Attribute)
            }

        containers = {"queue_pos"}
        naming = {name for name in self.functions if attrs(name) & containers}
        assert naming == {"__init__", "_enqueue", "start", "_snapshot_queue"}

        snapshot = self.functions["_snapshot_queue"]
        docstring, returned = snapshot.body
        assert isinstance(docstring, ast.Expr)
        assert isinstance(returned, ast.Return)
        assert not attrs("_snapshot_queue") & {
            "append", "extend", "insert", "pop", "remove", "clear",
        }
        loops = (
            ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
            ast.GeneratorExp,
        )
        assert not [n for n in ast.walk(snapshot) if isinstance(n, loops)]

        assert "_enqueue" in attrs("kill")
        assert not attrs("kill") & {"n_queued", "queue_changed", "state"}

        # The enqueue numbers start's bisect keys on: created in
        # ``__init__``, written in ``_enqueue`` only, read in ``start``.
        numbering = {"enq_seq", "n_enqueued"}
        naming = {name for name in self.functions if attrs(name) & numbering}
        assert naming == {"__init__", "_enqueue", "start"}
        writers = {
            name
            for name, function in self.functions.items()
            for node in ast.walk(function)
            if isinstance(node, (ast.Assign, ast.AugAssign))
            for target in (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for leaf in ast.walk(target)
            if isinstance(leaf, ast.Attribute) and leaf.attr in numbering
        }
        assert writers == {"__init__", "_enqueue"}
