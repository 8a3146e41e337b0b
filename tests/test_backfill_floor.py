"""What an EASY decision is allowed to cost, and what it decides.

``fcfs_backfill`` answers ``Delay`` in O(1) when fewer nodes are free
than the smallest request queued (the engine keeps that floor next to
the queue), and otherwise walks the queue snapshot once behind the
head, stopping at the first job that may backfill. It computes the
head's reservation only once some other job could start now, and is
handed the engine's ``remaining`` mapping itself rather than a copy per
view. On the seeded ``checkpoint_stress`` cell of the ``disrupted``
benchmark workload most decisions are such blocked ``Delay``s, so the
work they skip is most of the policy's time.

Guarded by counts and by structure, never by a stopwatch: how many
queued jobs a decision reads, how often the reservation and the mapping
copy happen, against what the views themselves say was needed. What
the policy decides is pinned by digest on the regimes its former
columnar/facade twin kernels were compared on.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Optional

import pytest

from repro.experiments.runner import run_single
from repro.schedulers import fcfs
from repro.schedulers.registry import create_scheduler
from repro.sim import columns, engine
from repro.sim.actions import ActionKind
from repro.sim.disruptions import DisruptionSpec, estimate_horizon
from repro.sim.engine import EngineState
from repro.sim.simulator import HPCSimulator
from repro.workloads.generator import generate_workload

from tests.conftest import run_digest
from tests.test_columnar_parity import REGIMES


class ReadCounting(list):
    """The run's job list, counting reads by index: what the engine's
    queue snapshots read a queued job through."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@dataclasses.dataclass
class Decision:
    kind: ActionKind
    depth: int
    #: Queue position of the backfilled job (``None`` for other kinds).
    hit: Optional[int]
    below_floor: bool
    #: The head cannot start, and some job behind it fits and is
    #: drain-safe right now: the one case that needs the reservation.
    needs_reservation: bool
    reservations: int
    #: Queued jobs the decision read off the snapshot.
    reads: int
    built_queued: bool
    built_columns: bool
    shares_remaining: bool


@pytest.fixture(scope="module")
def tally():
    """One audited pass over the benchmark's checkpoint cell."""
    jobs = generate_workload("checkpoint_stress", 100, seed=0)
    spec = DisruptionSpec(mtbf=40000.0, mttr=1200.0, seed=3)
    scheduler = create_scheduler("fcfs_backfill")
    sim = HPCSimulator(
        jobs=jobs,
        scheduler=scheduler,
        disruptions=spec.build(
            n_nodes=256, horizon=estimate_horizon(jobs, 256)
        ),
        restart_policy="checkpoint",
        checkpoint_interval=900.0,
    )
    state = EngineState(sim)
    state.jobs = job_list = ReadCounting(state.jobs)
    counts = {"reservations": 0, "copies": 0}
    decisions: list[Decision] = []

    head_reservation = fcfs.head_reservation
    own_remaining = EngineState._own_remaining
    decide = scheduler.decide

    def counting_reservation(*args):
        counts["reservations"] += 1
        return head_reservation(*args)

    def counting_own_remaining(self):
        before = self.remaining
        mapping = own_remaining(self)
        counts["copies"] += mapping is not before
        return mapping

    def recording_decide(view):
        reservations = counts["reservations"]
        reads = job_list.reads
        action = decide(view)
        reads = job_list.reads - reads
        built_queued = "queued" in vars(view)
        built_columns = (
            bool(view.queue._gathered) or view.queue._sel is not None
        )
        queued = view.queued
        ids = [job.job_id for job in queued]
        head_starts = view.can_fit(queued[0]) and view.drain_safe(queued[0])
        decisions.append(
            Decision(
                kind=action.kind,
                depth=len(queued),
                hit=ids.index(action.job_id)
                if action.kind is ActionKind.BACKFILL else None,
                below_floor=view.free_nodes < min(j.nodes for j in queued),
                needs_reservation=not head_starts
                and any(
                    view.can_fit(job) and view.drain_safe(job)
                    for job in queued[1:]
                ),
                reservations=counts["reservations"] - reservations,
                reads=reads,
                built_queued=built_queued,
                built_columns=built_columns,
                shares_remaining=not state.remaining
                or view.remaining_runtimes is state.remaining,
            )
        )
        return action

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fcfs, "head_reservation", counting_reservation)
        mp.setattr(EngineState, "_own_remaining", counting_own_remaining)
        scheduler.decide = recording_decide
        while state.step():
            pass
    result = state.result()
    assert len(decisions) == len(result.decisions)
    return decisions, counts, result


class TestCountGuard:
    def test_the_cell_is_mostly_blocked_delays(self, tally):
        """Otherwise the guard below guards nothing. Every outcome
        occurs, and backfills are found deep in deep queues."""
        decisions, _, result = tally
        below = [d for d in decisions if d.below_floor]
        assert len(decisions) > 10_000 and len(result.preemptions) > 1_000
        assert len(below) > len(decisions) // 2
        kinds = {d.kind for d in decisions if not d.below_floor}
        assert {ActionKind.START, ActionKind.BACKFILL, ActionKind.DELAY} \
            <= kinds
        assert max(d.hit for d in decisions if d.hit is not None) > 20

    def test_a_decision_reads_the_queue_up_to_its_answer(self, tally):
        """A backfill reads the jobs up to its hit (the head once more,
        as the scan steps past it), a start or a ``Delay`` below the
        floor reads none, and any other ``Delay`` reads the queue
        once. No decision builds the ``queued`` tuple or columns."""
        decisions, _, _ = tally
        for d in decisions:
            if d.kind is ActionKind.BACKFILL:
                assert d.reads == d.hit + 1
            elif d.kind is ActionKind.START or d.below_floor:
                assert d.reads == 0
            else:
                assert d.kind is ActionKind.DELAY
                assert d.reads == d.depth
            assert not d.built_queued and not d.built_columns

    def test_a_decision_below_the_floor_does_none_of_the_work(self, tally):
        decisions, _, _ = tally
        for d in decisions:
            if d.below_floor:
                assert d.kind is ActionKind.DELAY
                assert (d.reservations, d.reads) == (0, 0)
            assert d.shares_remaining

    def test_reservation_only_when_something_can_start(self, tally):
        decisions, counts, _ = tally
        at_or_above = sum(1 for d in decisions if not d.below_floor)
        assert counts["reservations"] <= at_or_above
        for d in decisions:
            assert d.reservations == d.needs_reservation
        # ... and every backfill had one: the reservation was deferred,
        # never dropped.
        assert all(
            d.reservations == 1
            for d in decisions
            if d.kind is ActionKind.BACKFILL
        )

    def test_remaining_is_copied_per_change_not_per_view(self, tally):
        decisions, counts, result = tally
        completions_after_restart = len(
            {p.job_id for p in result.preemptions}
        )
        changes = len(result.preemptions) + completions_after_restart
        assert 0 < counts["copies"] <= changes
        assert counts["copies"] < len(decisions) // 2


#: ``run_digest`` of ``fcfs_backfill`` (workload seed 3, scheduler seed
#: 5) on the parity regimes, recorded while its columnar and facade
#: kernels still ran side by side and agreed.
REGIME_DIGESTS = {
    "clean":
        "f5d6008ab0c14ada5da79cbb5c0440b4bd067e5003cf4626455384854829d5b9",
    "disrupted-checkpoint":
        "1195a687870ee1bdbbdfcaf7db0562533dd936726d26a4b03a7590949eec4d1c",
    "correlated-topology":
        "c9fe133083ce2f68911020db17682ccb9f38245a0b0923a33988bc4d92072b46",
    "drained-walltime":
        "38a5dabb5be0074bbf8f43cdcd20a3d4278e8e837c304b33dbfc83bf67bac562",
}


class TestPinnedDigests:
    @pytest.mark.parametrize("scenario,n,spec,topology,kw", REGIMES)
    def test_regime(self, scenario, n, spec, topology, kw, request):
        run = run_single(
            scenario, n, "fcfs_backfill", workload_seed=3,
            scheduler_seed=5, topology=topology, disruptions=spec, **kw,
        )
        expected = REGIME_DIGESTS[request.node.callspec.id]
        assert run_digest(run) == expected

    def test_deep_backlog(self):
        """200 jobs queued at t=0: the scan runs at every depth up to
        the whole workload."""
        run = run_single(
            "heterogeneous_mix", 200, "fcfs_backfill", arrival_mode="zero"
        )
        assert run_digest(run) == (
            "f388ea4b1f69dbad7b956a62aa69d616629f639b1cbbdf7b6271439e7e9e2ffe"
        )


def _function(module, name: str) -> ast.FunctionDef:
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


class TestShape:
    def test_columns_never_names_isin(self):
        tree = ast.parse(Path(columns.__file__).read_text(encoding="utf-8"))
        named = {
            node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(tree)
            if isinstance(node, (ast.Attribute, ast.Name))
        }
        assert "isin" not in named

    def test_build_view_copies_no_mapping(self):
        """No ``dict(...)`` call at all in ``build_view`` (the view's
        fields are a copy of the run's template, written key by key), and
        ``remaining`` changes hands in ``_own_remaining`` only."""
        calls = [
            node.func.id
            for node in ast.walk(_function(engine, "build_view"))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        ]
        assert "dict" not in calls
        source = Path(engine.__file__).read_text(encoding="utf-8")
        assert source.count("dict(self.remaining)") == 1
        assert "dict(self.remaining)" in ast.get_source_segment(
            source, _function(engine, "_own_remaining")
        )

    def test_one_floor_test_in_one_decide(self):
        """The floor is consulted once, by ``fcfs_backfill``, and the
        reservation is reached through one helper."""
        source = Path(fcfs.__file__).read_text(encoding="utf-8")
        assert source.count(".min_nodes") == 1
        assert source.count("head_reservation(") == 2  # def + one call
        assert source.count("earliest_drain_safe_start(") == 1
        assert source.count("def decide(") == 2  # fcfs, fcfs_backfill
