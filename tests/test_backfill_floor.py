"""What a blocked EASY decision is allowed to cost.

``fcfs_backfill`` answers ``Delay`` in O(1) when fewer nodes are free
than the smallest request queued (the engine keeps that floor next to
the queue), computes the head's reservation only once some other job
could start now, and is handed the engine's ``remaining`` mapping
itself rather than a copy per view. On the seeded ``checkpoint_stress``
cell of the ``disrupted`` benchmark workload most decisions are such
blocked ``Delay``s, so the work they skip is most of the policy's time.

Guarded by counts and by structure, never by a stopwatch: how often the
reservation, the fit mask and the mapping copy happen, against what the
views themselves say was needed.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.schedulers import fcfs
from repro.schedulers.registry import create_scheduler
from repro.sim import columns, engine
from repro.sim.actions import ActionKind
from repro.sim.cluster import ResourcePool
from repro.sim.columns import COLUMNAR_MIN_QUEUE, ViewColumns
from repro.sim.disruptions import (
    DISRUPTION_PRESETS,
    DisruptionSpec,
    estimate_horizon,
)
from repro.sim.engine import EngineState
from repro.sim.simulator import HPCSimulator
from repro.sim.topology import ClusterTopology
from repro.workloads.generator import generate_workload


@dataclasses.dataclass
class Decision:
    kind: ActionKind
    depth: int
    below_floor: bool
    #: The head cannot start, and some job behind it fits and is
    #: drain-safe right now: the one case that needs the reservation.
    needs_reservation: bool
    reservations: int
    fits_builds: int
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
    counts = {"reservations": 0, "fits_builds": 0, "copies": 0}
    decisions: list[Decision] = []

    head_reservation = fcfs.head_reservation
    fits_mask = ViewColumns.fits_mask
    own_remaining = EngineState._own_remaining
    decide = scheduler.decide

    def counting_reservation(*args):
        counts["reservations"] += 1
        return head_reservation(*args)

    def counting_fits_mask(cols):
        counts["fits_builds"] += cols._fits is None
        return fits_mask(cols)

    def counting_own_remaining(self):
        before = self.remaining
        mapping = own_remaining(self)
        counts["copies"] += mapping is not before
        return mapping

    def recording_decide(view):
        before = dict(counts)
        action = decide(view)
        queued = view.queued
        head_starts = view.can_fit(queued[0]) and view.drain_safe(queued[0])
        decisions.append(
            Decision(
                kind=action.kind,
                depth=len(queued),
                below_floor=view.free_nodes < min(j.nodes for j in queued),
                needs_reservation=not head_starts
                and any(
                    view.can_fit(job) and view.drain_safe(job)
                    for job in queued[1:]
                ),
                reservations=counts["reservations"] - before["reservations"],
                fits_builds=counts["fits_builds"] - before["fits_builds"],
                shares_remaining=not state.remaining
                or view.remaining_runtimes is state.remaining,
            )
        )
        return action

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fcfs, "head_reservation", counting_reservation)
        mp.setattr(ViewColumns, "fits_mask", counting_fits_mask)
        mp.setattr(EngineState, "_own_remaining", counting_own_remaining)
        scheduler.decide = recording_decide
        while state.step():
            pass
    result = state.result()
    assert len(decisions) == len(result.decisions)
    return decisions, counts, result


class TestCountGuard:
    def test_the_cell_is_mostly_blocked_delays(self, tally):
        """Otherwise the guard below guards nothing. Both kernels run:
        the queue crosses ``COLUMNAR_MIN_QUEUE`` in both directions."""
        decisions, _, result = tally
        below = [d for d in decisions if d.below_floor]
        assert len(decisions) > 10_000 and len(result.preemptions) > 1_000
        assert len(below) > len(decisions) // 2
        live = [d for d in decisions if d.needs_reservation]
        assert any(d.depth >= COLUMNAR_MIN_QUEUE for d in live)
        assert any(d.depth < COLUMNAR_MIN_QUEUE for d in live)

    def test_a_decision_below_the_floor_does_none_of_the_work(self, tally):
        decisions, _, _ = tally
        for d in decisions:
            if d.below_floor:
                assert d.kind is ActionKind.DELAY
                assert (d.reservations, d.fits_builds) == (0, 0)
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


class TestRequeuedMask:
    def test_equals_isin_on_seeded_disrupted_views(self):
        """``requeued_mask`` probes the view's own mapping id by id;
        pinned elementwise against the ``np.isin`` it replaced, on the
        views of a correlated-failure run (the only consumer is the
        spread-across-domains gate, so a rack topology)."""
        topology = ClusterTopology(256, 32)
        jobs = generate_workload("rack_storm", 150, seed=0)
        storm = dataclasses.replace(DISRUPTION_PRESETS["rack_storm"], seed=3)
        scheduler = create_scheduler("fcfs_backfill")
        decide = scheduler.decide
        compared = []

        def comparing(view):
            rem = view.remaining_runtimes
            cols = view.columns()
            expected = np.isin(
                cols.ids, np.fromiter(rem, np.int64, count=len(rem))
            )
            mask = cols.requeued_mask()
            assert mask.dtype == expected.dtype == bool
            assert mask.tolist() == expected.tolist()
            compared.append((int(mask.sum()), len(mask)))
            return decide(view)

        scheduler.decide = comparing
        HPCSimulator(
            jobs=jobs,
            scheduler=scheduler,
            cluster=ResourcePool(topology=topology),
            disruptions=storm.build(
                n_nodes=256,
                horizon=estimate_horizon(jobs, 256),
                topology=topology,
            ),
        ).run()
        # Empty, partial and deep masks were all compared.
        assert any(hit == 0 for hit, n in compared)
        assert any(0 < hit < n for hit, n in compared)
        assert max(n for _, n in compared) >= COLUMNAR_MIN_QUEUE


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
