"""Equivalence guarantees of the packing kernel.

The performance rewrite (list-backed profile columns, zero-copy
decision snapshots) is only valid if it is
*invisible* to results: the annealer's seeded trajectory acceptance
decisions compare floats, so placements and objectives must be
**bit-identical**, not merely close. These tests pin that contract
against the retained naive reference implementation
(``tests/packing_reference.py``) at three levels:

1. single packs, and one packer's successive candidate packs, vs the
   reference on randomized workloads;
2. profile snapshot/rollback round-trips;
3. whole simulations: byte-identical :class:`ScheduleResult`s for the
   annealing optimizer (list-backed vs naive packer) and for both the
   optimizer and EASY backfill under old-style (fully materialized)
   system views vs the zero-copy views.
"""

import numpy as np
import pytest

from repro.schedulers import optimizer
from repro.schedulers.fcfs import EasyBackfillScheduler
from repro.schedulers.optimizer import AnnealingOptimizer
from repro.schedulers.packing import (
    PackingError,
    ResourceProfile,
    SerialPacker,
)
from tests.packing_reference import (
    ReferenceResourceProfile,
    plan_values,
    reference_pack_order,
)
from repro.sim.simulator import HPCSimulator, SystemView
from repro.workloads.generator import generate_workload

from tests.conftest import make_job, profile_columns, run_sim


def random_jobs(rng: np.random.Generator, n: int) -> list:
    return [
        make_job(
            i + 1,
            submit=float(rng.choice([0.0, rng.uniform(0.0, 100.0)])),
            duration=float(rng.uniform(1.0, 200.0)),
            nodes=int(rng.integers(1, 9)),
            memory=float(rng.integers(1, 65)),
        )
        for i in range(n)
    ]


def random_releases(rng: np.random.Generator) -> list:
    return [
        (
            float(rng.uniform(-10.0, 150.0)),
            float(rng.integers(0, 4)),
            float(rng.integers(0, 16)),
        )
        for _ in range(int(rng.integers(0, 6)))
    ]


def assert_same_placements(packed, placements, now):
    """A packer's answer equals the reference plan's starts, latest end
    and sum of ends — bitwise float equality, not approx."""
    assert packed == plan_values(placements, now)


class TestPackOrderEquivalence:
    def test_randomized_full_packs(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            jobs = random_jobs(rng, int(rng.integers(1, 50)))
            releases = random_releases(rng)
            kwargs = dict(
                now=5.0, free_nodes=8, free_memory_gb=64.0, releases=releases
            )
            assert_same_placements(
                SerialPacker(**kwargs).pack(jobs),
                reference_pack_order(jobs, **kwargs),
                5.0,
            )

    def test_profile_arrays_match_reference_after_reserves(self):
        rng = np.random.default_rng(3)
        fast = ResourceProfile(0.0, 8, 64.0, releases=[(40.0, 2, 16.0)])
        ref = ReferenceResourceProfile(
            0.0, 8, 64.0, releases=[(40.0, 2, 16.0)]
        )
        for _ in range(40):
            nodes = int(rng.integers(1, 5))
            mem = float(rng.integers(1, 17))
            dur = float(rng.uniform(1.0, 60.0))
            nb = float(rng.uniform(0.0, 120.0))
            s_fast = fast.earliest_start(nodes, mem, dur, not_before=nb)
            s_ref = ref.earliest_start(nodes, mem, dur, not_before=nb)
            assert s_fast == s_ref
            fast.reserve(s_fast, dur, nodes, mem)
            ref.reserve(s_ref, dur, nodes, mem)
            assert profile_columns(fast) == profile_columns(ref)

    def test_two_thousand_breakpoints_match_reference(self):
        """One kernel at every size: the scalar scan and ``list.insert``
        must agree with the array model far past the paper's 10-50
        breakpoints, interior inserts and long infeasible runs included."""
        rng = np.random.default_rng(41)
        releases = [(float(t), 1.0, 8.0) for t in range(100, 4000, 100)]
        fast = ResourceProfile(0.0, 24, 192.0, releases=releases)
        ref = ReferenceResourceProfile(0.0, 24, 192.0, releases=releases)
        for _ in range(1800):
            nodes = int(rng.integers(1, 17))
            mem = float(rng.integers(1, 129))
            dur = float(rng.uniform(0.5, 90.0))
            nb = float(rng.uniform(0.0, 6000.0))
            s_fast = fast.earliest_start(nodes, mem, dur, not_before=nb)
            assert s_fast == ref.earliest_start(nodes, mem, dur, not_before=nb)
            fast.reserve_trusted(s_fast, dur, nodes, mem)
            ref.reserve(s_fast, dur, nodes, mem)
        assert len(fast.snapshot().times) >= 2000
        assert profile_columns(fast) == profile_columns(ref)

    def test_int_arguments_still_yield_floats(self):
        """Lists keep whatever they are given, arrays coerced: a start
        or a capacity must come back a ``float`` even when every
        argument was an ``int`` (``planned_start`` serialises as
        ``0.0``, never ``0``)."""
        fast = ResourceProfile(0, 8, 64, releases=[(40, 2, 16)])
        ref = ReferenceResourceProfile(0, 8, 64, releases=[(40, 2, 16)])
        for nodes, mem, dur, nb in [
            (8, 64, 10, 0), (4, 16, 30, 0), (2, 8, 5, 12), (6, 8, 5, 12),
            (10, 80, 7, 3),
        ]:
            start = fast.earliest_start(nodes, mem, dur, not_before=nb)
            assert type(start) is float
            assert start == ref.earliest_start(nodes, mem, dur, not_before=nb)
            fast.reserve(start, dur, nodes, mem)
            ref.reserve(start, dur, nodes, mem)
            _, free_nodes, free_memory = profile_columns(fast)
            assert {type(v) for v in free_nodes + free_memory} == {float}
        assert profile_columns(fast) == profile_columns(ref)
        jobs = [make_job(i + 1, submit=0, duration=10 * (i + 1)) for i in range(3)]
        packer = SerialPacker(now=0, free_nodes=4, free_memory_gb=64)
        starts, latest, total = packer.pack(jobs)
        assert {type(v) for v in starts + [latest, total]} == {float}

    def test_drain_notches_and_queries_past_the_last_breakpoint(self):
        """Negative releases (announced drains) make capacity
        non-monotone, and ``not_before`` beyond the last breakpoint
        starts the scan in the open-ended final interval."""
        rng = np.random.default_rng(29)
        releases = [
            (20.0, 2.0, 16.0), (50.0, -6.0, -48.0), (90.0, 6.0, 48.0),
            (120.0, -3.0, -24.0), (150.0, 3.0, 24.0), (-5.0, 1.0, 8.0),
        ]
        fast = ResourceProfile(10.0, 5, 40.0, releases=releases)
        ref = ReferenceResourceProfile(10.0, 5, 40.0, releases=releases)
        for step in range(60):
            nodes = int(rng.integers(1, 9))
            mem = float(rng.integers(1, 65))
            dur = float(rng.uniform(1.0, 80.0))
            last = float(fast.snapshot().times[-1])
            nb = last + 25.0 if step % 3 == 0 else float(rng.uniform(0.0, last))
            s_fast = fast.earliest_start(nodes, mem, dur, not_before=nb)
            assert s_fast == ref.earliest_start(nodes, mem, dur, not_before=nb)
            if step % 3 == 0:
                assert s_fast == nb  # final capacity is the full 8 / 64
            fast.reserve(s_fast, dur, nodes, mem)
            ref.reserve(s_fast, dur, nodes, mem)
            assert profile_columns(fast) == profile_columns(ref)
        for profile in (fast, ref):
            with pytest.raises(PackingError):
                profile.earliest_start(9, 8.0, 1.0, not_before=1e6)


class TestSerialKernel:
    def test_one_packer_scores_a_swap_walk(self):
        """The annealer reuses one packer for every candidate of a
        replan; each candidate must pack exactly as a scratch pack on a
        fresh reference profile, whatever was packed before it."""
        rng = np.random.default_rng(23)
        for _ in range(12):
            n = int(rng.integers(2, 45))
            current = random_jobs(rng, n)
            kwargs = dict(
                now=0.0, free_nodes=8, free_memory_gb=64.0,
                releases=random_releases(rng),
            )
            packer = SerialPacker(**kwargs)
            packer.pack(current)
            for _ in range(20):
                i, j = rng.integers(0, n, size=2)
                if i == j:
                    continue
                cand = list(current)
                cand[i], cand[j] = cand[j], cand[i]
                assert_same_placements(
                    packer.pack(cand), reference_pack_order(cand, **kwargs), 0.0
                )
                if rng.random() < 0.5:  # walk on from some candidates
                    current = cand


class TestSnapshotRollback:
    def test_snapshot_restore_roundtrip(self):
        profile = ResourceProfile(0.0, 8, 64.0, releases=[(30.0, 4, 32.0)])
        profile.reserve(0.0, 10.0, 2, 8.0)
        snap = profile.snapshot()
        before = profile_columns(profile)
        # Mutate heavily, then roll back.
        for s in range(5):
            profile.reserve(5.0 * s, 7.0, 1, 4.0)
        profile.restore(snap)
        assert profile_columns(profile) == before

    def test_snapshot_is_isolated_from_later_mutation(self):
        profile = ResourceProfile(0.0, 8, 64.0)
        snap = profile.snapshot()
        profile.reserve(0.0, 50.0, 8, 64.0)
        assert len(snap.times) == 1
        assert snap.free_nodes[0] == 8.0

    def test_snapshots_never_alias_the_live_columns(self):
        """Three list copies each way: mutating the profile after
        ``snapshot()`` — or after ``restore()`` — must leave the
        snapshot's columns alone, or a second rollback lands in a
        different state than the first."""
        profile = ResourceProfile(0.0, 8, 64.0, releases=[(30.0, 4, 32.0)])
        profile.reserve(0.0, 10.0, 2, 8.0)
        snap = profile.snapshot()
        live = profile_columns(profile)
        frozen = (
            list(snap.times), list(snap.free_nodes), list(snap.free_memory),
        )
        for _ in range(2):
            # Interior insert, tail append and in-place subtraction.
            profile.reserve(5.0, 2.0, 1, 4.0)
            profile.reserve_trusted(40.0, 20.0, 3, 12.0)
            assert (
                snap.times, snap.free_nodes, snap.free_memory
            ) == frozen
            profile.restore(snap)
            assert profile_columns(profile) == live

    def test_restore_after_growth(self):
        profile = ResourceProfile(0.0, 64, 512.0)
        snap = profile.snapshot()
        # Force several regrows past the initial capacity.
        for s in range(80):
            profile.reserve(float(2 * s), 1.0, 1, 1.0)
        profile.restore(snap)
        assert len(profile.snapshot().times) == 1
        assert profile.earliest_start(64, 512.0, 1.0, not_before=0.0) == 0.0


def result_fingerprint(result) -> tuple:
    """Canonical byte-comparable encoding of a ScheduleResult."""
    records = tuple(
        (r.job.job_id, repr(r.start_time), repr(r.end_time), r.killed)
        for r in result.records
    )
    decisions = tuple(
        (
            repr(d.time),
            d.action.kind.value,
            getattr(d.action, "job_id", None),
            d.accepted,
            d.retry_index,
        )
        for d in result.decisions
    )
    return records, decisions


class MaterializingView:
    """Scheduler wrapper feeding old-style, fully materialized views.

    Rebuilds every snapshot the way the pre-rewrite simulator did —
    ``completed_ids`` as a fresh tuple, no shared structures — so a
    byte-identical result proves the zero-copy views are semantically
    invisible to the wrapped policy.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.name = inner.name

    @staticmethod
    def _materialize(view: SystemView) -> SystemView:
        return SystemView(
            now=view.now,
            queued=tuple(view.queued),
            running=tuple(view.running),
            completed_ids=tuple(view.completed_ids),
            free_nodes=view.free_nodes,
            free_memory_gb=view.free_memory_gb,
            total_nodes=view.total_nodes,
            total_memory_gb=view.total_memory_gb,
            pending_arrivals=view.pending_arrivals,
            next_arrival_time=view.next_arrival_time,
            next_completion_time=view.next_completion_time,
        )

    def reset(self) -> None:
        self._inner.reset()

    def decide(self, view):
        return self._inner.decide(self._materialize(view))

    def on_rejection(self, action, violations, view) -> None:
        self._inner.on_rejection(action, violations, self._materialize(view))

    def decision_meta(self):
        return self._inner.decision_meta()


class TestSerialEquivalence:
    """Acceptance: fixed seeds -> byte-identical ScheduleResults."""

    def test_fixture_substitutes_the_naive_packer(self, naive_packer):
        """The naive side of the comparisons below must really plan on
        the reference profile. Both sides pack every candidate's whole
        order, so their work counts match."""
        jobs = generate_workload("heterogeneous_mix", 40, seed=0)
        fast = run_sim(jobs, AnnealingOptimizer(seed=7))
        with naive_packer():
            assert optimizer.SerialPacker.__name__ == "NaivePacker"
            naive = run_sim(jobs, AnnealingOptimizer(seed=7))
        assert optimizer.SerialPacker is SerialPacker
        assert naive.extras["packed_jobs"] == fast.extras["packed_jobs"]

    @pytest.mark.parametrize("scenario,seed", [
        ("heterogeneous_mix", 0),
        ("adversarial", 3),
        ("bursty_idle", 1),
    ])
    def test_annealer_vs_naive_packer(
        self, scenario, seed, naive_packer
    ):
        jobs = generate_workload(scenario, 40, seed=seed)
        fast = run_sim(jobs, AnnealingOptimizer(seed=7))
        with naive_packer():
            naive = run_sim(jobs, AnnealingOptimizer(seed=7))
        assert result_fingerprint(fast) == result_fingerprint(naive)
        # The annealing trajectories must match step for step, not just
        # the final schedule.
        assert [
            (s.queue_size, s.initial_objective, s.final_objective)
            for s in fast.extras["plan_stats"]
        ] == [
            (s.queue_size, s.initial_objective, s.final_objective)
            for s in naive.extras["plan_stats"]
        ]

    def test_annealer_zero_copy_views_vs_materialized(self):
        jobs = generate_workload("heterogeneous_mix", 30, seed=2)
        fast = run_sim(jobs, AnnealingOptimizer(seed=1))
        wrapped = run_sim(
            jobs, MaterializingView(AnnealingOptimizer(seed=1))
        )
        assert result_fingerprint(fast) == result_fingerprint(wrapped)

    def test_easy_backfill_zero_copy_views_vs_materialized(self):
        jobs = generate_workload("long_job_dominant", 50, seed=4)
        fast = run_sim(jobs, EasyBackfillScheduler())
        wrapped = run_sim(jobs, MaterializingView(EasyBackfillScheduler()))
        assert result_fingerprint(fast) == result_fingerprint(wrapped)

    def test_easy_backfill_deterministic_across_runs(self):
        jobs = generate_workload("resource_sparse", 40, seed=6)
        a = run_sim(jobs, EasyBackfillScheduler())
        b = run_sim(jobs, EasyBackfillScheduler())
        assert result_fingerprint(a) == result_fingerprint(b)

    def test_walltime_enforced_simulation_unaffected(self, naive_packer):
        jobs = generate_workload("heterogeneous_mix", 25, seed=8)

        def walltime_run():
            return HPCSimulator(
                jobs=list(jobs),
                scheduler=AnnealingOptimizer(seed=3),
                enforce_walltime=True,
            ).run()

        fast = walltime_run()
        with naive_packer():
            naive = walltime_run()
        assert result_fingerprint(fast) == result_fingerprint(naive)
