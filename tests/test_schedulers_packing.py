"""Unit tests for the resource-profile packing engine."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.schedulers.optimizer import AnnealingOptimizer
from repro.schedulers.packing import (
    PackingError,
    ResourceProfile,
    SerialPacker,
)
from repro.schedulers.recovery import split_unpackable
from repro.schedulers.registry import create_scheduler
from repro.sim.simulator import simulate

from tests.conftest import left_fold, make_job, neumaier_sum, profile_columns
from tests.node_reference import NodeLevelCluster


def pack(jobs, **profile):
    """Serial schedule generation: the starts of *jobs* placed in
    order, each at its earliest feasible start."""
    starts, _, _ = SerialPacker(**profile).pack(jobs)
    return starts


class TestResourceProfile:
    def test_empty_profile_starts_now(self):
        profile = ResourceProfile(10.0, 8, 64.0)
        assert profile.earliest_start(4, 16.0, 100.0, not_before=10.0) == 10.0

    def test_respects_not_before(self):
        profile = ResourceProfile(0.0, 8, 64.0)
        assert profile.earliest_start(1, 1.0, 10.0, not_before=25.0) == 25.0

    def test_waits_for_release(self):
        # 2 free nodes now; 6 more at t=50.
        profile = ResourceProfile(0.0, 2, 16.0, releases=[(50.0, 6, 48.0)])
        assert profile.earliest_start(4, 8.0, 10.0, not_before=0.0) == 50.0

    def test_fits_before_release_if_small(self):
        profile = ResourceProfile(0.0, 2, 16.0, releases=[(50.0, 6, 48.0)])
        assert profile.earliest_start(2, 8.0, 10.0, not_before=0.0) == 0.0

    def test_reserve_blocks_interval(self):
        profile = ResourceProfile(0.0, 8, 64.0)
        profile.reserve(0.0, 100.0, 8, 64.0)
        assert profile.earliest_start(1, 1.0, 10.0, not_before=0.0) == 100.0

    def test_gap_must_cover_full_duration(self):
        # Free 8 nodes until t=10, then busy [10, 50), then free.
        profile = ResourceProfile(0.0, 8, 64.0)
        profile.reserve(10.0, 40.0, 8, 64.0)
        # A 10s job fits in the [0, 10) gap...
        assert profile.earliest_start(2, 1.0, 10.0, not_before=0.0) == 0.0
        # ...but a 20s job must wait for t=50.
        assert profile.earliest_start(2, 1.0, 20.0, not_before=0.0) == 50.0

    def test_oversubscribe_raises(self):
        profile = ResourceProfile(0.0, 8, 64.0)
        profile.reserve(0.0, 10.0, 6, 8.0)
        with pytest.raises(PackingError):
            profile.reserve(5.0, 10.0, 6, 8.0)

    def test_never_fits_raises(self):
        profile = ResourceProfile(0.0, 8, 64.0)
        with pytest.raises(PackingError, match="never fits"):
            profile.earliest_start(16, 1.0, 10.0, not_before=0.0)

    def test_capacity_at(self):
        profile = ResourceProfile(0.0, 8, 64.0, releases=[(10.0, 2, 8.0)])
        assert profile_columns(profile) == ([0.0, 10.0], [8.0, 10.0], [64.0, 72.0])

    def test_memory_constraint_checked(self):
        profile = ResourceProfile(0.0, 8, 16.0, releases=[(30.0, 0, 48.0)])
        assert profile.earliest_start(1, 32.0, 5.0, not_before=0.0) == 30.0


class TestResourceProfileEdgeCases:
    def test_zero_duration_reservation_is_noop(self):
        profile = ResourceProfile(0.0, 8, 64.0)
        profile.reserve(10.0, 0.0, 8, 64.0)
        # No capacity consumed anywhere, including at the instant itself.
        assert profile.earliest_start(8, 64.0, 5.0, not_before=0.0) == 0.0
        assert profile_columns(profile) == ([0.0, 10.0], [8.0, 8.0], [64.0, 64.0])

    def test_zero_duration_query_waits_for_feasible_interval(self):
        profile = ResourceProfile(0.0, 8, 64.0)
        profile.reserve(0.0, 100.0, 8, 64.0)
        # An instantaneous request spans no interval, but its anchor
        # interval must still be feasible: it waits for the release.
        assert profile.earliest_start(8, 64.0, 0.0, not_before=0.0) == 100.0
        assert profile.earliest_start(1, 1.0, 0.0, not_before=40.0) == 100.0

    def test_coincident_release_times_merge(self):
        profile = ResourceProfile(
            0.0, 0, 0.0, releases=[(50.0, 3, 24.0), (50.0, 5, 40.0)]
        )
        # The origin plus one merged breakpoint.
        assert profile_columns(profile) == ([0.0, 50.0], [0.0, 8.0], [0.0, 64.0])
        assert profile.earliest_start(8, 64.0, 10.0, not_before=0.0) == 50.0

    def test_release_before_origin_clamps_to_origin(self):
        profile = ResourceProfile(100.0, 2, 16.0, releases=[(40.0, 6, 48.0)])
        assert profile_columns(profile) == ([100.0], [8.0], [64.0])

    def test_reservation_at_profile_origin(self):
        profile = ResourceProfile(25.0, 8, 64.0)
        profile.reserve(25.0, 10.0, 8, 64.0)
        assert profile_columns(profile) == ([25.0, 35.0], [0.0, 8.0], [0.0, 64.0])
        assert profile.earliest_start(1, 1.0, 1.0, not_before=25.0) == 35.0

    def test_reserve_trusted_matches_checked_reserve(self):
        checked = ResourceProfile(0.0, 8, 64.0, releases=[(30.0, 2, 8.0)])
        trusted = ResourceProfile(0.0, 8, 64.0, releases=[(30.0, 2, 8.0)])
        for start, dur, nodes, mem in [
            (0.0, 10.0, 4, 16.0),
            (5.0, 20.0, 2, 8.0),
            (30.0, 5.0, 4, 32.0),
        ]:
            checked.reserve(start, dur, nodes, mem)
            trusted.reserve_trusted(start, dur, nodes, mem)
        assert profile_columns(checked) == profile_columns(trusted)

    def test_growth_preserves_state(self):
        profile = ResourceProfile(0.0, 256, 2048.0)
        starts = []
        for s in range(120):  # far beyond the initial capacity
            start = profile.earliest_start(2, 16.0, 3.0, not_before=1.5 * s)
            profile.reserve(start, 3.0, 2, 16.0)
            starts.append(start)
        assert starts == [1.5 * s for s in range(120)]
        assert len(profile.snapshot().times) > 120


class TestSplitUnpackable:
    """Parking against eventual capacity, on every cluster."""

    VIEW = SimpleNamespace(nodes_offline=2, free_nodes=2, free_memory_gb=16.0)
    RELEASES = [(50.0, 4, 32.0), (80.0, 2, 16.0)]

    def jobs(self):
        return [
            make_job(1, nodes=8, memory=64.0),  # fits once both release
            make_job(2, nodes=2, memory=60.0),  # memory-bound the same way
            make_job(3, nodes=9, memory=8.0),  # wider than the eventual pool
        ]

    def test_splits_against_current_plus_released_capacity(self):
        packable, parked = split_unpackable(
            self.VIEW, self.jobs(), self.RELEASES
        )
        assert [j.job_id for j in packable] == [1, 2]
        assert [j.job_id for j in parked] == [3]

    def test_generator_releases_are_summed_for_both_resources(self):
        # The stream is read once for nodes and once for memory; spent
        # after the first read, memory looked like nothing would ever
        # be released and jobs 1 and 2 were parked at +inf.
        from_list = split_unpackable(self.VIEW, self.jobs(), self.RELEASES)
        from_generator = split_unpackable(
            self.VIEW, self.jobs(), (r for r in self.RELEASES)
        )
        assert from_generator == from_list

    def test_cluster_without_offline_nodes_splits_too(self):
        # No node offline is no promise that every job fits (see the
        # node-level case below), so there is no healthy-cluster gate.
        healthy = SimpleNamespace(
            nodes_offline=0, free_nodes=2, free_memory_gb=16.0
        )
        packable, parked = split_unpackable(
            healthy, self.jobs(), iter(self.RELEASES)
        )
        assert [j.job_id for j in packable] == [1, 2]
        assert [j.job_id for j in parked] == [3]

    def test_node_level_cluster_parks_instead_of_crashing(self):
        # A node-level cluster withholds a whole node's memory (8 GB)
        # per running job while the planner's release stream returns
        # only the 1 GB each job asked for, so job 4 never fits the
        # profile (7 free nodes + 1 released; 56 + 1 GB < 58 GB). It
        # used to raise PackingError; parked, it starts once job 3 ends.
        jobs = [
            make_job(1, duration=1.0, nodes=1, memory=1.0),
            make_job(2, duration=1.0, nodes=1, memory=1.0),
            make_job(3, duration=2.0, nodes=1, memory=1.0),
            make_job(4, submit=1.0, duration=1.0, nodes=8, memory=58.0),
        ]
        result = simulate(
            jobs,
            create_scheduler("ortools_like"),
            cluster=NodeLevelCluster(node_count=8, memory_per_node_gb=8.0),
        )
        result.verify_capacity()
        starts = {r.job.job_id: r.start_time for r in result.records}
        assert starts == {1: 0.0, 2: 0.0, 3: 0.0, 4: 2.0}


class TestPackOrder:
    def test_sequential_when_full(self):
        jobs = [
            make_job(1, duration=10.0, nodes=8),
            make_job(2, duration=20.0, nodes=8),
        ]
        starts = pack(jobs, now=0.0, free_nodes=8, free_memory_gb=64.0)
        assert starts == [0.0, 10.0]

    def test_later_job_can_start_earlier(self):
        # Order is a priority list: job 2 (second in order) fits in the
        # gap before job 1's huge ask is satisfiable.
        jobs = [
            make_job(1, duration=10.0, nodes=8),
            make_job(2, duration=5.0, nodes=8),
            make_job(3, duration=3.0, nodes=2),
        ]
        starts = pack(
            [jobs[0], jobs[1], jobs[2]],
            now=0.0, free_nodes=8, free_memory_gb=64.0,
        )
        assert starts == [0.0, 10.0, 15.0]

    def test_respects_submit_times(self):
        jobs = [make_job(1, submit=42.0, duration=10.0, nodes=1)]
        assert pack(jobs, now=0.0, free_nodes=8, free_memory_gb=64.0) == [42.0]

    def test_respects_running_releases(self):
        jobs = [make_job(1, duration=10.0, nodes=8)]
        starts = pack(
            jobs,
            now=0.0,
            free_nodes=2,
            free_memory_gb=64.0,
            releases=[(30.0, 6, 0.0)],
        )
        assert starts == [30.0]

    def test_packed_plan_never_oversubscribes(self):
        rng = np.random.default_rng(3)
        jobs = [
            make_job(
                i,
                duration=float(rng.integers(5, 50)),
                nodes=int(rng.integers(1, 9)),
                memory=float(rng.integers(1, 65)),
            )
            for i in range(1, 40)
        ]
        starts = pack(jobs, now=0.0, free_nodes=8, free_memory_gb=64.0)
        # Sweep check against capacity.
        points = []
        for job, start in zip(jobs, starts):
            points.append((start + job.duration, 0, -job.nodes, -job.memory_gb))
            points.append((start, 1, job.nodes, job.memory_gb))
        points.sort(key=lambda x: (x[0], x[1]))
        nodes = mem = 0.0
        for _, _, dn, dm in points:
            nodes += dn
            mem += dm
            assert nodes <= 8 + 1e-9
            assert mem <= 64.0 + 1e-6

    def test_plan_statistics(self):
        jobs = [
            make_job(1, duration=10.0, nodes=8),
            make_job(2, duration=20.0, nodes=8),
        ]
        packer = SerialPacker(now=0.0, free_nodes=8, free_memory_gb=64.0)
        assert packer.pack(jobs) == ([0.0, 10.0], 30.0, 40.0)

    def test_empty_plan(self):
        packer = SerialPacker(now=5.0, free_nodes=8, free_memory_gb=64.0)
        packed = packer.pack([])
        assert packed == ([], 5.0, 0.0)
        assert AnnealingOptimizer()._objective(packed, 5.0) == 0.0


class TestStatedSumOrder:
    """The flow-time term is a left fold on every interpreter: a
    compensated ``sum()`` would move the annealer's objectives, and
    with them its accept decisions, by the last bits."""

    def plans(self, n=60):
        """Job lists that pack at their submit times on a cluster wide
        enough for all of them at once."""
        for seed in range(50):
            rng = np.random.default_rng(seed)
            yield [
                make_job(
                    i + 1,
                    duration=float(rng.uniform(1.0, 5e3)),
                    submit=float(rng.uniform(0.0, 1e5)),
                )
                for i in range(n)
            ]

    def test_plan_total_completion_is_the_left_fold(self):
        differing = []
        for jobs in self.plans():
            ends = [j.submit_time + j.duration for j in jobs]
            if neumaier_sum(ends) != left_fold(ends):
                differing.append((jobs, ends))
        assert len(differing) >= 10  # the hazard is not hypothetical
        weight = AnnealingOptimizer().config.flow_time_weight
        for jobs, ends in differing:
            packer = SerialPacker(now=0.0, free_nodes=1e6, free_memory_gb=1e9)
            packed = packer.pack(jobs)
            starts, latest, total = packed
            assert starts == [j.submit_time for j in jobs]
            fold = left_fold(ends)
            assert (latest, total) == (max(ends), fold)
            assert AnnealingOptimizer()._objective(packed, 0.0) == (
                max(ends) + weight * fold / len(jobs)
            )


class TestSerialPacker:
    KWARGS = dict(
        now=0.0, free_nodes=8, free_memory_gb=64.0,
        releases=[(12.0, 2, 16.0)],
    )

    def jobs(self, n=10):
        return [
            make_job(i + 1, duration=7.0 * (i % 4 + 1), nodes=i % 3 + 2)
            for i in range(n)
        ]

    def test_jobs_packed_counts_every_placement(self):
        packer = SerialPacker(**self.KWARGS)
        jobs = self.jobs(10)
        packer.pack(jobs)
        assert packer.jobs_packed == 10
        cand = list(jobs)
        cand[4], cand[7] = cand[7], cand[4]
        packer.pack(cand)
        assert packer.jobs_packed == 20  # a candidate places its whole order
        packer.pack([])
        assert packer.jobs_packed == 20

    def test_every_pack_starts_from_the_base_profile(self):
        # Reservations of one candidate never leak into the next: the
        # packer holds no state between packs but its counter.
        packer = SerialPacker(**self.KWARGS)
        jobs = self.jobs()
        first = packer.pack(jobs)
        packer.pack(list(reversed(jobs)))
        again = packer.pack(jobs)
        fresh = SerialPacker(**self.KWARGS).pack(jobs)
        assert again == first
        assert fresh == first
