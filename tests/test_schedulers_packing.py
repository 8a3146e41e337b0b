"""Unit tests for the resource-profile packing engine."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.schedulers.packing import (
    PackingError,
    ResourceProfile,
    pack_order,
    plan_makespan,
    plan_total_completion,
)
from repro.schedulers.recovery import split_unpackable

from tests.conftest import make_job


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
        assert profile.capacity_at(0.0) == (8.0, 64.0)
        assert profile.capacity_at(10.0) == (10.0, 72.0)

    def test_memory_constraint_checked(self):
        profile = ResourceProfile(0.0, 8, 16.0, releases=[(30.0, 0, 48.0)])
        assert profile.earliest_start(1, 32.0, 5.0, not_before=0.0) == 30.0


class TestResourceProfileEdgeCases:
    def test_zero_duration_reservation_is_noop(self):
        profile = ResourceProfile(0.0, 8, 64.0)
        profile.reserve(10.0, 0.0, 8, 64.0)
        # No capacity consumed anywhere, including at the instant itself.
        assert profile.earliest_start(8, 64.0, 5.0, not_before=0.0) == 0.0
        assert profile.capacity_at(10.0) == (8.0, 64.0)

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
        assert profile.times.size == 2  # origin + one merged breakpoint
        assert profile.capacity_at(50.0) == (8.0, 64.0)
        assert profile.earliest_start(8, 64.0, 10.0, not_before=0.0) == 50.0

    def test_release_before_origin_clamps_to_origin(self):
        profile = ResourceProfile(100.0, 2, 16.0, releases=[(40.0, 6, 48.0)])
        assert profile.times.size == 1
        assert profile.capacity_at(100.0) == (8.0, 64.0)

    def test_reservation_at_profile_origin(self):
        profile = ResourceProfile(25.0, 8, 64.0)
        profile.reserve(25.0, 10.0, 8, 64.0)
        assert profile.capacity_at(25.0) == (0.0, 0.0)
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
        np.testing.assert_array_equal(checked.times, trusted.times)
        np.testing.assert_array_equal(checked.free_nodes, trusted.free_nodes)
        np.testing.assert_array_equal(
            checked.free_memory, trusted.free_memory
        )

    def test_growth_preserves_state(self):
        profile = ResourceProfile(0.0, 256, 2048.0)
        starts = []
        for s in range(120):  # far beyond the initial capacity
            start = profile.earliest_start(2, 16.0, 3.0, not_before=1.5 * s)
            profile.reserve(start, 3.0, 2, 16.0)
            starts.append(start)
        assert starts == [1.5 * s for s in range(120)]
        assert profile.times.size > 120


class TestSplitUnpackable:
    """Parking against eventual capacity (degraded clusters only)."""

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

    def test_healthy_cluster_skips_the_split(self):
        healthy = SimpleNamespace(nodes_offline=0)
        assert split_unpackable(healthy, self.jobs(), iter(())) == (
            self.jobs(), [],
        )


class TestPackOrder:
    def test_sequential_when_full(self):
        jobs = [
            make_job(1, duration=10.0, nodes=8),
            make_job(2, duration=20.0, nodes=8),
        ]
        packed = pack_order(jobs, now=0.0, free_nodes=8, free_memory_gb=64.0)
        assert packed[0].start == 0.0
        assert packed[1].start == 10.0

    def test_later_job_can_start_earlier(self):
        # Order is a priority list: job 2 (second in order) fits in the
        # gap before job 1's huge ask is satisfiable.
        jobs = [
            make_job(1, duration=10.0, nodes=8),
            make_job(2, duration=5.0, nodes=8),
            make_job(3, duration=3.0, nodes=2),
        ]
        packed = pack_order(
            [jobs[0], jobs[1], jobs[2]],
            now=0.0, free_nodes=8, free_memory_gb=64.0,
        )
        by_id = {p.job.job_id: p for p in packed}
        assert by_id[1].start == 0.0
        assert by_id[2].start == 10.0
        assert by_id[3].start == 15.0

    def test_respects_submit_times(self):
        jobs = [make_job(1, submit=42.0, duration=10.0, nodes=1)]
        packed = pack_order(jobs, now=0.0, free_nodes=8, free_memory_gb=64.0)
        assert packed[0].start == 42.0

    def test_respects_running_releases(self):
        jobs = [make_job(1, duration=10.0, nodes=8)]
        packed = pack_order(
            jobs,
            now=0.0,
            free_nodes=2,
            free_memory_gb=64.0,
            releases=[(30.0, 6, 0.0)],
        )
        assert packed[0].start == 30.0

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
        packed = pack_order(jobs, now=0.0, free_nodes=8, free_memory_gb=64.0)
        # Sweep check against capacity.
        points = []
        for p in packed:
            points.append((p.end, 0, -p.job.nodes, -p.job.memory_gb))
            points.append((p.start, 1, p.job.nodes, p.job.memory_gb))
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
        packed = pack_order(jobs, now=0.0, free_nodes=8, free_memory_gb=64.0)
        assert plan_makespan(packed, 0.0) == 30.0
        assert plan_total_completion(packed) == 40.0

    def test_empty_plan(self):
        assert plan_makespan([], 0.0) == 0.0
        assert plan_total_completion([]) == 0.0


class TestPackStats:
    def jobs(self, n=10):
        return [make_job(i + 1, duration=10.0 * (i + 1), nodes=2)
                for i in range(n)]

    def test_counters_track_packing_work(self):
        from repro.schedulers.packing import IncrementalPacker

        packer = IncrementalPacker(now=0.0, free_nodes=8, free_memory_gb=64.0)
        jobs = self.jobs(10)
        packer.pack(jobs)
        assert packer.stats.full_packs == 1
        assert packer.stats.jobs_packed == 10
        cand = list(jobs)
        cand[4], cand[7] = cand[7], cand[4]
        packer.pack_from(cand, 4)
        assert packer.stats.suffix_packs == 1
        assert packer.stats.jobs_packed == 16  # 10 + suffix of 6
        packer.commit(cand, 4, packer.pack_from(cand, 4))
        assert packer.stats.commits == 1

    def test_as_dict_round_trips_every_counter(self):
        from repro.schedulers.packing import PackStats

        stats = PackStats(jobs_packed=3, commits=1)
        d = stats.as_dict()
        assert d["jobs_packed"] == 3
        assert d["commits"] == 1
        assert set(d) == {
            "jobs_packed", "jobs_replayed", "full_packs", "suffix_packs",
            "commits", "incumbents_saved", "incumbents_loaded",
            "incumbents_evicted",
        }


class TestIncumbentRetention:
    def packer(self, retain=3):
        from repro.schedulers.packing import IncrementalPacker

        return IncrementalPacker(
            now=0.0, free_nodes=8, free_memory_gb=64.0,
            retain_incumbents=retain,
        )

    def jobs(self, n=12):
        return [make_job(i + 1, duration=5.0 * (i + 1), nodes=2)
                for i in range(n)]

    def test_saved_incumbent_restores_exact_pack_state(self):
        packer = self.packer()
        jobs = self.jobs()
        a = packer.pack(jobs)
        packer.save_incumbent("a")
        b_order = list(reversed(jobs))
        packer.pack(b_order)
        packer.save_incumbent("b")
        # Evaluate a child sharing A's prefix up to 6: must equal a
        # from-scratch pack of the child order.
        assert packer.load_incumbent("a")
        child = jobs[:6] + list(reversed(jobs[6:]))
        got = packer.pack_from(child, 6)
        expected = pack_order(
            child, now=0.0, free_nodes=8, free_memory_gb=64.0
        )
        assert [(p.job.job_id, p.start) for p in got] == [
            (p.job.job_id, p.start) for p in expected
        ]
        # A's own placements are untouched by B having been packed.
        assert packer.load_incumbent("a")
        assert [(p.job.job_id, p.start) for p in packer.pack_from(jobs, 12)] \
            == [(p.job.job_id, p.start) for p in a]

    def test_fifo_eviction_bounds_memory(self):
        packer = self.packer(retain=2)
        jobs = self.jobs(4)
        for key in ("a", "b", "c"):
            packer.pack(jobs)
            packer.save_incumbent(key)
        assert not packer.load_incumbent("a")  # evicted
        assert packer.load_incumbent("b")
        assert packer.load_incumbent("c")
        assert packer.stats.incumbents_evicted == 1

    def test_retention_disabled_by_default(self):
        from repro.schedulers.packing import IncrementalPacker

        packer = IncrementalPacker(now=0.0, free_nodes=8, free_memory_gb=64.0)
        packer.pack(self.jobs(4))
        packer.save_incumbent("a")
        assert not packer.load_incumbent("a")

    def test_clear_incumbents(self):
        packer = self.packer()
        packer.pack(self.jobs(4))
        packer.save_incumbent("a")
        packer.clear_incumbents()
        assert not packer.load_incumbent("a")

    def test_commit_shares_prefix_snapshots(self):
        # A child committed at cut c keeps the parent's checkpoints at
        # or below c by reference — the O(k) snapshot reuse the GA
        # depends on for bounded memory.
        from repro.schedulers.packing import IncrementalPacker

        packer = IncrementalPacker(
            now=0.0, free_nodes=8, free_memory_gb=64.0,
            checkpoint_stride=2, retain_incumbents=4,
        )
        jobs = self.jobs(8)
        packer.pack(jobs)
        parent_snapshots = {
            pos: snap for pos, snap in packer._inc.checkpoints.items()
        }
        child = jobs[:4] + list(reversed(jobs[4:]))
        placements = packer.pack_from(child, 4)
        packer.commit(child, 4, placements)
        for pos, snap in packer._inc.checkpoints.items():
            assert pos <= 4
            assert snap is parent_snapshots[pos]
