"""Unit tests for the Polaris trace substitute and preprocessing."""

import io

import pytest

from repro import compute_metrics, create_scheduler, normalize_to_baseline
from repro.sim.cluster import ResourcePool
from repro.sim.simulator import simulate
from repro.workloads.polaris import (
    POLARIS_MEMORY_PER_NODE_GB,
    POLARIS_NODES,
    RawTraceRecord,
    preprocess_trace,
    synthesize_polaris_trace,
)
from repro.workloads.swf import jobs_from_swf, jobs_to_swf


class TestSynthesizer:
    def test_record_count(self):
        assert len(synthesize_polaris_trace(n_jobs=50, seed=1)) == 50

    def test_deterministic(self):
        a = synthesize_polaris_trace(n_jobs=30, seed=4)
        b = synthesize_polaris_trace(n_jobs=30, seed=4)
        assert a == b

    def test_submission_order(self):
        records = synthesize_polaris_trace(n_jobs=80, seed=2)
        submits = [r.submit_ts for r in records]
        assert submits == sorted(submits)

    def test_failed_fraction_approximate(self):
        records = synthesize_polaris_trace(n_jobs=2000, seed=3, failed_fraction=0.2)
        failed = sum(1 for r in records if r.exit_status == -1)
        assert 0.15 <= failed / 2000 <= 0.25

    def test_node_counts_in_partition(self):
        records = synthesize_polaris_trace(n_jobs=300, seed=5)
        assert all(1 <= r.nodes_requested <= POLARIS_NODES for r in records)

    def test_runtime_within_walltime(self):
        records = synthesize_polaris_trace(n_jobs=200, seed=6)
        completed = [r for r in records if r.exit_status == 0]
        assert all(
            r.runtime_s <= r.walltime_requested_s + 1e-6 for r in completed
        )

    def test_start_after_submit(self):
        records = synthesize_polaris_trace(n_jobs=100, seed=7)
        assert all(r.start_ts >= r.submit_ts for r in records)

    def test_zero_jobs_gives_empty_trace(self):
        assert synthesize_polaris_trace(n_jobs=0, seed=1) == []
        assert preprocess_trace(synthesize_polaris_trace(n_jobs=0), n_jobs=0) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            synthesize_polaris_trace(n_jobs=-1)
        with pytest.raises(ValueError):
            synthesize_polaris_trace(failed_fraction=1.0)


class TestPreprocessing:
    def test_filters_failed_jobs(self):
        records = synthesize_polaris_trace(n_jobs=200, seed=8, failed_fraction=0.3)
        jobs = preprocess_trace(records, n_jobs=None)
        n_completed = sum(1 for r in records if r.exit_status != -1)
        assert len(jobs) == n_completed

    def test_takes_first_n(self):
        records = synthesize_polaris_trace(n_jobs=150, seed=9)
        jobs = preprocess_trace(records, n_jobs=100)
        assert len(jobs) == 100

    def test_normalized_to_earliest_submission(self):
        records = synthesize_polaris_trace(n_jobs=50, seed=10)
        jobs = preprocess_trace(records, n_jobs=None)
        assert jobs[0].submit_time == 0.0
        assert all(j.submit_time >= 0 for j in jobs)

    def test_users_factorized_in_first_seen_order(self):
        records = synthesize_polaris_trace(n_jobs=60, seed=11)
        jobs = preprocess_trace(records, n_jobs=None)
        assert jobs[0].user == "User_1"
        assert all(j.user.startswith("User_") for j in jobs)
        assert all(j.group.startswith("Group_") for j in jobs)

    def test_memory_derived_from_nodes(self):
        records = synthesize_polaris_trace(n_jobs=40, seed=12)
        jobs = preprocess_trace(records, n_jobs=None)
        assert all(
            j.memory_gb == j.nodes * POLARIS_MEMORY_PER_NODE_GB for j in jobs
        )

    def test_walltime_at_least_duration(self):
        records = synthesize_polaris_trace(n_jobs=40, seed=13)
        jobs = preprocess_trace(records, n_jobs=None)
        assert all(j.walltime >= j.duration for j in jobs)

    def test_empty_input(self):
        assert preprocess_trace([]) == []

    def test_all_failed(self):
        rec = RawTraceRecord(
            job_name="x", user="u", group="g",
            submit_ts=0.0, start_ts=1.0, end_ts=2.0,
            nodes_requested=1, walltime_requested_s=100.0, exit_status=-1,
        )
        assert preprocess_trace([rec]) == []

    def test_schedulable_on_polaris_partition(self):
        records = synthesize_polaris_trace(n_jobs=120, seed=14)
        jobs = preprocess_trace(records, n_jobs=100)
        total_mem = POLARIS_NODES * POLARIS_MEMORY_PER_NODE_GB
        assert all(
            j.nodes <= POLARIS_NODES and j.memory_gb <= total_mem for j in jobs
        )


def swf_round_trip(jobs):
    buf = io.StringIO()
    jobs_to_swf(jobs, buf)
    buf.seek(0)
    return jobs_from_swf(buf)


class TestSwfArtifact:
    """The cleaned trace is published as SWF (examples/polaris_replay.py
    step 3): what a replay needs survives the round trip."""

    JOBS = preprocess_trace(
        synthesize_polaris_trace(n_jobs=130, seed=2024), n_jobs=100
    )

    def test_preprocessed_trace_survives_swf(self):
        back = swf_round_trip(self.JOBS)
        assert [j.job_id for j in back] == [j.job_id for j in self.JOBS]
        for orig, new in zip(self.JOBS, back):
            assert new.nodes == orig.nodes
            assert new.memory_gb == pytest.approx(orig.memory_gb, rel=1e-9)
            for field in ("submit_time", "duration", "walltime"):
                assert getattr(new, field) == pytest.approx(
                    getattr(orig, field), abs=0.005
                )
            # Labels keep their numeric ids: the same users and groups.
            assert new.user == orig.user.lower()
            assert new.group == orig.group.lower()

    def test_replay_table_survives_swf(self):
        def table(jobs):
            values = {}
            for name in ("fcfs", "sjf", "ortools_like"):
                result = simulate(
                    jobs, create_scheduler(name, seed=0),
                    cluster=ResourcePool(
                        total_nodes=POLARIS_NODES,
                        total_memory_gb=POLARIS_NODES
                        * POLARIS_MEMORY_PER_NODE_GB,
                    ),
                )
                values[name] = compute_metrics(result).values
            return {
                name: {m: round(v, 3) for m, v in
                       normalize_to_baseline(row, values["fcfs"]).items()}
                for name, row in values.items()
            }

        assert table(swf_round_trip(self.JOBS)) == table(self.JOBS)
