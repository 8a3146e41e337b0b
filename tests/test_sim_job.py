"""Unit tests for the job model."""

import math

import pytest

from repro.sim.job import Job, JobState, screen_unschedulable, validate_workload

from tests.conftest import make_job


class TestJobConstruction:
    def test_minimal_job(self):
        job = Job(job_id=1, submit_time=0.0, duration=10.0, nodes=2, memory_gb=4.0)
        assert job.job_id == 1
        assert job.nodes == 2

    def test_walltime_defaults_to_duration(self):
        job = Job(job_id=1, submit_time=0.0, duration=42.0, nodes=1, memory_gb=1.0)
        assert job.walltime == 42.0

    def test_explicit_walltime_kept(self):
        job = make_job(duration=50.0, walltime=100.0)
        assert job.walltime == 100.0

    def test_negative_job_id_rejected(self):
        with pytest.raises(ValueError, match="job_id"):
            Job(job_id=-1, submit_time=0.0, duration=1.0, nodes=1, memory_gb=1.0)

    def test_negative_submit_rejected(self):
        with pytest.raises(ValueError, match="submit_time"):
            Job(job_id=1, submit_time=-1.0, duration=1.0, nodes=1, memory_gb=1.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            Job(job_id=1, submit_time=0.0, duration=0.0, nodes=1, memory_gb=1.0)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError, match="nodes"):
            Job(job_id=1, submit_time=0.0, duration=1.0, nodes=0, memory_gb=1.0)

    def test_negative_memory_rejected(self):
        with pytest.raises(ValueError, match="memory"):
            Job(job_id=1, submit_time=0.0, duration=1.0, nodes=1, memory_gb=-2.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field", ["submit_time", "duration", "memory_gb", "walltime"]
    )
    def test_non_finite_field_rejected(self, field, value):
        fields = dict(
            job_id=1, submit_time=0.0, duration=1.0, nodes=1, memory_gb=1.0
        )
        with pytest.raises(ValueError, match=field):
            Job(**dict(fields, **{field: value}))

    def test_jobs_are_immutable(self):
        job = make_job()
        with pytest.raises(AttributeError):
            job.nodes = 4  # type: ignore[misc]


class TestJobDerived:
    def test_node_seconds(self):
        assert make_job(duration=100.0, nodes=4).node_seconds == 400.0


class TestWorkloadValidation:
    def test_sorted_by_submit_then_id(self):
        jobs = [
            make_job(3, submit=5.0),
            make_job(1, submit=0.0),
            make_job(2, submit=0.0),
        ]
        ordered = validate_workload(jobs)
        assert [j.job_id for j in ordered] == [1, 2, 3]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate job_id"):
            validate_workload([make_job(1), make_job(1)])

    def test_empty_workload_ok(self):
        assert validate_workload([]) == []


class TestScreenUnschedulable:
    def test_splits_by_capacity(self):
        fits = make_job(1, nodes=4, memory=16.0)
        too_many_nodes = make_job(2, nodes=500, memory=1.0)
        too_much_memory = make_job(3, nodes=1, memory=5000.0)
        ok, bad = screen_unschedulable(
            [fits, too_many_nodes, too_much_memory], 256, 2048.0
        )
        assert [j.job_id for j in ok] == [1]
        assert sorted(j.job_id for j in bad) == [2, 3]

    def test_all_fit(self):
        ok, bad = screen_unschedulable([make_job(1)], 256, 2048.0)
        assert len(ok) == 1 and not bad


class TestJobState:
    def test_states_exist(self):
        assert {s.value for s in JobState} == {
            "pending", "queued", "running", "completed",
        }
