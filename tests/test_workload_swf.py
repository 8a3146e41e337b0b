"""Tests for SWF trace interoperability."""

import io
import os
import subprocess
import sys

import pytest

from repro.workloads.generator import generate_workload
from repro.workloads.swf import jobs_from_swf, jobs_to_swf


def round_trip(jobs):
    buf = io.StringIO()
    jobs_to_swf(jobs, buf)
    buf.seek(0)
    return jobs_from_swf(buf)


class TestRoundTrip:
    def test_core_fields_survive(self):
        jobs = generate_workload("heterogeneous_mix", 15, seed=2)
        back = round_trip(jobs)
        assert len(back) == 15
        for orig, new in zip(jobs, back):
            assert new.job_id == orig.job_id
            assert new.nodes == orig.nodes
            assert new.submit_time == pytest.approx(orig.submit_time, abs=0.01)
            assert new.duration == pytest.approx(orig.duration, abs=0.01)
            assert new.walltime == pytest.approx(orig.walltime, abs=0.01)
            assert new.memory_gb == pytest.approx(orig.memory_gb, rel=1e-4)
            assert new.user == orig.user

    def test_file_round_trip(self, tmp_path):
        jobs = generate_workload("bursty_idle", 10, seed=1)
        path = tmp_path / "trace.swf"
        jobs_to_swf(jobs, path, header="bursty test trace")
        text = path.read_text()
        assert text.startswith(";")
        assert "bursty test trace" in text
        assert len(jobs_from_swf(path)) == 10


_WRITE_NAMED_JOB = """
import sys
from repro.sim.job import Job
from repro.workloads.swf import jobs_to_swf
job = Job(job_id=1, submit_time=0.0, duration=60.0, nodes=2,
          memory_gb=8.0, user="alice", group="physics")
jobs_to_swf([job], sys.stdout)
"""


class TestReproducibleIds:
    def test_named_labels_do_not_depend_on_hash_seed(self):
        # Labels without a numeric suffix take the hash fallback; a
        # salted builtin hash() wrote different ids in every process.
        def written(hash_seed: str) -> bytes:
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=os.pathsep.join(sys.path),
            )
            return subprocess.run(
                [sys.executable, "-c", _WRITE_NAMED_JOB],
                env=env, capture_output=True, check=True,
            ).stdout

        assert written("1") == written("2")


class TestRobustParsing:
    def test_comments_and_blank_lines_skipped(self):
        text = (
            "; header comment\n"
            "\n"
            "1 0 -1 100 4 -1 -1 4 200 -1 -1 3 1 -1 -1 -1 -1 -1\n"
        )
        jobs = jobs_from_swf(io.StringIO(text))
        assert len(jobs) == 1
        assert jobs[0].nodes == 4
        assert jobs[0].user == "user_3"

    def test_cancelled_jobs_filtered(self):
        text = (
            "1 0 -1 0 4 -1 -1 4 200 -1 -1 3 1 -1 -1 -1 -1 -1\n"   # runtime 0
            "2 0 -1 -1 4 -1 -1 4 200 -1 -1 3 1 -1 -1 -1 -1 -1\n"  # runtime -1
            "3 5 -1 50 2 -1 -1 2 100 -1 -1 3 1 -1 -1 -1 -1 -1\n"
        )
        jobs = jobs_from_swf(io.StringIO(text))
        assert [j.job_id for j in jobs] == [3]

    def test_allocated_procs_fallback_to_requested(self):
        text = "1 0 -1 100 -1 -1 -1 16 200 -1 -1 3 1 -1 -1 -1 -1 -1\n"
        jobs = jobs_from_swf(io.StringIO(text))
        assert jobs[0].nodes == 16

    def test_unknown_memory_defaults(self):
        text = "1 0 -1 100 4 -1 -1 4 200 -1 -1 3 1 -1 -1 -1 -1 -1\n"
        jobs = jobs_from_swf(io.StringIO(text))
        assert jobs[0].memory_gb == 1.0

    def test_malformed_lines_skipped(self):
        text = (
            "garbage line\n"
            "1 0 -1 100 4 -1 -1 4 200 -1 -1 3 1 -1 -1 -1 -1 -1\n"
        )
        assert len(jobs_from_swf(io.StringIO(text))) == 1

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no usable jobs"):
            jobs_from_swf(io.StringIO("; only a comment\n"))

    def test_negative_walltime_falls_back_to_runtime(self):
        text = "1 0 -1 100 4 -1 -1 4 -1 -1 -1 3 1 -1 -1 -1 -1 -1\n"
        jobs = jobs_from_swf(io.StringIO(text))
        assert jobs[0].walltime == 100.0
