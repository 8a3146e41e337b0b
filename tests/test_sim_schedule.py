"""Unit tests for schedule records and results."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.actions import Delay, StartJob
from repro.sim.constraints import Violation, ViolationKind
from repro.sim.schedule import DecisionRecord, JobRecord, ScheduleResult

from tests.conftest import make_job


def record(job_id=1, *, submit=0.0, start=10.0, dur=5.0, nodes=2, mem=8.0, user="u0"):
    job = make_job(job_id, submit=submit, duration=dur, nodes=nodes, memory=mem, user=user)
    return JobRecord(job, start, start + dur)


class TestJobRecord:
    def test_wait_and_turnaround(self):
        rec = record(submit=5.0, start=15.0, dur=10.0)
        assert rec.wait_time == 10.0
        assert result_with([rec]).to_arrays()["turnaround"][0] == 20.0

    def test_start_before_submit_rejected(self):
        job = make_job(1, submit=100.0)
        with pytest.raises(ValueError, match="before"):
            JobRecord(job, 50.0, 150.0)

    def test_end_before_start_rejected(self):
        job = make_job(1)
        with pytest.raises(ValueError, match="ended before"):
            JobRecord(job, 10.0, 5.0)


def result_with(records, nodes=256, mem=2048.0):
    return ScheduleResult(
        records=records,
        decisions=[],
        total_nodes=nodes,
        total_memory_gb=mem,
        scheduler_name="test",
    )


class TestScheduleResult:
    def test_makespan_from_earliest_submit(self):
        res = result_with([
            record(1, submit=10.0, start=10.0, dur=5.0),
            record(2, submit=0.0, start=0.0, dur=30.0),
        ])
        assert res.makespan == 30.0

    def test_empty_result(self):
        res = result_with([])
        assert res.makespan == 0.0
        assert res.n_jobs == 0
        assert res.max_concurrent_usage() == (0.0, 0.0)

    def test_to_arrays_contents(self):
        res = result_with([record(1, start=10.0, dur=5.0, nodes=3, mem=12.0)])
        arrays = res.to_arrays()
        assert arrays["start"][0] == 10.0
        assert arrays["nodes"][0] == 3
        assert arrays["wait"][0] == 10.0
        assert arrays["turnaround"][0] == 15.0
        assert arrays["user"][0] == "u0"
        assert arrays["job_id"].dtype == np.int64

    def test_record_for(self):
        res = result_with([record(1), record(2)])
        assert res.record_for(2).job.job_id == 2
        with pytest.raises(KeyError):
            res.record_for(3)

    def test_accepted_placements_filter(self):
        res = result_with([])
        res.decisions.extend([
            DecisionRecord(0.0, StartJob(1), accepted=True),
            DecisionRecord(0.0, Delay, accepted=True),
            DecisionRecord(
                0.0,
                StartJob(2),
                accepted=False,
                violations=(Violation(ViolationKind.NOT_QUEUED, 2),),
            ),
        ])
        assert len(res.accepted_placements) == 1
        assert len(res.rejected_decisions) == 1


class TestCapacityVerification:
    def test_peak_usage_overlapping(self):
        res = result_with([
            record(1, start=0.0, dur=10.0, nodes=4),
            record(2, start=5.0, dur=10.0, nodes=4),
            record(3, start=20.0, dur=5.0, nodes=4),
        ])
        peak_nodes, _ = res.max_concurrent_usage()
        assert peak_nodes == 8.0

    def test_back_to_back_not_concurrent(self):
        # Job 2 starts exactly when job 1 ends: half-open intervals.
        res = result_with([
            record(1, start=0.0, dur=10.0, nodes=4),
            record(2, start=10.0, dur=10.0, nodes=4),
        ])
        peak_nodes, _ = res.max_concurrent_usage()
        assert peak_nodes == 4.0

    def test_verify_capacity_passes(self):
        res = result_with(
            [record(1, nodes=4), record(2, nodes=4)], nodes=8, mem=64.0
        )
        res.verify_capacity()

    def test_verify_capacity_detects_violation(self):
        res = result_with(
            [
                record(1, start=0.0, dur=10.0, nodes=6),
                record(2, start=5.0, dur=10.0, nodes=6),
            ],
            nodes=8,
            mem=64.0,
        )
        with pytest.raises(AssertionError, match="node capacity"):
            res.verify_capacity()

    def test_verify_memory_violation(self):
        res = result_with(
            [
                record(1, start=0.0, dur=10.0, nodes=1, mem=40.0),
                record(2, start=0.0, dur=10.0, nodes=1, mem=40.0),
            ],
            nodes=8,
            mem=64.0,
        )
        with pytest.raises(AssertionError, match="memory capacity"):
            res.verify_capacity()


#: ``(start, duration, nodes, memory_gb)`` rows on an integer clock, so
#: jobs start together and one ends as another starts; memory in
#: quarters, so every sum below is exact.
touching_rows = st.lists(
    st.tuples(
        st.integers(0, 20),
        st.integers(1, 10),
        st.integers(1, 8),
        st.integers(0, 64).map(lambda q: q / 4),
    ),
    min_size=1,
    max_size=25,
)


def rows_result(rows, nodes=256, mem=2048.0):
    return result_with(
        [
            record(k, start=float(t), dur=float(d), nodes=n, mem=m)
            for k, (t, d, n, m) in enumerate(rows)
        ],
        nodes=nodes,
        mem=mem,
    )


def brute_force_peak(records):
    """The largest node and memory sums over the records running at one
    instant (``start <= s < end``), tried at every start instant."""
    instants = {rec.start_time for rec in records}
    running = [
        [rec for rec in records if rec.start_time <= s < rec.end_time]
        for s in instants
    ]
    return (
        max(sum(rec.job.nodes for rec in group) for group in running),
        max(sum(rec.job.memory_gb for rec in group) for group in running),
    )


def sweep_reference(records):
    """``max_concurrent_usage`` as a sorted list of points and a running
    total: the arithmetic the vectorized sweep must reproduce bit for
    bit."""
    points = []
    for rec in records:
        points.append((rec.end_time, 0, -rec.job.nodes, -rec.job.memory_gb))
        points.append((rec.start_time, 1, rec.job.nodes, rec.job.memory_gb))
    points.sort(key=lambda p: (p[0], p[1]))
    nodes = mem = peak_nodes = peak_mem = 0.0
    for _, _, dn, dm in points:
        nodes += dn
        mem += dm
        peak_nodes = max(peak_nodes, nodes)
        peak_mem = max(peak_mem, mem)
    return (peak_nodes, peak_mem)


class TestCapacityRightness:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=touching_rows,
        cap_nodes=st.integers(1, 60),
        cap_mem=st.integers(0, 200).map(float),
    )
    def test_peak_is_the_brute_force_peak(self, rows, cap_nodes, cap_mem):
        res = rows_result(rows, nodes=cap_nodes, mem=cap_mem)
        peak = brute_force_peak(res.records)
        assert res.max_concurrent_usage() == peak
        # verify_capacity raises exactly when a peak exceeds capacity.
        over = peak[0] > cap_nodes or peak[1] > cap_mem
        if over:
            with pytest.raises(AssertionError, match="capacity violated"):
                res.verify_capacity()
        else:
            res.verify_capacity()

    def test_oversubscription_at_a_shared_start_instant(self):
        # 3 + 3 nodes end at t=10 as 4 + 3 start: 7 <= 8 across the
        # handover, but the job still running from t=5 makes it 9.
        res = result_with(
            [
                record(1, start=0.0, dur=10.0, nodes=3),
                record(2, start=0.0, dur=10.0, nodes=3),
                record(3, start=10.0, dur=5.0, nodes=4),
                record(4, start=10.0, dur=5.0, nodes=3),
                record(5, start=5.0, dur=6.0, nodes=2),
            ],
            nodes=8,
        )
        assert res.max_concurrent_usage()[0] == 9.0
        with pytest.raises(AssertionError, match="node capacity violated"):
            res.verify_capacity()

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1e6),
                st.floats(1e-3, 1e5),
                st.integers(1, 64),
                st.floats(0.0, 512.0),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_sweep_bits_equal_the_running_total(self, rows):
        res = result_with(
            [
                record(k, start=t, dur=d, nodes=n, mem=m)
                for k, (t, d, n, m) in enumerate(rows)
            ]
        )
        got = res.max_concurrent_usage()
        want = sweep_reference(res.records)
        assert [x.hex() for x in got] == [x.hex() for x in want]


def to_arrays_reference(records):
    """``to_arrays`` as one scalar store per field and record."""
    n = len(records)
    out = {name: np.empty(n) for name in (
        "submit", "start", "end", "duration", "nodes", "memory_gb",
    )}
    out["job_id"] = np.empty(n, dtype=np.int64)
    out["user"] = np.empty(n, dtype=object)
    for i, rec in enumerate(records):
        out["submit"][i] = rec.job.submit_time
        out["start"][i] = rec.start_time
        out["end"][i] = rec.end_time
        out["duration"][i] = rec.end_time - rec.start_time
        out["nodes"][i] = rec.job.nodes
        out["memory_gb"][i] = rec.job.memory_gb
        out["job_id"][i] = rec.job.job_id
        out["user"][i] = rec.job.user
    out["wait"] = out["start"] - out["submit"]
    out["turnaround"] = out["end"] - out["submit"]
    return out


@pytest.mark.parametrize("n", [0, 1, 37])
def test_to_arrays_bits_equal_the_scalar_stores(n):
    rng = np.random.default_rng(n)
    records = []
    for k in range(n):
        submit = float(rng.uniform(0, 1e4))
        start = submit + float(rng.exponential(300.0))
        job = make_job(
            int(rng.integers(0, 10**6)),
            submit=submit,
            duration=float(rng.uniform(1.0, 5e3)),
            nodes=int(rng.integers(1, 64)),
            memory=float(rng.uniform(0.0, 512.0)),
            user=f"u{k % 3}",
        )
        # Killed at a walltime: an end that is not start + duration.
        records.append(JobRecord(job, start, start + job.duration * 0.7))
    got = result_with(records).to_arrays()
    want = to_arrays_reference(records)
    assert list(got) == list(want)
    for name, column in want.items():
        assert got[name].dtype == column.dtype, name
        assert got[name].shape == column.shape, name
        if column.dtype == object:
            assert got[name].tolist() == column.tolist()
        else:
            assert got[name].tobytes() == column.tobytes(), name
