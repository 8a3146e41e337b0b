"""Session engine: streaming arrivals, byte-identity, memoization.

The serving invariant (ISSUE 8): for the jobs known at query time, a
session's served schedule is **byte-identical** to batch
``run_single`` over those jobs — records, decisions, preemptions, and
metric floats all hash equal at full precision. These tests stream the
exact workloads the batch reference generates, in chunks, and compare
SHA-256 digests.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.runner import run_single
from repro.service.protocol import schedule_digest
from repro.service.session import Session, SessionConfig, SessionError
from repro.sim.job import Job
from repro.sim.simulator import SimulationError
from repro.workloads.generator import generate_workload


def stream_session(
    jobs, scheduler: str, scheduler_seed: int, chunk: int
) -> Session:
    session = Session(
        "t", SessionConfig(scheduler=scheduler, scheduler_seed=scheduler_seed)
    )
    ordered = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
    for i in range(0, len(ordered), chunk):
        session.append_jobs(ordered[i:i + chunk])
    return session


def session_digest(session: Session) -> str:
    result, metrics = session.ensure_result()
    return schedule_digest(result, metrics)


def batch_digest(scenario, n, scheduler, wseed, sseed) -> str:
    run = run_single(
        scenario,
        n,
        scheduler,
        workload_seed=wseed,
        scheduler_seed=sseed,
    )
    return schedule_digest(run.result, run.metrics.as_dict())


class TestByteIdentity:
    @pytest.mark.parametrize(
        "scheduler,sseed",
        [
            ("fcfs", 0),
            ("fcfs_backfill", 0),
            ("sjf", 0),
            ("largest_first", 0),
            ("random", 3),
        ],
    )
    def test_streamed_session_equals_batch(self, scheduler, sseed):
        scenario, n, wseed = "heterogeneous_mix", 40, 2
        jobs = generate_workload(scenario, n, seed=wseed)
        session = stream_session(jobs, scheduler, sseed, chunk=7)
        assert session_digest(session) == batch_digest(
            scenario, n, scheduler, wseed, sseed
        )

    def test_chunk_size_is_irrelevant(self):
        jobs = generate_workload("adversarial", 30, seed=1)
        digests = {
            session_digest(stream_session(jobs, "sjf", 0, chunk))
            for chunk in (1, 4, 30)
        }
        assert len(digests) == 1

    def test_growing_session_tracks_growing_batch(self):
        # After every appended chunk the session must equal the batch
        # reference over the jobs known so far — the streaming contract
        # is not just a statement about the final state.
        jobs = sorted(
            generate_workload("bursty_idle", 24, seed=4),
            key=lambda j: (j.submit_time, j.job_id),
        )
        session = Session("t", SessionConfig(scheduler="fcfs"))
        for i in range(0, len(jobs), 8):
            session.append_jobs(jobs[i:i + 8])
            batch = run_single(
                "bursty_idle", 24, "fcfs", jobs=jobs[: i + 8]
            )
            assert session_digest(session) == schedule_digest(
                batch.result, batch.metrics.as_dict()
            )


@st.composite
def tied_streams(draw):
    """A workload in streaming order whose submit times tie often —
    equal ``submit_time``, increasing ids — and the cut points that
    split it into ``append_jobs`` batches."""
    n = draw(st.integers(min_value=2, max_value=9))
    times = sorted(
        draw(st.lists(st.sampled_from((0.0, 40.0, 40.0, 300.0)),
                      min_size=n, max_size=n))
    )
    jobs = [
        Job(
            job_id=i + 1,
            submit_time=t,
            duration=draw(st.floats(min_value=1.0, max_value=900.0)),
            nodes=draw(st.integers(min_value=1, max_value=200)),
            memory_gb=draw(st.floats(min_value=1.0, max_value=1500.0)),
        )
        for i, t in enumerate(times)
    ]
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=n - 1))))
    return jobs, cuts


class TestChunkingProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        stream=tied_streams(),
        scheduler=st.sampled_from(
            ("fcfs", "fcfs_backfill", "sjf", "ortools_like", "claude-3.7-sim")
        ),
        sseed=st.integers(min_value=0, max_value=3),
    )
    def test_every_generation_equals_batch_over_its_prefix(
        self, stream, scheduler, sseed
    ):
        # Ties at equal submit_time across batch boundaries are the
        # interesting case: the prefix a generation replays must order
        # them exactly as the batch run over the same jobs does.
        jobs, cuts = stream
        session = Session(
            "p", SessionConfig(scheduler=scheduler, scheduler_seed=sseed)
        )
        for lo, hi in zip((0, *cuts), (*cuts, len(jobs))):
            session.append_jobs(jobs[lo:hi])
            batch = run_single(
                "tied", hi, scheduler, jobs=jobs[:hi], scheduler_seed=sseed
            )
            assert session_digest(session) == schedule_digest(
                batch.result, batch.metrics.as_dict()
            )
        assert session.n_runs == session.generation == len(cuts) + 1


class TestMemoization:
    def test_one_simulation_per_generation(self):
        jobs = generate_workload("homogeneous_short", 12, seed=0)
        session = stream_session(jobs, "fcfs", 0, chunk=12)
        d1 = session_digest(session)
        d2 = session_digest(session)
        d3 = session_digest(session)
        assert d1 == d2 == d3
        assert session.n_runs == 1
        assert session.n_result_reuses == 2

    def test_append_invalidates_memo(self):
        jobs = sorted(
            generate_workload("homogeneous_short", 12, seed=0),
            key=lambda j: (j.submit_time, j.job_id),
        )
        session = Session("t", SessionConfig(scheduler="fcfs"))
        session.append_jobs(jobs[:6])
        session.ensure_result()
        session.append_jobs(jobs[6:])
        session.ensure_result()
        assert session.generation == 2
        assert session.n_runs == 2

    def test_stats_shape(self):
        jobs = generate_workload("homogeneous_short", 8, seed=0)
        session = stream_session(jobs, "fcfs", 0, chunk=8)
        session.ensure_result()
        assert session.stats() == {
            "n_jobs": 8,
            "generation": 1,
            "n_runs": 1,
            "n_result_reuses": 0,
        }


class TestStreamingContract:
    def job(self, job_id, submit):
        return Job(
            job_id=job_id,
            submit_time=submit,
            duration=10.0,
            nodes=1,
            memory_gb=4.0,
        )

    def test_empty_batch_rejected(self):
        session = Session("t")
        with pytest.raises(SessionError, match="at least one job"):
            session.append_jobs([])

    def test_out_of_order_batch_rejected(self):
        session = Session("t")
        with pytest.raises(SessionError, match="strictly newer"):
            session.append_jobs([self.job(1, 5.0), self.job(2, 3.0)])

    def test_stale_arrival_rejected_across_batches(self):
        session = Session("t")
        session.append_jobs([self.job(1, 5.0)])
        with pytest.raises(SessionError, match="strictly newer"):
            session.append_jobs([self.job(2, 4.0)])

    def test_tied_time_requires_increasing_ids(self):
        session = Session("t")
        session.append_jobs([self.job(5, 1.0)])
        with pytest.raises(SessionError, match="strictly newer"):
            session.append_jobs([self.job(3, 1.0)])
        session.append_jobs([self.job(6, 1.0)])
        assert session.n_jobs == 2

    def test_duplicate_job_id_rejected(self):
        session = Session("t")
        session.append_jobs([self.job(1, 1.0)])
        with pytest.raises(SessionError, match="duplicate job id"):
            session.append_jobs([self.job(1, 2.0)])

    def test_rejected_batch_changes_nothing(self):
        session = Session("t")
        session.append_jobs([self.job(1, 1.0)])
        generation = session.generation
        with pytest.raises(SessionError):
            # First job of the batch is valid; the second is not. The
            # whole batch must be rolled back (never applied).
            session.append_jobs([self.job(2, 2.0), self.job(3, 0.5)])
        assert session.n_jobs == 1
        assert session.generation == generation
        session.append_jobs([self.job(2, 2.0)])
        assert session.n_jobs == 2

    def test_query_before_any_jobs_rejected(self):
        session = Session("t")
        with pytest.raises(SessionError, match="no jobs"):
            session.ensure_result()

    def test_nan_submit_time_rejected(self):
        # NaN is neither before nor after the tail, so only an explicit
        # check keeps it out; once in, every replay would fail on it.
        session = Session("t")
        session.append_jobs([self.job(1, 1.0)])
        with pytest.raises(SessionError, match="NaN"):
            session.append_jobs([self.job(2, 2.0), self.job(3, float("nan"))])
        assert session.n_jobs == 1 and session.generation == 1
        session.append_jobs([self.job(2, 2.0)])
        result, _ = session.ensure_result()
        assert [r.job.job_id for r in result.records] == [1, 2]


class TestConfigReachesReplay:
    """Every :class:`SessionConfig` field is forwarded to the replay:
    a session equals the batch run given the same option, and the
    option visibly changes that run."""

    def jobs(self):
        return sorted(
            generate_workload("heterogeneous_mix", 20, seed=2),
            key=lambda j: (j.submit_time, j.job_id),
        )

    @pytest.mark.parametrize(
        "scheduler,option",
        [
            ("claude-3.7-sim", {"max_retries": 0}),
            ("claude-3.7-sim", {"scheduler_seed": 1}),
            ("fcfs", {"enforce_walltime": True}),
        ],
        ids=["max_retries", "scheduler_seed", "enforce_walltime"],
    )
    def test_option_reaches_the_batch_run(self, scheduler, option):
        jobs = self.jobs()
        if "enforce_walltime" in option:
            # Under-estimated walltimes, so enforcing them kills jobs.
            jobs = [
                replace(j, walltime=j.duration / 2) if i % 3 == 0 else j
                for i, j in enumerate(jobs)
            ]

        def batch(**kw):
            run = run_single("x", len(jobs), scheduler, jobs=jobs, **kw)
            return schedule_digest(run.result, run.metrics.as_dict())

        session = Session("t", SessionConfig(scheduler=scheduler, **option))
        session.append_jobs(jobs[:8])
        session.append_jobs(jobs[8:])
        assert session_digest(session) == batch(**option)
        assert batch(**option) != batch()

    def test_decision_budget_reaches_the_replay(self):
        jobs = self.jobs()
        with pytest.raises(SimulationError, match="budget exhausted"):
            run_single("x", len(jobs), "fcfs", jobs=jobs, max_decisions=5)
        session = Session("t", SessionConfig(max_decisions=5))
        session.append_jobs(jobs)
        with pytest.raises(SimulationError, match="budget exhausted"):
            session.ensure_result()


class TestReplayIndependence:
    """Each query is a fresh run over the session's jobs: it neither
    moves the session nor an earlier generation's result."""

    def jobs(self):
        return sorted(
            generate_workload("heterogeneous_mix", 24, seed=6),
            key=lambda j: (j.submit_time, j.job_id),
        )

    def test_earlier_result_survives_later_generations(self):
        jobs = self.jobs()
        session = Session("t", SessionConfig(scheduler="fcfs_backfill"))
        session.append_jobs(jobs[:12])
        first, first_metrics = session.ensure_result()
        before = schedule_digest(first, first_metrics)
        session.append_jobs(jobs[12:])
        session.ensure_result()
        assert schedule_digest(first, first_metrics) == before
        assert {r.job.job_id for r in first.records} == {
            j.job_id for j in jobs[:12]
        }

    def test_replay_leaves_session_jobs_untouched(self):
        jobs = self.jobs()
        snapshot = list(jobs)
        session = Session("t", SessionConfig(scheduler="sjf"))
        session.append_jobs(jobs)
        session.ensure_result()
        assert session._jobs == snapshot
        assert all(a is b for a, b in zip(session._jobs, snapshot))
        # The tail the next append is checked against is still the
        # last streamed job.
        last = snapshot[-1]
        assert last.submit_time > 0
        with pytest.raises(SessionError, match="strictly newer"):
            session.append_jobs([replace(last, job_id=10_000,
                                         submit_time=last.submit_time / 2)])

    def test_intermediate_queries_do_not_change_later_generations(self):
        # A seeded random scheduler would carry its RNG state from one
        # replay into the next if replays shared a scheduler.
        jobs = self.jobs()
        polled = Session("a", SessionConfig(scheduler="random",
                                            scheduler_seed=3))
        quiet = Session("b", SessionConfig(scheduler="random",
                                           scheduler_seed=3))
        for i in range(0, len(jobs), 6):
            polled.append_jobs(jobs[i:i + 6])
            quiet.append_jobs(jobs[i:i + 6])
            polled.ensure_result()
        assert polled.n_runs == 4 and quiet.n_runs == 0
        assert session_digest(polled) == session_digest(quiet)


class TestIsolation:
    def test_sessions_do_not_share_state(self):
        # Two sessions over the same workload but different schedulers
        # must each equal their own batch reference — running them
        # interleaved is the in-process version of the server's
        # session-isolation guarantee.
        jobs = sorted(
            generate_workload("heterogeneous_mix", 30, seed=7),
            key=lambda j: (j.submit_time, j.job_id),
        )
        a = Session("a", SessionConfig(scheduler="fcfs"))
        b = Session("b", SessionConfig(scheduler="sjf"))
        for i in range(0, len(jobs), 10):
            a.append_jobs(jobs[i:i + 10])
            b.append_jobs(jobs[i:i + 10])
            a.ensure_result()
            b.ensure_result()
        assert session_digest(a) == batch_digest(
            "heterogeneous_mix", 30, "fcfs", 7, 0
        )
        assert session_digest(b) == batch_digest(
            "heterogeneous_mix", 30, "sjf", 7, 0
        )
