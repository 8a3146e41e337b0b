"""Per-session scheduling worlds with streaming arrivals.

A session is one client's isolated scheduling world: its own job list
and its own seeded scheduler. Arrivals stream in over many
``submit_jobs`` calls; a schedule query replays the accumulated
workload through :func:`~repro.experiments.runner.run_single` — the
batch path itself, so for the jobs known at query time the served
schedule is byte-identical to a batch run over those jobs by
construction, not by a second implementation kept in step.

Why replay instead of resuming a half-run simulation: the paper's
schedulers observe global workload facts (``pending_arrivals``,
``all_jobs_scheduled``), so decisions taken before the full job set is
known are *different* decisions — resuming would silently fork the
session's results away from the batch reference. Replays are memoized
per generation, so polling ``get_schedule`` without new arrivals costs
one dict lookup, not a simulation.

The streaming contract: each appended batch must be strictly newer
than everything already in the session — (submit_time, job_id)
strictly increasing — with fresh job ids, and a rejected batch changes
nothing. Append order is then the engine's sorted workload order, so a
generation's workload is a prefix of every later one: a served
generation is the batch run over that prefix, and a replay that
resumes from a snapshot and re-simulates only the suffix a new batch
touches would rely on the same ordering.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.experiments.runner import run_single
from repro.sim.job import Job
from repro.sim.schedule import ScheduleResult


class SessionError(ValueError):
    """A client mistake scoped to one session (bad batch, empty
    query); the server maps it to an error response, never a crash."""


@dataclass(frozen=True)
class SessionConfig:
    """Immutable per-session engine settings, fixed at open time."""

    scheduler: str = "fcfs"
    scheduler_seed: int = 0
    max_retries: int = 3
    max_decisions: Optional[int] = None
    enforce_walltime: bool = False


@dataclass
class Session:
    """One isolated scheduling session (see module docstring)."""

    session_id: str
    config: SessionConfig = field(default_factory=SessionConfig)
    #: Accumulated workload, in arrival (== engine) order.
    _jobs: list[Job] = field(default_factory=list)
    _ids: set[int] = field(default_factory=set)
    #: Bumped per appended batch; the memoized result is valid only
    #: for the generation it was computed at.
    generation: int = 0
    _result: Optional[ScheduleResult] = None
    _result_generation: int = -1
    _metrics: Optional[dict[str, float]] = None
    #: Observability counters (the cache-hit tests read these).
    n_runs: int = 0
    n_result_reuses: int = 0
    #: Serializes replays: concurrent queries of one session must not
    #: run the engine twice for the same generation.
    _lock: threading.Lock = field(default_factory=threading.Lock)

    # -- streaming arrivals ---------------------------------------------
    @property
    def n_jobs(self) -> int:
        return len(self._jobs)

    def append_jobs(self, jobs: Sequence[Job]) -> int:
        """Append one strictly-newer batch of arrivals.

        Validates the streaming contract — inside the batch and
        against the session tail (submit_time, job_id) must be strictly
        increasing, and job ids must be fresh — then appends the batch.
        Returns how many jobs were added. A rejected batch changes
        nothing (validation runs before any mutation). Non-finite
        fields never get here: :class:`~repro.sim.job.Job` refuses them.
        """
        batch = list(jobs)
        if not batch:
            raise SessionError("submit_jobs requires at least one job")
        last = (
            (self._jobs[-1].submit_time, self._jobs[-1].job_id)
            if self._jobs
            else None
        )
        for job in batch:
            mark = (job.submit_time, job.job_id)
            if last is not None and mark <= last:
                raise SessionError(
                    f"job {job.job_id} at t={job.submit_time:g} is not "
                    f"strictly newer than the session tail "
                    f"(t={last[0]:g}, id={last[1]}); streamed batches "
                    "must arrive in (submit_time, job_id) order"
                )
            if job.job_id in self._ids:
                raise SessionError(
                    f"duplicate job id {job.job_id} in session"
                )
            last = mark
        self._jobs.extend(batch)
        self._ids.update(job.job_id for job in batch)
        self.generation += 1
        return len(batch)

    # -- queries ---------------------------------------------------------
    def ensure_result(self) -> tuple[ScheduleResult, dict[str, float]]:
        """The schedule for the session's current job set, memoized.

        Each distinct generation simulates exactly once (`n_runs`);
        repeat queries reuse the memoized result
        (`n_result_reuses`). Every run is a fresh ``run_single`` with
        a fresh scheduler from the session's (name, seed) — state
        carried across replays would break byte-identity with the
        batch run.
        """
        with self._lock:
            if self._result is not None and (
                self._result_generation == self.generation
            ):
                self.n_result_reuses += 1
                assert self._metrics is not None
                return self._result, self._metrics
            if not self._jobs:
                raise SessionError(
                    "session has no jobs; submit_jobs before querying"
                )
            generation = self.generation
            config = self.config
            run = run_single(
                "session",
                len(self._jobs),
                config.scheduler,
                jobs=self._jobs,
                scheduler_seed=config.scheduler_seed,
                max_retries=config.max_retries,
                max_decisions=config.max_decisions,
                enforce_walltime=config.enforce_walltime,
            )
            self._result = run.result
            self._metrics = run.metrics.as_dict()
            self._result_generation = generation
            self.n_runs += 1
            return self._result, self._metrics

    def stats(self) -> dict[str, int]:
        return {
            "n_jobs": len(self._jobs),
            "generation": self.generation,
            "n_runs": self.n_runs,
            "n_result_reuses": self.n_result_reuses,
        }
