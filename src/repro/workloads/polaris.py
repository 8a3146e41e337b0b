"""Polaris trace substitute (paper §5).

The paper evaluates on 100 jobs from the November-2024 public job
history of the **Polaris** supercomputer at Argonne (560 compute nodes,
512 GB memory each). We have no access to that log, so this module
provides:

* :func:`synthesize_polaris_trace` — a statistical stand-in generating
  *raw* accounting records with the structure of a PBS job history:
  absolute epoch timestamps, requested node counts and walltimes, exit
  statuses (including failures), real user/group names. The mixture
  parameters (heavy-tailed walltimes, debug/small/medium/large node
  classes, bursty daytime submissions) follow published
  characterizations of leadership-class traces, so the preprocessing
  and scheduling code paths are exercised exactly as with the real log.
* :func:`preprocess_trace` — the paper's preprocessing pipeline, which
  *is* faithful: filter failed jobs (``EXIT_STATUS == -1``), sort by
  submission time, normalize timestamps relative to the earliest
  submission, factorize user/group labels to anonymized ids
  (``User_1``, ``Group_1``, …), keep node counts as-is and derive
  memory as 512 GB × nodes.

Substitution note: the paper's §5 claim is that the
agent *generalizes to real traces under an assumed-idle start*; the
claim is exercised by trace structure, not by the identity of specific
November-2024 jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.sim.job import Job, validate_workload

#: Polaris partition size (paper §5).
POLARIS_NODES = 560
#: Memory per Polaris node in GB (paper §5).
POLARIS_MEMORY_PER_NODE_GB = 512.0
#: Total memory of the modeled partition.
POLARIS_TOTAL_MEMORY_GB = POLARIS_NODES * POLARIS_MEMORY_PER_NODE_GB

#: Epoch of 2024-11-01 00:00:00 UTC, the nominal trace window start.
_TRACE_EPOCH = 1730419200


@dataclass(frozen=True)
class RawTraceRecord:
    """One raw accounting record, PBS-history-shaped.

    Timestamps are absolute epoch seconds; ``exit_status == -1`` marks a
    failed job (filtered by preprocessing, as in the paper).
    """

    job_name: str
    user: str
    group: str
    submit_ts: float
    start_ts: float
    end_ts: float
    nodes_requested: int
    walltime_requested_s: float
    exit_status: int

    @property
    def runtime_s(self) -> float:
        return self.end_ts - self.start_ts


# Node-count classes observed on leadership systems: debug/test (1-2),
# small (3-10), medium (11-64), large capability (65-560).
_NODE_CLASS_P = np.array([0.35, 0.30, 0.25, 0.10])
_USERS = [
    "aphysicist", "bchemist", "cclimate", "dfusion", "ebioinf",
    "fmaterials", "gcosmo", "hQCD", "iengine", "jneutron",
]
_GROUPS = ["physics", "chemistry", "climate", "fusion", "bio"]


def synthesize_polaris_trace(
    n_jobs: int = 120,
    seed: int | np.random.SeedSequence = 2024,
    *,
    failed_fraction: float = 0.12,
) -> list[RawTraceRecord]:
    """Generate a Polaris-like raw job history segment.

    Parameters
    ----------
    n_jobs:
        Number of raw records (the paper preprocesses down to 100
        completed jobs from a larger raw segment; default 120 leaves
        headroom for the failure filter).
    seed:
        RNG seed.
    failed_fraction:
        Fraction of records marked ``EXIT_STATUS = -1``.

    Returns
    -------
    list[RawTraceRecord]
        Records in *submission* order with absolute timestamps.
    """
    if n_jobs < 0:
        raise ValueError("n_jobs must be non-negative")
    if not 0.0 <= failed_fraction < 1.0:
        raise ValueError("failed_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)

    # Bursty daytime submissions: lognormal interarrivals (median ~6 min).
    gaps = rng.lognormal(mean=np.log(360.0), sigma=1.3, size=n_jobs)
    gaps[:1] = 0.0
    submits = _TRACE_EPOCH + np.cumsum(gaps)

    records: list[RawTraceRecord] = []
    for i in range(n_jobs):
        klass = rng.choice(4, p=_NODE_CLASS_P)
        if klass == 0:
            nodes = int(rng.integers(1, 3))
        elif klass == 1:
            nodes = int(rng.integers(3, 11))
        elif klass == 2:
            nodes = int(rng.integers(11, 65))
        else:
            nodes = int(rng.integers(65, POLARIS_NODES + 1))

        # Requested walltime: heavy-tailed, quantized to 15-minute steps
        # the way users request it; actual runtime is a fraction of it.
        walltime_req = float(
            np.clip(rng.lognormal(np.log(3600.0), 1.0), 300.0, 24 * 3600.0)
        )
        walltime_req = float(np.ceil(walltime_req / 900.0) * 900.0)
        runtime = float(
            np.clip(walltime_req * rng.beta(2.0, 2.5), 60.0, walltime_req)
        )

        queued_wait = float(rng.exponential(1200.0))
        start_ts = float(submits[i] + queued_wait)
        failed = rng.random() < failed_fraction
        if failed:
            # Failed jobs often die early.
            runtime = float(min(runtime, rng.exponential(600.0) + 30.0))

        user = _USERS[int(rng.integers(0, len(_USERS)))]
        group = _GROUPS[int(rng.integers(0, len(_GROUPS)))]
        records.append(
            RawTraceRecord(
                job_name=f"polaris_job_{i:05d}",
                user=user,
                group=group,
                submit_ts=float(submits[i]),
                start_ts=start_ts,
                end_ts=start_ts + runtime,
                nodes_requested=nodes,
                walltime_requested_s=walltime_req,
                exit_status=-1 if failed else 0,
            )
        )
    return records


def preprocess_trace(
    records: Sequence[RawTraceRecord],
    *,
    n_jobs: int | None = 100,
    memory_per_node_gb: float = POLARIS_MEMORY_PER_NODE_GB,
) -> list[Job]:
    """The paper's §5 preprocessing pipeline.

    1. Filter failed jobs (``EXIT_STATUS == -1``).
    2. Sort by submission time and (optionally) take a contiguous
       segment of the first *n_jobs* completed jobs.
    3. Normalize timestamps relative to the earliest submission.
    4. Factorize user and group labels to anonymized ids in first-seen
       order (``User_1``, ``Group_1``, …).
    5. Use the node count as-is; derive total memory as
       ``memory_per_node_gb × nodes``.

    Durations come from the recorded runtime (end − start); the
    requested walltime is retained on :attr:`Job.walltime`.
    """
    completed = sorted(
        (r for r in records if r.exit_status != -1),
        key=lambda r: r.submit_ts,
    )
    if n_jobs is not None:
        completed = completed[:n_jobs]
    if not completed:
        return []

    t0 = completed[0].submit_ts
    user_ids: dict[str, int] = {}
    group_ids: dict[str, int] = {}
    jobs: list[Job] = []
    for i, rec in enumerate(completed):
        uid = user_ids.setdefault(rec.user, len(user_ids) + 1)
        gid = group_ids.setdefault(rec.group, len(group_ids) + 1)
        duration = max(rec.runtime_s, 1.0)
        jobs.append(
            Job(
                job_id=i + 1,
                submit_time=rec.submit_ts - t0,
                duration=duration,
                walltime=max(rec.walltime_requested_s, duration),
                nodes=rec.nodes_requested,
                memory_gb=rec.nodes_requested * memory_per_node_gb,
                user=f"User_{uid}",
                group=f"Group_{gid}",
                name=rec.job_name,
            )
        )
    return validate_workload(jobs)
