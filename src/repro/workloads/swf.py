"""Standard Workload Format (SWF) interoperability.

SWF is the de-facto archive format for published HPC traces (the
Parallel Workloads Archive). Supporting it lets this library's
schedulers run against real published logs and lets generated
scenarios be shared as standard trace files.

Field mapping (SWF defines 18 whitespace-separated columns; ``-1``
marks unknown):

====  =======================  ==========================
 #    SWF field                :class:`~repro.sim.job.Job`
====  =======================  ==========================
 1    job number               ``job_id``
 2    submit time              ``submit_time``
 3    wait time                ignored on read, ``-1`` on write
 4    run time                 ``duration``
 5    allocated processors     ``nodes``
 8    requested processors     ``nodes`` (write), fallback on read
 9    requested time           ``walltime``
 10   requested memory (KB     ``memory_gb`` (converted; per-proc
      per processor)           in SWF, aggregate in Job)
 12   user id                  ``user`` (``user_<id>``)
 13   group id                 ``group`` (``group_<id>``)
====  =======================  ==========================

Unused columns are written as ``-1``. Comment/header lines start with
``;``.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import Sequence, TextIO

from repro.sim.job import Job, validate_workload

_KB_PER_GB = 1024.0 * 1024.0
_N_FIELDS = 18


def jobs_to_swf(
    jobs: Sequence[Job], path: str | Path | TextIO, *, header: str = ""
) -> None:
    """Write *jobs* as an SWF trace file."""

    def _write(handle: TextIO) -> None:
        handle.write("; SWF trace written by repro.workloads.swf\n")
        if header:
            for line in header.splitlines():
                handle.write(f"; {line}\n")
        for job in jobs:
            mem_kb_per_proc = (
                job.memory_gb / job.nodes * _KB_PER_GB if job.nodes else -1
            )
            fields = [-1] * _N_FIELDS
            fields[0] = job.job_id
            fields[1] = job.submit_time
            fields[3] = job.duration
            fields[4] = job.nodes
            fields[7] = job.nodes
            fields[8] = job.walltime
            fields[9] = mem_kb_per_proc
            fields[11] = _label_id(job.user)
            fields[12] = _label_id(job.group)
            handle.write(
                " ".join(_format_field(v) for v in fields) + "\n"
            )

    if isinstance(path, (str, Path)):
        with open(path, "w") as handle:
            _write(handle)
    else:
        _write(path)


def _format_field(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}".rstrip("0").rstrip(".")
    return str(value)


def _label_id(label: str) -> int:
    """Extract the numeric suffix of ``user_N`` / ``group_N`` labels;
    fall back to a CRC-32 of the name for arbitrary labels (never
    ``hash()``, which is salted per process)."""
    tail = label.rsplit("_", 1)[-1]
    if tail.isdigit():
        return int(tail)
    return zlib.crc32(label.encode("utf-8")) % 100_000


def jobs_from_swf(path: str | Path | TextIO) -> list[Job]:
    """Read an SWF trace into a job list.

    Jobs with non-positive run time (SWF uses ``-1`` for unknown and 0
    for cancelled) are skipped, as are malformed lines — SWF archives
    are messy and the convention is to filter, matching the paper's
    preprocessing philosophy. Raises ``ValueError`` if no usable job
    remains.
    """

    def _read(handle: TextIO) -> list[Job]:
        jobs: list[Job] = []
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith(";"):
                continue
            parts = line.split()
            if len(parts) < 10:
                continue
            try:
                job_id = int(float(parts[0]))
                submit = float(parts[1])
                runtime = float(parts[3])
                procs = int(float(parts[4]))
                if procs <= 0:
                    procs = int(float(parts[7]))
                walltime = float(parts[8])
                mem_kb = float(parts[9])
                user = int(float(parts[11])) if len(parts) > 11 else -1
                group = int(float(parts[12])) if len(parts) > 12 else -1
            except (ValueError, IndexError):
                continue
            if runtime <= 0 or procs <= 0 or submit < 0:
                continue
            memory_gb = (
                mem_kb / _KB_PER_GB * procs if mem_kb > 0 else 1.0
            )
            jobs.append(
                Job(
                    job_id=job_id,
                    submit_time=submit,
                    duration=runtime,
                    walltime=walltime if walltime > 0 else runtime,
                    nodes=procs,
                    memory_gb=memory_gb,
                    user=f"user_{user}" if user >= 0 else "user_unknown",
                    group=f"group_{group}" if group >= 0 else "group_unknown",
                )
            )
        if not jobs:
            raise ValueError("no usable jobs in SWF input")
        return validate_workload(jobs)

    if isinstance(path, (str, Path)):
        with open(path) as handle:
            return _read(handle)
    return _read(path)
