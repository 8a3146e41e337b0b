"""Wire format for the scheduling service (JSON lines).

One UTF-8 JSON object per ``\\n``-terminated line, both directions.
Requests carry ``{"id", "op", "params"}``; responses echo the id with
``{"ok": true, "result"}`` or ``{"ok": false, "error"}``; server-push
events (the ``subscribe_events`` stream) carry ``{"event", "data"}``
and no id.

Exactness is a design requirement, not a nicety: every float crosses
the wire as a plain JSON number, and ``json`` serializes floats via
``repr`` — the shortest string that round-trips to the identical
double. A digest computed over served payloads
(:func:`wire_digest`) therefore equals the digest computed in the
server process (:func:`schedule_digest`), which is how the tests and
the CI smoke pin "byte-identical to batch ``simulate()``" across the
socket boundary.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable, Mapping, Optional

from repro.sim.job import Job

#: Bump on incompatible wire changes; the server advertises it in
#: every ``hello``/``stats`` result and the client refuses a mismatch.
PROTOCOL_VERSION = 1

#: Largest accepted request line, in bytes. Bounds per-connection
#: memory against a misbehaving client; generous enough for a
#: 100k-job ``submit_jobs`` batch.
MAX_LINE_BYTES = 64 * 1024 * 1024


# -- framing -----------------------------------------------------------
def encode(message: Mapping[str, Any]) -> bytes:
    """One compact JSON line, newline-terminated, ready to write."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode()


def decode(line: bytes) -> dict[str, Any]:
    """Parse one received line; raises ``ValueError`` on junk."""
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed protocol line: {exc}") from exc
    if not isinstance(message, dict):
        raise ValueError("protocol line is not a JSON object")
    return message


# -- envelopes ---------------------------------------------------------
def request(
    request_id: int, op: str, params: Optional[Mapping[str, Any]] = None
) -> dict[str, Any]:
    return {"id": request_id, "op": op, "params": dict(params or {})}


def ok_response(request_id: Any, result: Mapping[str, Any]) -> dict[str, Any]:
    return {"id": request_id, "ok": True, "result": dict(result)}


def error_response(
    request_id: Any, error_type: str, message: str
) -> dict[str, Any]:
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": error_type, "message": message},
    }


def event_message(event: str, data: Mapping[str, Any]) -> dict[str, Any]:
    return {"event": event, "data": dict(data)}


# -- payload serializers -----------------------------------------------
def job_to_wire(job: Job) -> dict[str, Any]:
    """Every :class:`Job` field, losslessly."""
    return {
        "job_id": job.job_id,
        "submit_time": job.submit_time,
        "duration": job.duration,
        "nodes": job.nodes,
        "memory_gb": job.memory_gb,
        "walltime": job.walltime,
        "user": job.user,
        "group": job.group,
        "name": job.name,
        "depends_on": list(job.depends_on),
    }


def job_from_wire(payload: Mapping[str, Any]) -> Job:
    """Inverse of :func:`job_to_wire`; raises ``ValueError`` on a
    malformed payload (missing fields, wrong types)."""
    try:
        return Job(
            job_id=int(payload["job_id"]),
            submit_time=float(payload["submit_time"]),
            duration=float(payload["duration"]),
            nodes=int(payload["nodes"]),
            memory_gb=float(payload["memory_gb"]),
            walltime=float(payload.get("walltime", -1.0)),
            user=str(payload.get("user", "user_0")),
            group=str(payload.get("group", "group_0")),
            name=str(payload.get("name", "")),
            depends_on=tuple(
                int(d) for d in payload.get("depends_on", ())
            ),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed job payload: {exc}") from exc


def record_to_wire(rec: Any) -> dict[str, Any]:
    """A served :class:`~repro.sim.schedule.JobRecord`: identity plus
    the exact floats the digest hashes."""
    return {
        "job_id": rec.job.job_id,
        "start_time": rec.start_time,
        "end_time": rec.end_time,
        "killed": rec.killed,
    }


def decision_to_wire(dec: Any) -> dict[str, Any]:
    return {
        "time": dec.time,
        "kind": dec.action.kind.value,
        "accepted": dec.accepted,
        "n_violations": len(dec.violations),
    }


def preemption_to_wire(p: Any) -> dict[str, Any]:
    return {
        "job_id": p.job_id,
        "time": p.time,
        "reason": p.reason,
        "work_saved": p.work_saved,
        "work_lost": p.work_lost,
        "restart_time": p.restart_time,
    }


# -- digests -----------------------------------------------------------
# Both digests reproduce tests/conftest.py::run_digest line for line.
# schedule_digest hashes live engine objects (server side); wire_digest
# hashes the served payloads (client side). Because JSON round-trips
# every double exactly, the two agree — and both equal run_digest of
# the equivalent batch run.
def schedule_digest(
    result: Any, metrics: Mapping[str, float]
) -> str:
    """Full-precision behavioural digest of one served schedule.

    The lines :func:`wire_digest` hashes one ``update`` at a time,
    joined and hashed in one: the same digest, one call.
    """
    lines = [
        f"{rec.job.job_id},{rec.start_time.hex()},"
        f"{rec.end_time.hex()},{rec.killed}\n"
        for rec in result.records
    ]
    lines += [
        f"{d.time.hex()},{d.action.kind.value},{d.accepted},"
        f"{len(d.violations)}\n"
        for d in result.decisions
    ]
    for p in result.preemptions:
        restart = (
            p.restart_time.hex() if p.restart_time is not None else "None"
        )
        lines.append(
            f"{p.job_id},{p.time.hex()},{p.reason},{p.work_saved.hex()},"
            f"{p.work_lost.hex()},{restart}\n"
        )
    lines += [f"{k}={float(v).hex()}\n" for k, v in sorted(metrics.items())]
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def wire_digest(
    records: Iterable[Mapping[str, Any]],
    decisions: Iterable[Mapping[str, Any]],
    preemptions: Iterable[Mapping[str, Any]],
    metrics: Mapping[str, float],
) -> str:
    """Recompute :func:`schedule_digest` from wire payloads."""
    h = hashlib.sha256()
    for rec in records:
        h.update(
            f"{rec['job_id']},{float(rec['start_time']).hex()},"
            f"{float(rec['end_time']).hex()},{rec['killed']}\n".encode()
        )
    for d in decisions:
        h.update(
            f"{float(d['time']).hex()},{d['kind']},{d['accepted']},"
            f"{d['n_violations']}\n".encode()
        )
    for p in preemptions:
        raw = p["restart_time"]
        restart = float(raw).hex() if raw is not None else "None"
        h.update(
            f"{p['job_id']},{float(p['time']).hex()},{p['reason']},"
            f"{float(p['work_saved']).hex()},"
            f"{float(p['work_lost']).hex()},{restart}\n".encode()
        )
    for k, v in sorted(metrics.items()):
        h.update(f"{k}={float(v).hex()}\n".encode())
    return h.hexdigest()
