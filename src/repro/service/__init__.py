"""Scheduling-as-a-service: a daemonized front end for the engine.

The batch stack answers one ``simulate()`` call per process; this
package wraps the same deterministic SoA engine in a long-lived
asyncio daemon (stdlib only — a JSON-lines protocol over a TCP or unix
socket) so many clients can stream arrivals into isolated sessions and
pull schedules, metrics, and sweep-cell results over a connection.

Three layers, thin to thick (the SimCash ``api/`` + simulator split):

* :mod:`repro.service.protocol` — wire format: framing, request/
  response envelopes, and the job/record/decision serializers whose
  floats round-trip exactly (so digests survive the wire).
* :mod:`repro.service.service` + :mod:`repro.service.session` — the
  engine room: isolated sessions, each generation of which replays the
  session's jobs through the batch path
  (:func:`~repro.experiments.runner.run_single`), a
  :class:`CellKey`-keyed result cache backed by
  :class:`~repro.experiments.store.RunStore`, and a process pool for
  sweep cells.
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  asyncio socket server behind ``repro-sched serve`` and the small
  synchronous client used by tests and the CI smoke.

The load-bearing invariant, pinned by the digest tests: a session's
served schedule is **byte-identical** to a batch ``simulate()`` call
over the same jobs — streaming arrivals through the daemon can never
change a single persisted bit.
"""

from repro.service.cache import CacheStats, ResultCache
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import PROTOCOL_VERSION, schedule_digest
from repro.service.server import ServiceServer
from repro.service.service import SchedulingService
from repro.service.session import Session, SessionConfig

__all__ = [
    "PROTOCOL_VERSION",
    "CacheStats",
    "ResultCache",
    "SchedulingService",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "Session",
    "SessionConfig",
    "schedule_digest",
]
