"""Small synchronous client for the scheduling daemon.

Deliberately boring: a blocking socket, a line-buffered file, one
request → one response. It exists so tests, the CI smoke, and quick
scripts can drive the daemon without touching asyncio — the service's
async machinery stays entirely server-side.

    with ServiceClient.connect_unix(sock) as client:
        sid = client.open_session(scheduler="fcfs", scheduler_seed=0)
        client.submit_jobs(sid, jobs)
        schedule = client.get_schedule(sid)

Error responses raise :class:`ServiceError` carrying the server's
stable error type (``unknown_session``, ``session_error``,
``bad_request``, ``service_closing``, ``worker_died``…).
"""

from __future__ import annotations

import socket
import time
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional, Sequence, Union

from repro.service import protocol
from repro.sim.job import Job


class ServiceError(RuntimeError):
    """An error response from the daemon."""

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.message = message


class ServiceClient:
    """One connection to the daemon (not thread-safe; one per thread)."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._file = sock.makefile("rwb")
        self._next_id = 0

    # -- connecting ------------------------------------------------------
    @classmethod
    def connect_unix(
        cls, path: Union[str, Path], timeout: Optional[float] = None
    ) -> "ServiceClient":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(str(path))
        return cls(sock)

    @classmethod
    def connect_tcp(
        cls, host: str, port: int, timeout: Optional[float] = None
    ) -> "ServiceClient":
        sock = socket.create_connection((host, port), timeout=timeout)
        return cls(sock)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- core request/response -------------------------------------------
    def request(
        self, op: str, params: Optional[Mapping[str, Any]] = None
    ) -> dict[str, Any]:
        """One round trip; returns the result dict or raises
        :class:`ServiceError`."""
        self._next_id += 1
        self._file.write(
            protocol.encode(protocol.request(self._next_id, op, params))
        )
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        response = protocol.decode(line)
        if response.get("ok"):
            return response.get("result", {})
        error = response.get("error") or {}
        raise ServiceError(
            str(error.get("type", "unknown")),
            str(error.get("message", "")),
        )

    # -- convenience ops -------------------------------------------------
    def ping(self) -> dict[str, Any]:
        return self.request("ping")

    def open_session(
        self,
        scheduler: str = "fcfs",
        scheduler_seed: int = 0,
        **engine_params: Any,
    ) -> str:
        result = self.request(
            "open_session",
            {
                "scheduler": scheduler,
                "scheduler_seed": scheduler_seed,
                **engine_params,
            },
        )
        return str(result["session_id"])

    def submit_jobs(
        self, session_id: str, jobs: Sequence[Union[Job, Mapping[str, Any]]]
    ) -> dict[str, Any]:
        wire = [
            protocol.job_to_wire(j) if isinstance(j, Job) else dict(j)
            for j in jobs
        ]
        return self.request(
            "submit_jobs", {"session_id": session_id, "jobs": wire}
        )

    def get_schedule(self, session_id: str) -> dict[str, Any]:
        return self.request("get_schedule", {"session_id": session_id})

    def get_metrics(self, session_id: str) -> dict[str, Any]:
        return self.request("get_metrics", {"session_id": session_id})

    def close_session(self, session_id: str) -> dict[str, Any]:
        return self.request("close_session", {"session_id": session_id})

    def run_cell(self, config: Mapping[str, Any]) -> dict[str, Any]:
        return self.request("run_cell", {"config": dict(config)})

    def stats(self) -> dict[str, Any]:
        return self.request("stats")

    def shutdown(self) -> dict[str, Any]:
        return self.request("shutdown")

    def events(self) -> Iterator[dict[str, Any]]:
        """Subscribe and yield events until the stream ends. The
        connection is dedicated to the stream afterwards — use a
        second client for concurrent requests."""
        self._next_id += 1
        self._file.write(
            protocol.encode(
                protocol.request(self._next_id, "subscribe_events")
            )
        )
        self._file.flush()
        ack = protocol.decode(self._file.readline())
        if not ack.get("ok"):
            error = ack.get("error") or {}
            raise ServiceError(
                str(error.get("type", "unknown")),
                str(error.get("message", "")),
            )
        while True:
            line = self._file.readline()
            if not line:
                return
            yield protocol.decode(line)


def wait_for_server(
    *,
    socket_path: Optional[Union[str, Path]] = None,
    host: Optional[str] = None,
    port: int = 0,
    timeout: float = 10.0,
) -> ServiceClient:
    """Poll until the daemon accepts a connection (CI startup races)."""
    deadline = time.monotonic() + timeout
    last_exc: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            if socket_path is not None:
                return ServiceClient.connect_unix(socket_path)
            assert host is not None
            return ServiceClient.connect_tcp(host, port)
        except OSError as exc:
            last_exc = exc
            time.sleep(0.05)
    raise TimeoutError(
        f"daemon not reachable after {timeout:g}s: {last_exc}"
    )
