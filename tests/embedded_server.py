"""In-process daemon harness for the service tests (not in the package).

Runs the real asyncio server — real socket, real protocol, real
service — on a background thread, so synchronous test code can drive
it with :class:`~repro.service.client.ServiceClient` exactly like an
external daemon, without subprocess management:

    with EmbeddedServer() as server:
        with server.client() as client:
            sid = client.open_session(scheduler="fcfs")

Nothing here is test-only magic: the thread runs
:func:`repro.service.server.run_server` minus the signal handlers
(signals belong to the main thread), so every code path the CI
``service`` job exercises against a daemon subprocess is the same one
these tests cover in-process.
"""

from __future__ import annotations

import asyncio
import tempfile
import threading
from pathlib import Path
from typing import Any, Optional, Union

from repro.service.client import ServiceClient, wait_for_server
from repro.service.server import ServiceServer, run_server


class EmbeddedServer:
    """Context manager: daemon on a background thread, unix socket."""

    def __init__(
        self,
        *,
        socket_path: Optional[Union[str, Path]] = None,
        store_path: Optional[Union[str, Path]] = None,
        workers: Optional[int] = None,
        cache_size: Optional[int] = None,
    ) -> None:
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if socket_path is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-svc-")
            socket_path = Path(self._tmpdir.name) / "daemon.sock"
        self.socket_path = Path(socket_path)
        self.store_path = store_path
        self.workers = workers
        self.cache_size = cache_size
        self.server: Optional[ServiceServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "EmbeddedServer":
        def runner() -> None:
            def on_ready(server: ServiceServer) -> None:
                self.server = server
                self._ready.set()

            try:
                asyncio.run(
                    run_server(
                        socket_path=self.socket_path,
                        store_path=self.store_path,
                        workers=self.workers,
                        cache_size=self.cache_size,
                        ready=on_ready,
                        install_signal_handlers=False,
                    )
                )
            except BaseException as exc:  # pragma: no cover - surfaced
                self._error = exc
                self._ready.set()

        self._thread = threading.Thread(
            target=runner, name="repro-service", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._error is not None:
            raise RuntimeError("embedded daemon failed") from self._error
        if self.server is None:
            raise TimeoutError("embedded daemon did not start in 30s")
        return self

    def stop(self) -> None:
        """Ask for shutdown and join the daemon thread."""
        if self._thread is None:
            return
        if self.server is not None and self._thread.is_alive():
            try:
                with self.client(timeout=5.0) as client:
                    client.shutdown()
            except OSError:  # pragma: no cover - already stopping
                pass
        self._thread.join(timeout=30.0)
        self._thread = None
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "EmbeddedServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- clients ---------------------------------------------------------
    def client(self, timeout: Optional[float] = 30.0) -> ServiceClient:
        """A fresh connected client (caller closes it)."""
        return ServiceClient.connect_unix(self.socket_path, timeout=timeout)

    def wait_client(self, timeout: float = 10.0) -> ServiceClient:
        """A client that polls through startup races (CI style)."""
        return wait_for_server(
            socket_path=self.socket_path, timeout=timeout
        )
