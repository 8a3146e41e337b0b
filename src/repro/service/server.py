"""Asyncio socket server speaking the JSON-lines protocol.

One coroutine per connection, reading ``\\n``-framed requests and
writing matched-id responses. ``subscribe_events`` flips a connection
into streaming mode: the server pushes event messages until the client
disconnects. Everything else is strictly request/response, so a single
connection may pipeline requests (responses come back in completion
order, matched by id).

Lifecycle: the server runs until a client sends ``shutdown`` or the
process receives SIGINT/SIGTERM; either way it stops accepting, lets
in-flight requests drain (:meth:`SchedulingService.aclose`), and only
then closes — the graceful-shutdown test drives exactly this path with
a request still in flight.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
from pathlib import Path
from typing import Any, Optional, Union

from repro.service import protocol
from repro.service.service import (
    SchedulingService,
    ServiceClosing,
    UnknownSession,
    WorkerDied,
)
from repro.service.session import SessionError


class ServiceServer:
    """Bind a :class:`SchedulingService` to a unix or TCP socket."""

    def __init__(
        self,
        service: SchedulingService,
        *,
        socket_path: Optional[Union[str, Path]] = None,
        host: Optional[str] = None,
        port: int = 0,
    ) -> None:
        if (socket_path is None) == (host is None):
            raise ValueError(
                "bind to exactly one of socket_path= or host=/port="
            )
        self.service = service
        self.socket_path = Path(socket_path) if socket_path else None
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set[asyncio.Task] = set()

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        if self.socket_path is not None:
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            with contextlib.suppress(FileNotFoundError):
                self.socket_path.unlink()
            self._server = await asyncio.start_unix_server(
                self._handle_connection,
                path=str(self.socket_path),
                limit=protocol.MAX_LINE_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.host,
                port=self.port,
                limit=protocol.MAX_LINE_BYTES,
            )
            # An ephemeral port (port=0) is resolved at bind time.
            self.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        if self.socket_path is not None:
            return str(self.socket_path)
        return f"{self.host}:{self.port}"

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` request (or :meth:`stop`)."""
        assert self._server is not None, "call start() first"
        await self.service.shutdown_requested.wait()
        await self.stop()

    async def stop(self) -> None:
        """Graceful stop: no new connections, drain, close."""
        self.service.shutdown_requested.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.service.aclose()
        # In-flight handlers have finished their ops by now (aclose
        # drained them); cancel the connection readers still blocked
        # on their next line.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(
                *self._connections, return_exceptions=True
            )
        if self.socket_path is not None:
            with contextlib.suppress(FileNotFoundError):
                self.socket_path.unlink()

    # -- connection handling ---------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        pending: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                ):  # pragma: no cover - abrupt disconnect races
                    break
                if not line:
                    break
                handler = asyncio.ensure_future(
                    self._handle_line(line, writer)
                )
                pending.add(handler)
                handler.add_done_callback(pending.discard)
        except asyncio.CancelledError:
            pass
        finally:
            for handler in list(pending):
                with contextlib.suppress(asyncio.CancelledError):
                    await handler
            self._connections.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _handle_line(
        self, line: bytes, writer: asyncio.StreamWriter
    ) -> None:
        request_id: Any = None
        try:
            message = protocol.decode(line)
            request_id = message.get("id")
            op = str(message.get("op", ""))
            params = message.get("params") or {}
            if op == "subscribe_events":
                await self._stream_events(request_id, writer)
                return
            result = await self.service.handle(op, params)
            response = protocol.ok_response(request_id, result)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            response = protocol.error_response(
                request_id, _error_type(exc), str(exc)
            )
        await self._send(writer, response)

    async def _stream_events(
        self, request_id: Any, writer: asyncio.StreamWriter
    ) -> None:
        """Acknowledge, then push events until the connection dies."""
        queue = self.service.subscribe()
        await self._send(
            writer, protocol.ok_response(request_id, {"subscribed": True})
        )
        try:
            while True:
                event = await queue.get()
                await self._send(writer, event)
                if event.get("event") == "shutdown":
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
        ):  # pragma: no cover - subscriber vanished
            pass
        finally:
            self.service.unsubscribe(queue)

    @staticmethod
    async def _send(
        writer: asyncio.StreamWriter, message: dict
    ) -> None:
        writer.write(protocol.encode(message))
        await writer.drain()


def _error_type(exc: BaseException) -> str:
    """Stable wire name for an exception class."""
    if isinstance(exc, UnknownSession):
        return "unknown_session"
    if isinstance(exc, SessionError):
        return "session_error"
    if isinstance(exc, ServiceClosing):
        return "service_closing"
    if isinstance(exc, WorkerDied):
        return "worker_died"
    if isinstance(exc, ValueError):
        return "bad_request"
    if isinstance(exc, KeyError):
        return "not_found"
    return type(exc).__name__


async def run_server(
    *,
    socket_path: Optional[Union[str, Path]] = None,
    host: Optional[str] = None,
    port: int = 0,
    store_path: Optional[Union[str, Path]] = None,
    store_format: Optional[str] = None,
    workers: Optional[int] = None,
    cache_size: Optional[int] = None,
    ready: Optional[Any] = None,
    install_signal_handlers: bool = True,
) -> None:
    """Stand up a daemon and serve until shutdown (the CLI entry).

    *ready*, when given, is called with the bound server once it is
    accepting connections — the CLI prints the address, the tests get
    a handle.
    """
    kwargs: dict[str, Any] = {
        "store_path": store_path,
        "store_format": store_format,
        "workers": workers,
    }
    if cache_size is not None:
        kwargs["cache_size"] = cache_size
    service = SchedulingService(**kwargs)
    server = ServiceServer(
        service, socket_path=socket_path, host=host, port=port
    )
    await server.start()
    if install_signal_handlers:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            # NotImplementedError: platform without signal support;
            # RuntimeError: not the main thread (a daemon on a thread).
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(
                    sig, service.shutdown_requested.set
                )
    if ready is not None:
        ready(server)
    await server.serve_until_shutdown()
