"""Stdlib HTTP binding: ``ThreadingHTTPServer`` in front of the app.

No framework, no new dependency: :class:`AdvisorRequestHandler` turns each
HTTP exchange into one :meth:`AdvisorApp.handle` call and serialises the
``(status, payload)`` it returns as JSON.  ``ThreadingHTTPServer`` gives
every connection its own thread — those threads only parse and then
*wait* on jobs, while the CPU work happens on the app's worker pool, so
slow solves never block health checks or metrics scrapes.

:func:`serve_until_signal` is the production entry (used by ``repro
serve``): it installs SIGTERM/SIGINT handlers that stop accepting
connections, drain the work queue through the workers, and only then let
the process exit.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import urlsplit

from .app import AdvisorApp
from .dependencies import HttpError


class AdvisorHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`AdvisorApp`."""

    #: Connection threads must not block interpreter exit after a drain.
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], app: AdvisorApp,
                 quiet: bool = True):
        super().__init__(address, AdvisorRequestHandler)
        self.app = app
        self.quiet = quiet


class AdvisorRequestHandler(BaseHTTPRequestHandler):
    """One HTTP exchange -> one :meth:`AdvisorApp.handle` call."""

    server: AdvisorHTTPServer
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: a response goes out as two writes (headers, body), and
    #: with Nagle the body would wait for the client's delayed ACK of the
    #: headers, ~40 ms per response on a keep-alive connection.
    disable_nagle_algorithm = True
    #: Socket timeout in seconds.  A client that stalls mid-body or idles
    #: on a keep-alive connection this long is dropped
    #: (``handle_one_request`` closes on ``TimeoutError``), so it cannot
    #: pin a connection thread forever.
    timeout = 30.0

    # ------------------------------------------------------------------ #

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("DELETE")

    def do_PUT(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("PUT")

    # ------------------------------------------------------------------ #

    def _dispatch(self, method: str) -> None:
        app = self.server.app
        parts = urlsplit(self.path)
        try:
            body = self._read_body(app.config.max_body_bytes)
        except HttpError as exc:
            self._respond(exc.status,
                          {"error": exc.message, "status": exc.status})
            return
        status, payload = app.handle(
            method, parts.path, headers=dict(self.headers.items()),
            body=body, query_string=parts.query,
        )
        self._respond(status, payload)

    def _read_body(self, max_bytes: int) -> bytes:
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            return b""
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            # Where this body ends is unknown, so no further request can
            # be read from the connection.
            self.close_connection = True
            raise HttpError(400, "malformed Content-Length header")
        if length > max_bytes:
            # Read the body off the socket without keeping it: a client
            # still sending would otherwise get a reset instead of the
            # 413, and the connection stays usable.
            while length > 0:
                chunk = self.rfile.read(min(length, 1 << 16))
                if not chunk:
                    self.close_connection = True
                    break
                length -= len(chunk)
            raise HttpError(
                413, f"request body exceeds the {max_bytes}-byte limit")
        return self.rfile.read(length)

    def _respond(self, status: int, payload) -> None:
        # Serialise before sending the status line, so an encoding error
        # cannot corrupt a half-written response.  Non-finite floats are
        # mapped to null upstream; allow_nan=False keeps that honest.
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)


def create_server(app: AdvisorApp, host: str = "127.0.0.1", port: int = 0,
                  quiet: bool = True) -> AdvisorHTTPServer:
    """Bind a server to ``(host, port)`` (port 0 picks a free one)."""
    return AdvisorHTTPServer((host, port), app, quiet=quiet)


def serve_until_signal(app: AdvisorApp, host: str, port: int,
                       quiet: bool = True,
                       ready_message: Optional[str] = None) -> int:
    """Run the service until SIGTERM/SIGINT, then drain gracefully.

    The shutdown sequence on a signal:

    1. stop accepting connections (``server.shutdown``);
    2. close the scheduler — new submissions would get 503, queued jobs
       keep flowing to the workers;
    3. wait up to ``config.drain_timeout_s`` for the workers to finish;
    4. release the store connection and exit 0 (or 1 on a dirty drain).

    Returns a process exit code.
    """
    server = create_server(app, host, port, quiet=quiet)
    stop = threading.Event()

    def _request_stop(signum, frame):  # noqa: ARG001 - signal signature
        stop.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _request_stop)
    app.start()
    runner = threading.Thread(target=server.serve_forever,
                              name="advisor-http", daemon=True)
    runner.start()
    if ready_message is not None:
        print(ready_message, flush=True)
    try:
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.shutdown()
        server.server_close()
        clean = app.drain()
        app.close(timeout=0.0)
        print(f"drained {'cleanly' if clean else 'with stragglers'}; "
              f"{app.metrics.solver_invocations} solver runs, "
              f"{app.metrics.store_hits} store hits",
              file=sys.stderr, flush=True)
    return 0 if clean else 1
