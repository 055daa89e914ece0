"""A live ``/metrics`` + ``/healthz`` endpoint on the stdlib HTTP server.

Opt-in observability substrate for a running assay process: while a run is
in flight, ``GET /metrics`` returns the OpenMetrics rendering of the live
perf registry (store/vi counters, latency histograms), and ``GET
/healthz`` returns a small JSON liveness document the caller can enrich
with run state.  ``repro serve`` mounts its job API on the same server;
``python -m repro monitor`` (or ``run --monitor-port``) exposes it for
any single run.

Implementation notes: a ``ThreadingHTTPServer`` on a daemon thread, so a
hung scrape can never wedge the scheduler loop, and binding port ``0``
picks an ephemeral port (tests; parallel runs on one host).  No external
dependencies — the stdlib server is entirely adequate for a scrape
endpoint that serves one small text document.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro import perf
from repro.obs.metrics import MetricsRegistry
from repro.obs.openmetrics import CONTENT_TYPE, render_openmetrics

DEFAULT_PORT = 9178

#: Listen backlog of the server socket.  ``socketserver``'s default of 5
#: overflows when a burst of serve clients connects at once, and the
#: overflowing connections are reset.
LISTEN_BACKLOG = 128


class _MonitorHandler(BaseHTTPRequestHandler):
    server_version = "repro-monitor/1.0"

    def _respond(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _dispatch(self, method: str) -> bool:
        """Offer the request to the pluggable routes callback.

        Returns ``True`` when the callback claimed the request (it returned
        a ``(status, content_type, body)`` triple); ``False`` lets the
        built-in ``/metrics``/``/healthz`` handling (or the 404) proceed.
        The callback receives the *raw* path (query string intact) plus the
        request body, so route owners can parse ``?since=N`` style params.
        """
        routes = getattr(self.server, "monitor_routes", None)
        if routes is None:
            return False
        body = b""
        length = int(self.headers.get("Content-Length") or 0)
        if length > 0:
            body = self.rfile.read(length)
        result = routes(method, self.path, body)
        if result is None:
            return False
        status, content_type, payload = result
        self._respond(status, content_type, payload)
        return True

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler contract
        try:
            if not self._dispatch("POST"):
                self._respond(404, "text/plain; charset=utf-8",
                              f"not found: {self.path}\n")
        except BrokenPipeError:  # pragma: no cover - client went away
            pass

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler contract
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if self._dispatch("GET"):
                return
            if path == "/metrics":
                self._respond(
                    200, CONTENT_TYPE,
                    render_openmetrics(self.server.monitor_registry),
                )
            elif path == "/healthz":
                health = self.server.monitor_health
                document = {"status": "ok"}
                if health is not None:
                    document.update(health())
                self._respond(
                    200, "application/json; charset=utf-8",
                    json.dumps(document),
                )
            elif path == "/":
                self._respond(
                    200, "text/plain; charset=utf-8",
                    "repro monitor\n\n/metrics  OpenMetrics exposition\n"
                    "/healthz  JSON liveness\n",
                )
            else:
                self._respond(404, "text/plain; charset=utf-8",
                              f"not found: {path}\n")
        except BrokenPipeError:  # pragma: no cover - client went away
            pass

    def log_message(self, format: str, *args: Any) -> None:
        """Silence per-request stderr logging (scrapes come every second)."""


class _Listener(ThreadingHTTPServer):
    """The stdlib threading server with a :data:`LISTEN_BACKLOG` queue."""

    request_queue_size = LISTEN_BACKLOG
    daemon_threads = True


class MonitorServer:
    """The opt-in scrape endpoint: start / stop around a run.

    ``registry`` defaults to the live perf registry at scrape time;
    ``health`` is an optional callable whose dict return is merged into
    the ``/healthz`` document (run progress, queue depth, ...).
    ``routes`` mounts extra endpoints on the same server: a callable
    ``(method, raw_path, body) -> (status, content_type, body) | None``
    consulted before the built-ins for every GET/POST — return ``None``
    to decline.  This is how :mod:`repro.serve` grafts its job API onto
    the monitor without a second listener.
    """

    def __init__(
        self,
        port: int = DEFAULT_PORT,
        host: str = "127.0.0.1",
        registry: "MetricsRegistry | None" = None,
        health: "Callable[[], dict[str, Any]] | None" = None,
        routes: "Callable[[str, str, bytes], tuple[int, str, str] | None] | None" = None,
    ) -> None:
        self.host = host
        self.port = port
        self.registry = registry
        self.health = health
        self.routes = routes
        self._server: "_Listener | None" = None
        self._thread: "threading.Thread | None" = None

    def start(self) -> int:
        """Bind and serve on a daemon thread; returns the bound port."""
        if self._server is not None:
            raise RuntimeError("monitor server already started")
        server = _Listener((self.host, self.port), _MonitorHandler)
        # Handler context: resolve the registry lazily so a scrape always
        # sees the current process-global registry, even after perf.reset.
        server.monitor_registry = self.registry
        server.monitor_health = self.health
        server.monitor_routes = self.routes
        self._server = server
        self.port = server.server_port
        self._thread = threading.Thread(
            target=server.serve_forever, name="repro-monitor", daemon=True
        )
        self._thread.start()
        perf.incr("obs.monitor.started")
        return self.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "MonitorServer":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
