"""The one stdlib HTTP endpoint of the program.

:class:`ObsServer` runs a ``http.server.ThreadingHTTPServer`` on a
daemon thread (``repro obs serve``, ``python -m repro train
--obs-port`` and ``repro serve``'s HTTP door) and exposes:

=================  ====================================================
``/metrics``       Prometheus text exposition format 0.0.4
``/metrics.json``  the registry snapshot as JSON
``/trace/summary`` ``summarize_trace`` of the active tracer's ring
``/healthz``       200 when every connected employee is live, else 503
=================  ====================================================

plus any *mounted* routes: ``routes`` maps ``(method, path)`` to a
callable that takes the request's JSON body (``None`` for a GET) and
returns ``(status, JSON-able reply, extra headers)``.  ``repro serve``
mounts ``POST /infer``, ``POST /-/reload`` and ``GET /info`` this way.
A POST body is read only when its ``Content-Length`` is a non-negative
integer of at most :data:`MAX_BODY_BYTES` (else 400 / 413, unread).

The built-in routes only *read* registry snapshots and the tracer ring —
they observe the run, they cannot perturb it, so scraping mid-train
preserves bitwise-identical results.  Fleet liveness in ``/healthz``
derives from the socket transport's ``repro_fleet_connected`` gauge;
runs without a socket transport report ``ok`` with an empty fleet.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple

from .metrics import MetricsRegistry, get_registry
from .trace import dedupe_synthetic, get_tracer, summarize_trace

__all__ = ["MAX_BODY_BYTES", "ObsServer", "PROMETHEUS_CONTENT_TYPE"]

#: The content type Prometheus scrapers negotiate for the text format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: The longest POST body a mounted route is handed; a longer one gets a
#: 413 without being read.  The largest legitimate ``/infer`` body is
#: about 6 KB at ``paper`` scale.
MAX_BODY_BYTES = 1 << 20

#: A mounted route: JSON body (``None`` for a GET) -> (status, reply, headers).
Route = Callable[[object], Tuple[int, object, Dict[str, str]]]

_EMPLOYEE_RE = re.compile(r'employee="([^"]*)"')


def _fleet_health(registry: MetricsRegistry) -> Tuple[bool, Dict[str, object]]:
    """(healthy, report) from the transport's connection gauge."""
    gauge = registry.get("repro_fleet_connected")
    down: List[str] = []
    fleet = 0
    if gauge is not None:
        for series, value in gauge.snapshot()["series"].items():
            fleet += 1
            if not value:
                match = _EMPLOYEE_RE.search(series)
                down.append(match.group(1) if match else series)
    healthy = not down
    return healthy, {
        "status": "ok" if healthy else "degraded",
        "fleet": fleet,
        "down": sorted(down),
    }


class _Handler(BaseHTTPRequestHandler):
    """Routes one request; the server instance carries registry and routes."""

    server_version = "repro-obs/1"

    def _send(
        self,
        status: int,
        content_type: str,
        body: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, status: int, obj, headers: Optional[Dict[str, str]] = None) -> None:
        self._send(status, "application/json", json.dumps(obj), headers)

    def _mounted(self, method: str) -> Tuple[str, Optional[Route]]:
        path = self.path.split("?", 1)[0]
        return path, self.server.obs_routes.get((method, path))  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path, route = self._mounted("GET")
        if route is not None:
            self._send_json(*route(None))
            return
        registry = self.server.obs_registry  # type: ignore[attr-defined]
        if registry is None:
            registry = get_registry()
        if path == "/metrics":
            self._send(200, PROMETHEUS_CONTENT_TYPE, registry.render_prometheus())
        elif path == "/metrics.json":
            self._send(200, "application/json", registry.to_json())
        elif path == "/trace/summary":
            tracer = get_tracer()
            records = list(tracer.ring) if tracer is not None else []
            summary = summarize_trace(dedupe_synthetic(records))
            self._send(200, "application/json", json.dumps(summary, sort_keys=True))
        elif path == "/healthz":
            healthy, report = _fleet_health(registry)
            self._send(
                200 if healthy else 503,
                "application/json",
                json.dumps(report, sort_keys=True),
            )
        else:
            self._send_json(404, {"error": "not found"})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        __, route = self._mounted("POST")
        if route is None:
            self._send_json(404, {"error": "not found"})
            return
        raw = self.headers.get("Content-Length", "0")
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            self._send_json(400, {"error": f"bad Content-Length {raw!r}"})
            return
        if length > MAX_BODY_BYTES:
            # The body stays unread, so this connection cannot carry
            # another request.
            self.close_connection = True
            self._send_json(
                413, {"error": f"body of {length} bytes exceeds {MAX_BODY_BYTES}"}
            )
            return
        try:
            body = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, OSError) as error:
            self._send_json(400, {"error": f"bad request body: {error}"})
            return
        self._send_json(*route(body))

    def log_message(self, format: str, *args) -> None:
        """Silence the default stderr access log (CLI output stays clean)."""
        return None


class ObsServer:
    """The daemon-thread HTTP endpoint; start/stop or use as a context."""

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        registry: Optional[MetricsRegistry] = None,
        routes: Optional[Dict[Tuple[str, str], Route]] = None,
    ):
        self._requested = (host, int(port))
        self._registry = registry
        self._routes = dict(routes or {})
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ObsServer":
        if self._httpd is not None:
            return self
        httpd = ThreadingHTTPServer(self._requested, _Handler)
        httpd.daemon_threads = True
        httpd.obs_registry = self._registry  # type: ignore[attr-defined]
        httpd.obs_routes = self._routes  # type: ignore[attr-defined]
        thread = threading.Thread(
            target=httpd.serve_forever,
            name="repro-obs-server",
            daemon=True,
        )
        self._httpd = httpd
        self._thread = thread
        thread.start()
        return self

    def stop(self) -> None:
        httpd, thread = self._httpd, self._thread
        self._httpd = None
        self._thread = None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    close = stop

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` auto-assignment)."""
        if self._httpd is None:
            return self._requested[1]
        return self._httpd.server_address[1]

    @property
    def netloc(self) -> str:
        """``HOST:PORT`` as bound (the requested pair before :meth:`start`)."""
        if self._httpd is None:
            host, port = self._requested
        else:
            host, port = self._httpd.server_address[:2]
        return f"{host}:{port}"

    @property
    def address(self) -> str:
        return f"http://{self.netloc}"

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def summary(self) -> str:
        """One-line CLI summary."""
        return f"obs server: {self.address}/metrics"
