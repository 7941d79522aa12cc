"""The HTTP front end: ``repro-fuse serve``.

A deliberately boring transport -- stdlib :class:`ThreadingHTTPServer`
speaking JSON ``repro-serve/1`` envelopes; every interesting decision
lives in :class:`~repro.serve.service.CompileService`.  Endpoints:

========================= ============================================
``POST /v1/compile``      one request dict -> one response dict
``POST /v1/batch``        ``{"programs": [request, ...]}`` -> responses
``GET /healthz``          liveness + worker restarts
``GET /statz``            service snapshot + serve.* metric counters
========================= ============================================

HTTP status mapping (docs/SERVING.md): ``ok``/``degraded`` -> 200,
typed compile ``error`` -> 422 (malformed envelope ``SV006`` -> 400;
infrastructure errors ``SV001``/``SV002``/``SV007`` -> 500, the server's
fault, not the client's), ``shed`` -> 429 and ``rejected`` -> 503, both
with a ``Retry-After`` header (integer seconds, floored at 1; the
precise ``retryAfterMs`` rides in the body).
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro import obs
from repro.serve.service import CompileService, ServeConfig
from repro.serve.wire import SERVE_SCHEMA, SV001, SV002, SV006, SV007

__all__ = ["ServeDaemon", "http_status_for", "run_daemon"]

#: Request bodies above this size are refused outright (413).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: ``error`` codes that are the *server's* fault -- the exhausted
#: fallback after worker crashes/timeouts (SV001/SV002) and internal
#: supervisor errors (SV007) -- and must not masquerade as 4xx.
_SERVER_FAULT_CODES = (SV001, SV002, SV007)


def http_status_for(resp: Dict[str, Any]) -> int:
    """Map one response envelope to its HTTP status code."""
    status = resp.get("status")
    if status in ("ok", "degraded"):
        return 200
    if status == "error":
        code = resp.get("code")
        if code == SV006:
            return 400
        if code in _SERVER_FAULT_CODES:
            return 500
        return 422  # typed, deterministic compile errors
    if status == "shed":
        return 429
    if status == "rejected":
        return 503
    return 500  # unreachable for well-formed envelopes


def _retry_after_header(resp: Dict[str, Any]) -> Optional[str]:
    ms = resp.get("retryAfterMs")
    if ms is None:
        return None
    return str(max(1, math.ceil(float(ms) / 1000.0)))


class _Handler(BaseHTTPRequestHandler):
    """One request thread per connection (ThreadingHTTPServer)."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # headers and body go out in two send() calls; with Nagle on, a
    # keep-alive client's delayed ACK holds the body back ~40 ms
    disable_nagle_algorithm = True

    @property
    def service(self) -> CompileService:
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------ #

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            self._send_json(
                200,
                {
                    "status": "ok",
                    "schema": SERVE_SCHEMA,
                    "workerRestarts": self.service.supervisor.restarts,
                },
            )
        elif self.path == "/statz":
            metrics = obs.default_registry().to_dict()
            doc = {
                "schema": SERVE_SCHEMA,
                "service": self.service.snapshot(),
                "metrics": {
                    kind: {
                        name: value
                        for name, value in entries.items()
                        # store.* counters are the daemon process's own L2
                        # traffic (the fallback path); the fleet-wide view
                        # is the service snapshot's "store" block
                        if name.startswith(("serve.", "store."))
                    }
                    for kind, entries in metrics.items()
                },
            }
            self._send_json(200, doc)
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        payload, err = self._read_json()
        if err is not None:
            return
        if self.path == "/v1/compile":
            resp = self.service.handle_dict(payload)
            self._send_json(
                http_status_for(resp), resp, retry_after=_retry_after_header(resp)
            )
        elif self.path == "/v1/batch":
            programs = payload.get("programs") if isinstance(payload, dict) else None
            if not isinstance(programs, list):
                self._send_json(
                    400, {"error": "batch body must carry a 'programs' list"}
                )
                return
            responses = [self.service.handle_dict(p) for p in programs]
            self._send_json(
                200,
                {
                    "schema": SERVE_SCHEMA,
                    "responses": responses,
                    "okCount": sum(
                        1 for r in responses if r["status"] in ("ok", "degraded")
                    ),
                },
            )
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    # ------------------------------------------------------------------ #

    def _read_json(self) -> Tuple[Any, Optional[str]]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            # the oversized body is never read: close the connection so a
            # keep-alive client's next request isn't parsed out of it
            self.close_connection = True
            self._send_json(413, {"error": "request body too large"})
            return None, "too-large"
        raw = self.rfile.read(length) if length else b""
        try:
            return json.loads(raw.decode("utf-8") or "null"), None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            obs.default_registry().counter("serve.malformed").inc()
            self._send_json(
                400, {"error": f"body is not valid JSON: {exc}", "code": SV006}
            )
            return None, "bad-json"

    def _send_json(
        self, status: int, body: Any, *, retry_after: Optional[str] = None
    ) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if retry_after is not None:
            self.send_header("Retry-After", retry_after)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        obs.default_registry().counter("serve.http.requests").inc()


class ServeDaemon:
    """One HTTP server bound to one :class:`CompileService`.

    ``port=0`` binds an ephemeral port (tests); :attr:`address` reports
    the bound ``(host, port)``.  :meth:`start` serves on a daemon thread;
    use as a context manager for deterministic teardown.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        service: Optional[CompileService] = None,
    ) -> None:
        self.service = service if service is not None else CompileService(config)
        self._owns_service = service is None
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._server.service = self.service  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServeDaemon":
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI entry point)."""
        self._server.serve_forever()

    def shutdown(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._owns_service:
            self.service.shutdown()

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()


def run_daemon(
    config: Optional[ServeConfig] = None,
    *,
    host: str = "127.0.0.1",
    port: int = 8337,
) -> ServeDaemon:
    """Construct and start a daemon (returns it already serving)."""
    return ServeDaemon(config, host=host, port=port).start()
