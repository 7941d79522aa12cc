"""The HTTP front end (repro.serve.daemon)."""

from __future__ import annotations

import http.client
import json
import statistics
import time
import urllib.error
import urllib.request

import pytest

from repro.gallery.paper import figure2_code
from repro.serve.daemon import MAX_BODY_BYTES, ServeDaemon, http_status_for
from repro.serve.service import CompileService, ServeConfig
from repro.serve.wire import SERVE_SCHEMA, SV001, SV002, SV006, SV007


def _post(url: str, path: str, payload) -> tuple[int, dict, dict]:
    body = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url + path, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def _get(url: str, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url + path, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture(scope="module")
def daemon():
    with ServeDaemon(ServeConfig(workers=1), port=0) as d:
        yield d


class TestHttpStatusMapping:
    def test_table(self):
        assert http_status_for({"status": "ok"}) == 200
        assert http_status_for({"status": "degraded"}) == 200
        assert http_status_for({"status": "error"}) == 422
        assert http_status_for({"status": "error", "code": SV006}) == 400
        assert http_status_for({"status": "shed"}) == 429
        assert http_status_for({"status": "rejected"}) == 503
        assert http_status_for({"status": "???"}) == 500

    def test_infrastructure_errors_are_the_servers_fault(self):
        # the exhausted fallback (SV001/SV002) and internal supervisor
        # errors (SV007) are 5xx, not client errors
        assert http_status_for({"status": "error", "code": SV001}) == 500
        assert http_status_for({"status": "error", "code": SV002}) == 500
        assert http_status_for({"status": "error", "code": SV007}) == 500


class TestEndpoints:
    def test_healthz(self, daemon):
        status, doc = _get(daemon.url, "/healthz")
        assert status == 200
        assert doc["status"] == "ok" and doc["schema"] == SERVE_SCHEMA
        assert doc["workerRestarts"] == 0

    def test_keepalive_requests_are_not_held_by_nagle(self, daemon):
        # headers and body leave in two send() calls; with Nagle's
        # algorithm on, the body waits ~40 ms for the client's delayed ACK
        host, port = daemon.address
        conn = http.client.HTTPConnection(host, port, timeout=60)
        times = []
        try:
            for _ in range(20):
                t0 = time.perf_counter()
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                resp.read()
                times.append((time.perf_counter() - t0) * 1000.0)
                assert resp.status == 200
        finally:
            conn.close()
        assert statistics.median(times) < 10.0, times

    def test_compile_ok(self, daemon):
        status, doc, _ = _post(
            daemon.url, "/v1/compile",
            {"schema": SERVE_SCHEMA, "source": figure2_code(), "name": "fig2"},
        )
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["parallelism"] == "doall"
        assert doc["traceId"]

    def test_compile_parse_error_maps_to_422(self, daemon):
        status, doc, _ = _post(
            daemon.url, "/v1/compile",
            {"schema": SERVE_SCHEMA, "source": "not a ( program"},
        )
        assert status == 422
        assert doc["status"] == "error"
        assert doc["error"]["type"] == "ParseError"

    def test_malformed_envelope_maps_to_400(self, daemon):
        status, doc, _ = _post(daemon.url, "/v1/compile", {"no": "source"})
        assert status == 400
        assert doc["code"] == SV006

    def test_invalid_json_body_maps_to_400(self, daemon):
        req = urllib.request.Request(
            daemon.url + "/v1/compile", data=b"{nope",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=60)
        assert err.value.code == 400
        assert json.loads(err.value.read())["code"] == SV006

    def test_oversized_body_is_refused(self, daemon):
        # the server answers 413 without draining the body; depending on
        # socket buffering the client either reads it or sees the reset
        try:
            status, _doc, _headers = _post(
                daemon.url, "/v1/compile",
                {"schema": SERVE_SCHEMA, "source": "x" * (MAX_BODY_BYTES + 1)},
            )
        except urllib.error.URLError:
            return  # connection torn down mid-upload: refused all the same
        assert status == 413
        # the daemon still serves after the refusal
        ok, _ = _get(daemon.url, "/healthz")
        assert ok == 200

    def test_oversized_body_closes_the_keepalive_connection(self, daemon):
        # the unread body must not be parsed as the next request on a
        # kept-alive connection: the 413 carries Connection: close and the
        # server hangs up instead of waiting for more requests
        import socket

        host, port = daemon.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.settimeout(10)
            head = (
                f"POST /v1/compile HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {MAX_BODY_BYTES + 100}\r\n\r\n"
            ).encode("ascii")
            sock.sendall(head)  # headers only; the body never arrives
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:  # EOF: the server closed the connection
                    break
                chunks.append(chunk)
            data = b"".join(chunks)
        status_line = data.split(b"\r\n", 1)[0]
        assert b" 413 " in status_line + b" "
        assert b"connection: close" in data.lower()

    def test_batch_endpoint(self, daemon):
        programs = [
            {"schema": SERVE_SCHEMA, "source": figure2_code(), "name": "a"},
            {"no": "source"},
        ]
        status, doc, _ = _post(daemon.url, "/v1/batch", {"programs": programs})
        assert status == 200
        assert doc["okCount"] == 1
        assert [r["status"] for r in doc["responses"]] == ["ok", "error"]

    def test_batch_requires_programs_list(self, daemon):
        status, doc, _ = _post(daemon.url, "/v1/batch", {"programs": "nope"})
        assert status == 400

    def test_statz_reports_serve_metrics_only(self, daemon):
        _post(
            daemon.url, "/v1/compile",
            {"schema": SERVE_SCHEMA, "source": figure2_code()},
        )
        status, doc = _get(daemon.url, "/statz")
        assert status == 200
        assert doc["service"]["workers"] == 1
        counters = doc["metrics"]["counters"]
        assert counters.get("serve.requests", 0) >= 1
        # serve.* plus the daemon-process store.* (L2 cache) families only
        assert all(
            name.startswith(("serve.", "store.")) for name in counters
        )

    def test_unknown_paths_are_404(self, daemon):
        assert _get(daemon.url, "/nope")[0] == 404
        assert _post(daemon.url, "/v1/nope", {})[0] == 404


class TestOverloadOverHttp:
    def test_shed_maps_to_429_with_retry_after(self):
        service = CompileService(ServeConfig(workers=1, max_inflight=1))
        with ServeDaemon(service=service, port=0) as d:
            ticket = service.admission.try_admit()  # occupy the only slot
            try:
                status, doc, headers = _post(
                    d.url, "/v1/compile",
                    {"schema": SERVE_SCHEMA, "source": figure2_code()},
                )
            finally:
                ticket.release()
            assert status == 429
            assert doc["status"] == "shed"
            assert int(headers["Retry-After"]) >= 1
        service.shutdown()

    def test_open_breaker_maps_to_503_with_retry_after(self):
        service = CompileService(ServeConfig(workers=1))
        with ServeDaemon(service=service, port=0) as d:
            from repro.serve.wire import source_digest

            key = service._class_key(source_digest(figure2_code()))
            for _ in range(service.config.breaker_threshold):
                service.breaker.record_failure(key)
            status, doc, headers = _post(
                d.url, "/v1/compile",
                {"schema": SERVE_SCHEMA, "source": figure2_code()},
            )
            assert status == 503
            assert doc["status"] == "rejected"
            assert int(headers["Retry-After"]) >= 1
        service.shutdown()
