"""HTTP front end for the run store: stdlib-only service mode.

``ThreadingHTTPServer`` + ``BaseHTTPRequestHandler`` — no new
dependencies.  Endpoints (all JSON):

* ``GET  /health``        — liveness + store totals + job queue depth,
  per-worker heartbeats and the store's cumulative busy-retry count
* ``GET  /metrics``       — the obs registry, Prometheus text format
  (``?format=json`` for the raw snapshot); 503 while the plane is off
* ``POST /jobs``          — submit a campaign (202, or 400 on a
  malformed payload; see :class:`repro.serve.jobs.JobSpec`)
* ``GET  /jobs``          — every job's lifecycle state
* ``GET  /jobs/<id>``     — one job (404 when unknown)
* ``GET  /runs``          — stored records; filters ``method``,
  ``defense``, ``label``, ``app``, ``spec_hash``, ``status``
  (``ok``/``failed``), ``success=yes|no``, ``limit`` (0 to
  :data:`MAX_RUNS_PAGE`); ``stats=1`` includes the full per-run stats
  JSON.  Any other ``success`` value or a negative ``limit`` is a 400
* ``GET  /aggregate``     — mergeable totals, grouped by ``?by=axis``

With the obs plane on (the serve CLI enables it unless ``--no-obs``),
every request is counted and timed per route/status, and ``/metrics``
refreshes live gauges — queue depth, workers alive, store busy
retries — at scrape time.

The server itself is stateless: every durable byte lives in the SQLite
store, so restarting the service (or pointing a second one at the same
file) loses nothing — resubmitted campaigns skip every stored cell.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.obs import OBS
from repro.obs.export import (
    CONTENT_TYPE as METRICS_CONTENT_TYPE,
    render_prometheus,
    snapshot,
)
from repro.serve.jobs import JobError, JobService
from repro.store.aggregate import GROUP_AXES, totals_from_store
from repro.store.db import StoreError

#: Known GET routes, for the per-route request metrics label (dynamic
#: /jobs/<id> collapses to one series; anything else is "other" so a
#: scanner cannot mint unbounded label values).
_ROUTES = ("/health", "/metrics", "/jobs", "/runs", "/aggregate")

#: Request-latency histogram edges (ms): routes answer in microseconds
#: to, worst case, a slow aggregate over a large store.
_REQUEST_EDGES_MS = (0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0,
                     250.0, 1000.0, 5000.0)

#: Hard cap on ``/runs`` page size; clients page with ``limit``.
MAX_RUNS_PAGE = 1000

#: Hard cap on request bodies: job submissions are a few hundred bytes
#: of JSON, so anything past this is a client error (413), not work.
MAX_BODY_BYTES = 1 << 20

#: Socket timeout per request: a client that stalls mid-request (slow
#: body, dead connection) frees its worker thread instead of wedging
#: it forever.
REQUEST_TIMEOUT = 30.0


class ServeHandler(BaseHTTPRequestHandler):
    """One request against the shared :class:`JobService`."""

    # Set by make_server(); class-level so the stdlib's handler-per-
    # request instantiation sees it.
    service: JobService = None
    quiet: bool = True

    protocol_version = "HTTP/1.1"
    # StreamRequestHandler applies this as the connection's socket
    # timeout in setup(); handle_one_request() treats a timeout as a
    # dropped connection and closes it.
    timeout = REQUEST_TIMEOUT
    # Buffer the response so headers and body leave in one write: with
    # the stdlib's unbuffered default they go as two small segments,
    # and on a keep-alive connection the second waits for the client's
    # delayed ACK (Nagle), ~40 ms per response.  handle_one_request()
    # flushes after every request.
    wbufsize = -1

    def handle_expect_100(self) -> bool:
        # The interim 100 must reach the client before it sends the
        # body, so it cannot wait in the response buffer.
        accepted = super().handle_expect_100()
        self.wfile.flush()
        return accepted

    def finish(self) -> None:
        # Each request runs on a fresh thread, which opened its own
        # store connection; close it here rather than leaving it (and
        # its page cache) to the cyclic GC.  Job workers keep theirs.
        try:
            super().finish()
        finally:
            self.service.store.close()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.quiet:
            super().log_message(format, *args)

    # -- plumbing ----------------------------------------------------------------

    def _send(self, status: int, payload: dict) -> None:
        self._send_bytes(status,
                         json.dumps(payload, sort_keys=True)
                         .encode("utf-8"),
                         "application/json")

    def _send_bytes(self, status: int, body: bytes,
                    content_type: str) -> None:
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send(status, {"error": message})

    def _query(self) -> dict[str, str]:
        parsed = parse_qs(urlparse(self.path).query)
        return {key: values[-1] for key, values in parsed.items()}

    def _filters(self, query: dict[str, str]) -> dict:
        filters = {key: query.get(key)
                   for key in ("method", "defense", "label", "app",
                               "spec_hash", "status")}
        if "success" in query:
            if query["success"] not in ("yes", "no"):
                raise ValueError(f"success must be yes or no, not "
                                 f"{query['success']!r}")
            filters["success"] = query["success"] == "yes"
        return filters

    # -- request metrics ---------------------------------------------------------

    def _route_label(self) -> str:
        path = urlparse(self.path).path.rstrip("/")
        if path.startswith("/jobs/"):
            return "/jobs/{id}"
        return path if path in _ROUTES else "other"

    def _observed(self, verb: str, handler) -> None:
        """Run a request handler, counting and timing it per route.

        ``_send_bytes`` records the final status on the handler
        instance; one request sends exactly one response.
        """
        if not OBS.enabled:
            handler()
            return
        started = time.perf_counter()
        try:
            handler()
        finally:
            route = self._route_label()
            OBS.counter("serve.requests_total", route=route, verb=verb,
                        status=str(getattr(self, "_status", 0))).inc()
            OBS.histogram("serve.request_ms",
                          edges=_REQUEST_EDGES_MS, route=route,
                          verb=verb).observe(
                (time.perf_counter() - started) * 1000.0)

    def _refresh_live_gauges(self) -> None:
        """Point-in-time service vitals, re-read at every scrape."""
        OBS.gauge("serve.queue_depth").set(self.service.queue_depth())
        OBS.gauge("serve.workers_alive").set(
            sum(1 for worker in self.service.worker_status()
                if worker["alive"]))
        OBS.gauge("store.busy_retries_live").set(
            self.service.store.total_busy_retries())

    # -- routes ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler name)
        self._observed("GET", self._handle_get)

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler name)
        self._observed("POST", self._handle_post)

    def _handle_get(self) -> None:
        path = urlparse(self.path).path.rstrip("/")
        query = self._query()
        try:
            if path == "/health":
                self._send(200, {
                    "ok": True,
                    "store": str(self.service.store.path),
                    "records": self.service.store.count(),
                    "workers": self.service.workers,
                    "queue_depth": self.service.queue_depth(),
                    "busy_retries":
                        self.service.store.total_busy_retries(),
                    "worker_status": self.service.worker_status(),
                })
            elif path == "/metrics":
                if not OBS.enabled:
                    self._error(503, "observability plane disabled; "
                                     "start serve without --no-obs or "
                                     "set REPRO_OBS=1")
                    return
                self._refresh_live_gauges()
                if query.get("format") == "json":
                    self._send(200, snapshot(OBS.registry,
                                             spans=OBS.spans))
                else:
                    self._send_bytes(
                        200,
                        render_prometheus(OBS.registry)
                        .encode("utf-8"),
                        METRICS_CONTENT_TYPE)
            elif path == "/jobs":
                self._send(200, {"jobs": [job.to_json() for job in
                                          self.service.jobs()]})
            elif path.startswith("/jobs/"):
                job = self.service.get(path[len("/jobs/"):])
                if job is None:
                    self._error(404, "unknown job")
                else:
                    self._send(200, job.to_json())
            elif path == "/runs":
                limit = min(int(query.get("limit", 100)), MAX_RUNS_PAGE)
                include_stats = query.get("stats") == "1"
                runs = []
                for record in self.service.store.iter_records(
                        limit=limit, **self._filters(query)):
                    payload = record.to_json()
                    if not include_stats:
                        payload.pop("stats")
                    runs.append(payload)
                self._send(200, {"runs": runs, "count": len(runs)})
            elif path == "/aggregate":
                by = query.get("by")
                if by is not None and by not in GROUP_AXES:
                    self._error(400, f"unknown axis {by!r}; pick one of "
                                     f"{', '.join(GROUP_AXES)}")
                    return
                groups = totals_from_store(self.service.store, by=by,
                                           **self._filters(query))
                self._send(200, {"by": by or "all",
                                 "groups": {key: totals.to_json()
                                            for key, totals
                                            in groups.items()}})
            else:
                self._error(404, f"no route {path!r}")
        except (StoreError, ValueError) as exc:
            self._error(400, str(exc))

    def _handle_post(self) -> None:
        path = urlparse(self.path).path.rstrip("/")
        if path != "/jobs":
            self._error(404, f"no route {path!r}")
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            self._error(400, "bad Content-Length header")
            return
        if length > MAX_BODY_BYTES:
            self._error(413, f"request body of {length} bytes exceeds "
                             f"the {MAX_BODY_BYTES} byte cap")
            return
        try:
            raw = self.rfile.read(length) if length > 0 else b""
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except TimeoutError:
            # The client stalled mid-body; drop the connection rather
            # than wedging this worker thread.
            self.close_connection = True
            return
        except (ValueError, UnicodeDecodeError) as exc:
            self._error(400, f"bad JSON body: {exc}")
            return
        try:
            job = self.service.submit(payload)
        except JobError as exc:
            self._error(400, str(exc))
            return
        self._send(202, job.to_json())


def make_server(service: JobService, host: str = "127.0.0.1",
                port: int = 0, quiet: bool = True) -> ThreadingHTTPServer:
    """A ready-to-serve HTTP server bound to ``host:port``.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_address``) — the shape the tests and smoke scripts
    use.  Call ``serve_forever()`` to block, or run it on a thread and
    ``shutdown()`` when done.
    """
    handler = type("BoundServeHandler", (ServeHandler,),
                   {"service": service, "quiet": quiet})
    return ThreadingHTTPServer((host, port), handler)
