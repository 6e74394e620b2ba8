"""Tests for the HTTP job service in front of the run store.

A real ``ThreadingHTTPServer`` on an ephemeral port, driven over
urllib: submit -> poll -> query round-trips, concurrent submitters
exercising the WAL writer path, and the malformed-job 400 contract.
"""

import gc
import json
import os
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import JobError, JobService, JobSpec, make_server
from repro.store import RunStore


def http(base, path, payload=None):
    """(status, json) for a GET, or a POST when ``payload`` is given."""
    url = base + path
    if payload is None:
        request = urllib.request.Request(url)
    else:
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture()
def served(tmp_path):
    """A live service + server bound to an ephemeral port."""
    service = JobService(tmp_path / "serve.db", workers=2)
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield service, f"http://{host}:{port}"
    server.shutdown()
    service.shutdown()


class TestJobSpec:
    def test_defaults(self):
        spec = JobSpec.from_json({})
        assert spec.methods == ["HijackDNS"]
        assert spec.seeds == [0, 1, 2, 3]
        assert spec.apps is None

    def test_methods_resolved_and_canonicalised(self):
        spec = JobSpec.from_json({"methods": ["hijack", "frag"]})
        assert spec.methods == ["HijackDNS", "FragDNS"]

    def test_seed_list_passes_verbatim(self):
        spec = JobSpec.from_json({"seeds": [3, "a", 7]})
        assert spec.seeds == [3, "a", 7]

    @pytest.mark.parametrize("payload", [
        "not an object",
        {"methods": []},
        {"methods": ["nope"]},
        {"methods": ["hijack"], "seeds": 0},
        {"methods": ["hijack"], "seeds": [1.5]},
        {"methods": ["hijack"], "apps": ["bogus-app"]},
        {"methods": ["hijack"], "defend": ["not-a-defense"]},
        {"methods": ["hijack"], "surprise": 1},
        {"methods": ["hijack"], "seeds": 100000},
    ])
    def test_malformed_payloads_raise(self, payload):
        with pytest.raises(JobError):
            JobSpec.from_json(payload)

    def test_scenarios_materialise(self):
        spec = JobSpec.from_json({"methods": ["hijack"]})
        scenarios = spec.scenarios()
        assert len(scenarios) == 1
        assert scenarios[0].method == "HijackDNS"


class TestRoundTrip:
    def test_submit_poll_query(self, served):
        service, base = served
        status, health = http(base, "/health")
        assert status == 200 and health["ok"] and health["records"] == 0

        status, job = http(base, "/jobs", {
            "methods": ["hijack"], "seeds": 3, "defend": ["dnssec"],
        })
        assert status == 202
        assert job["state"] in ("queued", "running")

        done = service.wait(job["id"], timeout=60)
        assert done.state == "done"
        assert done.summary["runs"] == 6     # (none + dnssec) x 3 seeds

        status, polled = http(base, f"/jobs/{job['id']}")
        assert status == 200
        assert polled["state"] == "done"
        assert polled["summary"]["runs"] == 6

        status, runs = http(base, "/runs?defense=dnssec")
        assert status == 200
        assert runs["count"] == 3
        assert all(r["defense"] == "dnssec" for r in runs["runs"])
        assert "stats" not in runs["runs"][0]

        status, runs = http(base, "/runs?limit=1&stats=1")
        assert status == 200
        assert "stats" in runs["runs"][0]

        status, agg = http(base, "/aggregate?by=defense")
        assert status == 200
        assert agg["groups"]["none"]["success_rate"] == 1.0
        assert agg["groups"]["dnssec"]["success_rate"] == 0.0

    def test_resubmission_is_idempotent(self, served):
        service, base = served
        payload = {"methods": ["hijack"], "seeds": 2}
        _, first = http(base, "/jobs", payload)
        service.wait(first["id"], timeout=60)
        _, second = http(base, "/jobs", payload)
        done = service.wait(second["id"], timeout=60)
        assert done.state == "done"
        assert any("cells loaded" in note
                   for note in done.summary["notes"])
        _, agg = http(base, "/aggregate")
        assert agg["groups"]["all"]["runs"] == 2   # no duplicate cells

    def test_concurrent_submitters(self, served):
        service, base = served
        payloads = [{"methods": ["hijack"], "seeds": [f"c{i}"],
                     "label": f"submitter-{i}"} for i in range(4)]
        ids = []
        errors = []

        def submit(payload):
            try:
                status, job = http(base, "/jobs", payload)
                assert status == 202
                ids.append(job["id"])
            except Exception as exc:   # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=submit, args=(p,))
                   for p in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(set(ids)) == 4
        for job_id in ids:
            assert service.wait(job_id, timeout=60).state == "done"
        assert service.store.count() == 4

    def test_malformed_job_is_400(self, served):
        _service, base = served
        status, body = http(base, "/jobs", {"methods": ["nope"]})
        assert status == 400
        assert "unknown attack method" in body["error"]
        status, body = http(base, "/jobs", {"seeds": -3})
        assert status == 400

    def test_unknown_routes_and_jobs_are_404(self, served):
        _service, base = served
        status, _ = http(base, "/jobs/job-999")
        assert status == 404
        status, _ = http(base, "/nothing-here")
        assert status == 404

    def test_bad_aggregate_axis_is_400(self, served):
        _service, base = served
        status, body = http(base, "/aggregate?by=bogus")
        assert status == 400
        assert "unknown axis" in body["error"]

    def test_negative_runs_limit_is_400(self, served):
        service, base = served
        job = service.submit({"methods": ["hijack"], "seeds": 2})
        service.wait(job.id, timeout=60)
        status, body = http(base, "/runs?limit=-1")
        assert status == 400
        assert "limit" in body["error"]
        status, body = http(base, "/runs?limit=0")
        assert status == 200 and body["count"] == 0

    @pytest.mark.parametrize("route", ["/runs", "/aggregate"])
    def test_success_filter_must_be_yes_or_no(self, served, route):
        _service, base = served
        for value in ("true", "1", "YES"):
            status, body = http(base, f"{route}?success={value}")
            assert status == 400, value
            assert "success must be yes or no" in body["error"]
        for value in ("yes", "no"):
            status, _ = http(base, f"{route}?success={value}")
            assert status == 200

    def test_jobs_listing(self, served):
        service, base = served
        _, job = http(base, "/jobs", {"methods": ["hijack"], "seeds": 1})
        service.wait(job["id"], timeout=60)
        status, listing = http(base, "/jobs")
        assert status == 200
        assert [j["id"] for j in listing["jobs"]] == [job["id"]]


class TestConnectionLifetime:
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts descriptors in /proc/self/fd")
    def test_request_threads_close_their_store_connections(self,
                                                           served):
        # With the cyclic GC off, a connection nobody closes keeps its
        # descriptor open: one per request thread.
        service, base = served
        target = os.path.realpath(service.store.path)

        def store_fds():
            count = 0
            for fd in os.listdir("/proc/self/fd"):
                try:
                    count += os.readlink(f"/proc/self/fd/{fd}") == target
                except OSError:
                    pass
            return count

        gc.disable()
        try:
            for _ in range(50):
                status, _ = http(base, "/aggregate")
                assert status == 200
            assert store_fds() <= service.workers + 2
        finally:
            gc.enable()


class TestServiceResilience:
    def test_poisoned_cell_job_still_finishes_done(self, tmp_path,
                                                   monkeypatch):
        """A crashing cell degrades to a recorded per-cell failure; the
        job itself completes and carries the error detail."""
        from dataclasses import replace

        from repro.faults import FaultPlan

        original = JobSpec.scenarios

        def poisoned(self):
            return [replace(scenario, faults=FaultPlan(crash_seeds=(1,)))
                    for scenario in original(self)]

        monkeypatch.setattr(JobSpec, "scenarios", poisoned)
        service = JobService(tmp_path / "serve.db", workers=1)
        try:
            job = service.submit({"methods": ["hijack"], "seeds": 3})
            done = service.wait(job.id, timeout=60)
            assert done.state == "done"
            assert done.summary["runs"] == 3
            assert done.summary["failures"] == 1
            (cell,) = done.summary["failed_cells"]
            assert cell["seed"] == 1
            assert "ChaosError" in cell["error"]
            assert service.store.count(status="failed") == 1
        finally:
            service.shutdown()

    def test_worker_crash_fails_the_job_not_the_service(self, tmp_path):
        service = JobService(tmp_path / "serve.db", workers=1,
                             chaos="job:1")
        try:
            job = service.submit({"methods": ["hijack"], "seeds": 1})
            dead = service.wait(job.id, timeout=60)
            assert dead.state == "failed"
            assert "injected worker crash" in dead.error
            assert dead.traceback
            # The worker loop survived its dead job: the next
            # submission drains normally.
            second = service.submit({"methods": ["hijack"], "seeds": 1})
            assert service.wait(second.id, timeout=60).state == "done"
        finally:
            service.shutdown()

    def test_failed_job_surfaces_over_http(self, served, monkeypatch):
        service, base = served

        def explode(self):
            raise RuntimeError("scenario build exploded")

        monkeypatch.setattr(JobSpec, "scenarios", explode)
        _, job = http(base, "/jobs", {"methods": ["hijack"], "seeds": 1})
        service.wait(job["id"], timeout=60)
        status, polled = http(base, f"/jobs/{job['id']}")
        assert status == 200
        assert polled["state"] == "failed"
        assert "RuntimeError: scenario build exploded" in polled["error"]
        assert polled["traceback"]

    def test_oversized_body_is_413(self, served):
        import http.client

        from repro.serve.api import MAX_BODY_BYTES

        _service, base = served
        host, port = base.removeprefix("http://").rsplit(":", 1)
        connection = http.client.HTTPConnection(host, int(port),
                                                timeout=10)
        try:
            # The cap is enforced from Content-Length before the body
            # is read, so the request never needs to ship a megabyte.
            connection.putrequest("POST", "/jobs")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length",
                                 str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
            assert b"exceeds" in response.read()
        finally:
            connection.close()

    def test_keep_alive_responses_do_not_stall(self, served):
        # Headers and body written separately to an unbuffered socket
        # make every keep-alive response wait out the client's delayed
        # ACK (~40 ms each); buffered, ten requests take milliseconds.
        import http.client
        import time

        _service, base = served
        host, port = base.removeprefix("http://").rsplit(":", 1)
        connection = http.client.HTTPConnection(host, int(port),
                                                timeout=10)
        try:
            started = time.perf_counter()
            for _ in range(10):
                connection.request("GET", "/health")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
            assert time.perf_counter() - started < 0.25
        finally:
            connection.close()

    def test_expect_100_continue_is_answered_before_the_body(self,
                                                             served):
        import socket

        _service, base = served
        host, port = base.removeprefix("http://").rsplit(":", 1)
        body = json.dumps({"methods": ["hijack"], "seeds": 1}).encode()
        with socket.create_connection((host, int(port)),
                                      timeout=10) as sock:
            sock.sendall(b"POST /jobs HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Expect: 100-continue\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body))
            # The interim response arrives while the body is unsent.
            assert sock.recv(64).startswith(b"HTTP/1.1 100")
            sock.sendall(body)
            reply = b""
            while b"\r\n\r\n" not in reply:
                reply += sock.recv(4096)
            assert b" 202 " in reply.split(b"\r\n", 1)[0]

    def test_handler_arms_a_socket_timeout(self):
        from repro.serve.api import REQUEST_TIMEOUT, ServeHandler

        assert ServeHandler.timeout == REQUEST_TIMEOUT
        assert 0 < REQUEST_TIMEOUT <= 60


class TestRestartDurability:
    def test_new_service_sees_old_results(self, tmp_path):
        db = tmp_path / "serve.db"
        first = JobService(db, workers=1)
        job = first.submit({"methods": ["hijack"], "seeds": 2})
        first.wait(job.id, timeout=60)
        first.shutdown()

        second = JobService(db, workers=1)
        try:
            assert second.store.count() == 2
            resumed = second.submit({"methods": ["hijack"], "seeds": 2})
            done = second.wait(resumed.id, timeout=60)
            assert any("2/2 cells loaded" in note
                       for note in done.summary["notes"])
        finally:
            second.shutdown()
        assert RunStore(db).count() == 2
