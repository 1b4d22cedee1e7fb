"""End-to-end tests of the HTTP evaluation server on an ephemeral port.

Besides the endpoints themselves, this covers the HTTP/1.1 keep-alive
discipline persistent worker connections rely on: error responses drain
the request body so the next request on the socket stays in sync, and
unhandled handler exceptions produce a structured 500 with
``Connection: close`` instead of stranding the client.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service.remote import RemoteWorker
from repro.service.server import MAX_BODY_BYTES, create_server
from repro.service.spec import SimulateSpec
from repro.service.telemetry import MetricsRegistry, Tracer

GOLDEN_SIMULATE = SimulateSpec(num_rays=2, num_robots=1, num_faulty=0, horizon=200.0)


@pytest.fixture(scope="module")
def server():
    server = create_server(host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@pytest.fixture(scope="module")
def server_url(server):
    return server.url


def _get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post(url: str, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestEndpoints:
    def test_healthz(self, server_url):
        status, body = _get(server_url + "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert "simulate" in body["kinds"]

    def test_unknown_path_404(self, server_url):
        status, body = _get(server_url + "/nope")
        assert status == 404
        assert "error" in body

    def test_invalid_spec_400(self, server_url):
        status, body = _post(server_url + "/evaluate", {"kind": "quantum"})
        assert status == 400
        assert "unknown scenario kind" in body["error"]

    def test_invalid_body_400(self, server_url):
        request = urllib.request.Request(
            server_url + "/evaluate",
            data=b"this is not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60)
        assert excinfo.value.code == 400


class TestGoldenScenarios:
    def test_deterministic_line_ratio_nine_and_cache_hit(self, server_url):
        scenario = {"kind": "simulate", "num_rays": 2, "num_robots": 1,
                    "num_faulty": 0, "horizon": 200.0}
        status, body = _post(server_url + "/evaluate", scenario)
        assert status == 200
        assert body["cached"] is False
        assert body["result"]["theoretical"] == 9.0  # the cow-path golden
        assert body["result"]["measured"] <= 9.0
        assert body["result"]["measured"] == pytest.approx(9.0, rel=0.05)

        # The second identical request must be served from the cache.
        status, again = _post(server_url + "/evaluate", scenario)
        assert status == 200
        assert again["cached"] is True
        assert again["result"] == body["result"]
        assert again["key"] == body["key"]

        status, stats = _get(server_url + "/cache/stats")
        assert status == 200
        assert stats["hits"] >= 1

    def test_seeded_randomized_montecarlo_golden(self, server_url):
        scenario = {"kind": "montecarlo_randomized", "num_rays": 2,
                    "num_samples": 4000, "seed": 7, "horizon": 1000.0}
        status, body = _post(server_url + "/evaluate", scenario)
        assert status == 200
        result = body["result"]
        assert result["closed_form"] == pytest.approx(4.5911, abs=5e-5)
        assert result["within_3_std_errors"] is True
        assert result["estimate"] == pytest.approx(
            4.5911, abs=4 * result["std_error"]
        )
        # Seeded: repeating the request reproduces the identical payload.
        _status, again = _post(server_url + "/evaluate", scenario)
        assert again["cached"] is True
        assert again["result"] == result

    def test_batch_endpoint_dedups(self, server_url):
        scenario = {"kind": "bounds", "num_robots": 3, "num_faulty": 1}
        status, body = _post(
            server_url + "/batch",
            {"scenarios": [scenario, scenario, scenario], "max_workers": 1},
        )
        assert status == 200
        assert body["stats"]["num_scenarios"] == 3
        assert body["stats"]["num_unique"] == 1
        assert body["stats"]["evaluated"] <= 1
        ratios = [result["ratio"] for result in body["results"]]
        assert ratios == [pytest.approx(5.2331, abs=5e-5)] * 3

    def test_batch_accepts_bare_list(self, server_url):
        status, body = _post(
            server_url + "/batch",
            [{"kind": "bounds", "num_robots": 1}],
        )
        assert status == 200
        assert body["results"][0]["ratio"] == 9.0

    def test_batch_rejects_empty(self, server_url):
        status, body = _post(server_url + "/batch", {"scenarios": []})
        assert status == 400

    def test_batch_rejects_primitive_body_as_400(self, server_url):
        status, body = _post(server_url + "/batch", "hello")
        assert status == 400
        assert "error" in body

    def test_evaluate_malformed_targets_400(self, server_url):
        status, body = _post(
            server_url + "/evaluate",
            {"kind": "montecarlo_randomized", "targets": [[0]]},
        )
        assert status == 400
        assert "target" in body["error"]


class TestRobustness:
    """Regression tests: structured errors, never tracebacks or 500s."""

    def test_malformed_json_body_returns_structured_400(self, server_url):
        for path in ("/evaluate", "/batch", "/jobs"):
            request = urllib.request.Request(
                server_url + path,
                data=b'{"scenarios": [}',
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=60)
            assert excinfo.value.code == 400
            body = json.loads(excinfo.value.read())
            assert "invalid JSON body" in body["error"]

    def test_unknown_spec_kind_returns_structured_400(self, server_url):
        for path in ("/evaluate", "/batch", "/jobs"):
            payload = {"kind": "quantum"}
            if path != "/evaluate":
                payload = {"scenarios": [payload]}
            status, body = _post(server_url + path, payload)
            assert status == 400
            assert "unknown scenario kind" in body["error"]

    # The partition family has no faulty-robot variant: such a scenario
    # must be refused before any shard runs, not fail the whole batch.
    _FAULTY_PARTITION = {
        "kind": "family", "family": "partition",
        "num_rays": 3, "num_robots": 2, "num_faulty": 1,
    }

    def test_batch_rejects_faulty_partition_family_as_400(self, server_url):
        status, body = _post(
            server_url + "/batch",
            {"scenarios": [{"kind": "bounds"}, self._FAULTY_PARTITION]},
        )
        assert status == 400
        assert "fault-free" in body["error"]

    def test_jobs_rejects_faulty_partition_family_as_400(self, server_url):
        def job_ids():
            _status, listing = _get(server_url + "/jobs")
            return {job["job_id"] for job in listing["jobs"]}

        before = job_ids()
        status, body = _post(
            server_url + "/jobs", {"scenarios": [self._FAULTY_PARTITION]}
        )
        assert status == 400
        assert "fault-free" in body["error"]
        assert job_ids() == before  # no job was created

    def test_non_object_scenario_returns_400(self, server_url):
        status, body = _post(server_url + "/evaluate", [1, 2, 3])
        assert status == 400
        status, body = _post(server_url + "/batch", {"scenarios": [42]})
        assert status == 400
        assert "error" in body

    def test_empty_body_returns_400(self, server_url):
        request = urllib.request.Request(
            server_url + "/evaluate", data=b"", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60)
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read())

    def test_unknown_job_returns_404(self, server_url):
        status, body = _get(server_url + "/jobs/deadbeef")
        assert status == 404
        assert "unknown job" in body["error"]

    def test_workers_endpoint_404_without_pool(self, server_url):
        status, body = _get(server_url + "/workers")
        assert status == 404
        assert "worker pool" in body["error"]


class TestJobsEndpoint:
    def test_submit_poll_and_list(self, server_url):
        scenarios = [
            {"kind": "simulate", "num_rays": 2, "num_robots": 1,
             "num_faulty": 0, "horizon": float(horizon)}
            for horizon in range(300, 310)
        ]
        status, submitted = _post(
            server_url + "/jobs", {"scenarios": scenarios, "max_workers": 1}
        )
        assert status == 202
        assert submitted["num_scenarios"] == len(scenarios)

        import time

        deadline = time.monotonic() + 60
        while True:
            status, body = _get(server_url + submitted["path"])
            assert status == 200
            if body["state"] != "running":
                break
            assert time.monotonic() < deadline
            time.sleep(0.02)

        assert body["state"] == "done"
        assert body["progress"] == {"completed": len(scenarios),
                                    "total": len(scenarios)}
        assert body["stats"]["num_scenarios"] == len(scenarios)
        assert len(body["results"]) == len(scenarios)
        assert body["results"][0]["theoretical"] == 9.0

        status, listing = _get(server_url + "/jobs")
        assert status == 200
        assert submitted["job_id"] in {job["job_id"] for job in listing["jobs"]}

    def test_jobs_rejects_empty_scenarios(self, server_url):
        status, body = _post(server_url + "/jobs", {"scenarios": []})
        assert status == 400
        assert "non-empty" in body["error"]


class TestKeepAliveProtocol:
    """Error paths over raw persistent connections leave the socket usable."""

    def _connect(self, server):
        host, port = server.server_address[:2]
        return http.client.HTTPConnection(host, port, timeout=60)

    def _assert_still_in_sync(self, connection):
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"

    def test_error_response_drains_body_and_keeps_connection(self, server):
        # A 400 must leave the socket usable: the follow-up request on the
        # SAME connection would desync (or hang) if the unread body bytes
        # were left behind.
        connection = self._connect(server)
        try:
            connection.request(
                "POST",
                "/batch",
                body=b'{"scenarios": [}' + b"x" * 4096,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert "invalid JSON body" in body["error"]
            assert response.getheader("Connection") != "close"
            self._assert_still_in_sync(connection)
        finally:
            connection.close()

    def test_get_with_request_body_stays_in_sync(self, server):
        # GET handlers never read a body; without the drain the body bytes
        # would be parsed as the next request line.
        connection = self._connect(server)
        try:
            connection.request("GET", "/healthz", body=b'{"stray": "body"}')
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"

            connection.request("GET", "/cache/stats")
            response = connection.getresponse()
            assert response.status == 200
            json.loads(response.read())
        finally:
            connection.close()

    def test_oversize_body_closes_connection(self, server):
        # A body too large to drain: the 400 must carry Connection: close
        # instead of reading 32 MiB (the body is never sent here — the
        # server must answer from the headers alone).
        connection = self._connect(server)
        try:
            connection.putrequest("POST", "/batch")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert "exceeds" in body["error"]
            assert response.getheader("Connection") == "close"
            assert response.will_close
        finally:
            connection.close()

    @pytest.mark.parametrize(
        "content_type", ["application/json", "application/x-repro-frame"]
    )
    def test_non_json_body_structured_400_keeps_connection(
        self, server, content_type
    ):
        # Binary bytes that are not UTF-8, let alone JSON.  The declared
        # Content-Type changes nothing: every body is read as JSON, so a
        # client still sending the retired binary frames gets the same
        # structured 400 (never a 500) and keeps its connection.
        connection = self._connect(server)
        try:
            connection.request(
                "POST",
                "/batch",
                body=b"RF\x01\x00\x00\x00\x00\x01\xfe",
                headers={"Content-Type": content_type},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert response.getheader("Content-Type") == "application/json"
            assert "invalid JSON body" in body["error"]
            assert response.getheader("Connection") != "close"
            self._assert_still_in_sync(connection)
        finally:
            connection.close()


class TestUnhandledExceptionHandling:
    """No handler may strand a keep-alive client."""

    @pytest.fixture()
    def broken_server(self):
        server = create_server(
            host="127.0.0.1", port=0, metrics=MetricsRegistry(), tracer=Tracer()
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def _error_count(self, server):
        snapshot = server.scheduler.metrics.snapshot()
        return sum(
            entry["value"]
            for entry in snapshot.get("counters", [])
            if entry["name"] == "repro_http_errors_total"
        )

    def test_unhandled_get_exception_returns_structured_500(self, broken_server):
        def explode():
            raise RuntimeError("stats backend exploded")

        broken_server.scheduler.cache.stats = explode
        host, port = broken_server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            connection.request("GET", "/cache/stats")
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 500
            assert "internal error" in body["error"]
            assert "exploded" in body["error"]
            assert response.getheader("Connection") == "close"
            assert response.will_close
        finally:
            connection.close()
        assert self._error_count(broken_server) == 1

    def test_unhandled_post_exception_returns_structured_500(self, broken_server):
        def explode(spec):
            raise RuntimeError("evaluator exploded")

        broken_server.scheduler.evaluate = explode
        host, port = broken_server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            connection.request(
                "POST",
                "/evaluate",
                body=json.dumps(GOLDEN_SIMULATE.to_dict()).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 500
            assert "internal error" in body["error"]
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()
        assert self._error_count(broken_server) == 1

    def test_healthy_request_does_not_count_errors(self, broken_server):
        worker = RemoteWorker(broken_server.url)
        assert worker.check_health()
        assert self._error_count(broken_server) == 0
