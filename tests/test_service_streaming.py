"""Tests for streaming row delivery: ``BatchJob.iter_rows`` and
``GET /jobs/<id>/rows``.

Covers the ordered row sink at the scheduler layer (rows land the moment
their shard completes, exactly once, in index order), the SSE and binary
frame wire formats with their resume cursors, streaming through a worker
failover, the client-disconnect path, and the metrics path templating that
keeps ``/jobs/<id>/rows`` out of the ``/jobs/:id`` poll counter.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
import urllib.error
import urllib.request
import uuid

import pytest

from service_helpers import FlakyWorkerServer, local_shards_wait_for

from repro.exceptions import InvalidProblemError
from repro.service.remote import RemoteWorkerPool
from repro.service.scheduler import BatchJob, ScenarioScheduler
from repro.service.server import _metric_path, create_server
from repro.service.spec import SimulateSpec
from repro.service.wire import WIRE_CONTENT_TYPE, decode_frame


class TestMetricPathTemplating:
    def test_job_poll_and_rows_paths_get_distinct_labels(self):
        assert _metric_path("/jobs/0a1b2c") == "/jobs/:id"
        assert _metric_path("/jobs/0a1b2c/rows") == "/jobs/:id/rows"

    def test_query_strings_never_add_label_cardinality(self):
        # Without stripping the query first, the ``/rows`` suffix check
        # would misfile ``/rows?start=7`` under ``/jobs/:id``.
        assert _metric_path("/jobs/0a1b2c/rows?start=7") == "/jobs/:id/rows"
        assert _metric_path("/jobs/0a1b2c?verbose=1") == "/jobs/:id"
        assert _metric_path("/jobs?limit=5") == "/jobs"

    def test_known_and_unknown_paths(self):
        assert _metric_path("/healthz") == "/healthz"
        assert _metric_path("/cache/deadbeef") == "/cache/:key"
        assert _metric_path("/trace/abc") == "/trace/:id"
        assert _metric_path("/trace/abc/chrome") == "/trace/:id/chrome"
        assert _metric_path("/made/up") == "/:other"


def _grid(count, offset=0.0):
    """``count`` unique fast scenarios (distinct horizons => distinct keys)."""
    return [
        SimulateSpec(num_rays=2, num_robots=1, horizon=10.0 + offset + 0.5 * i)
        for i in range(count)
    ]


class TestBatchJobIterRows:
    def test_rows_arrive_before_the_job_finishes(self):
        # Deterministic, no timing: drive the row sink by hand.
        keys = [f"k{i}" for i in range(4)]
        job = BatchJob(job_id="j", keys=keys)
        rows = iter(job.iter_rows())
        job._publish([("k0", {"value": 0}), ("k1", {"value": 1})])
        assert next(rows) == (0, "k0", {"value": 0})
        assert next(rows) == (1, "k1", {"value": 1})
        assert job.done is False  # both rows were delivered mid-run

    def test_duplicate_keys_share_the_first_payload(self):
        keys = ["a", "b", "a"]
        job = BatchJob(job_id="j", keys=keys)
        job._publish([("a", {"value": "first"}), ("b", {"value": 1})])
        # Failover republication of an already-published key is a no-op.
        job._publish([("a", {"value": "again"})])
        rows = iter(job.iter_rows())
        assert next(rows) == (0, "a", {"value": "first"})
        assert next(rows) == (1, "b", {"value": 1})
        assert next(rows) == (2, "a", {"value": "first"})

    def test_negative_start_rejected(self):
        job = BatchJob(job_id="j", keys=["k"])
        with pytest.raises(InvalidProblemError):
            list(job.iter_rows(start=-1))

    def test_full_stream_matches_batch_results(self):
        scheduler = ScenarioScheduler()
        specs = _grid(12)
        specs.append(specs[0])  # a genuine duplicate scenario
        job = scheduler.submit_job(specs, max_workers=1, shard_size=3)
        rows = list(job.iter_rows())
        batch = job.result()
        assert [index for index, _key, _payload in rows] == list(range(13))
        assert [payload for _i, _k, payload in rows] == list(batch.results)
        assert rows[12][1] == rows[0][1]  # the duplicate shares its key

    def test_every_subscriber_sees_the_full_ordered_sequence(self):
        scheduler = ScenarioScheduler()
        job = scheduler.submit_job(_grid(8, offset=100.0), max_workers=1)
        first = list(job.iter_rows())
        job.wait(60)
        # Late subscriber on the finished (spilled) job: identical stream.
        second = list(job.iter_rows())
        assert first == second
        tail = list(job.iter_rows(start=6))
        assert tail == first[6:]


class TestStreamingThroughFailover:
    def test_rows_keep_arriving_after_a_worker_dies(self):
        # Worker double serves exactly one shard correctly, then 500s.
        # Its queued shards fail over to the local pool mid-stream; the
        # subscriber must still see every index exactly once, in order,
        # with payloads bit-identical to a serial run.  Local shards wait
        # for the crash, so the local slot cannot drain the queue first.
        flaky = FlakyWorkerServer(max_batches=1)
        thread = threading.Thread(target=flaky.serve_forever, daemon=True)
        thread.start()
        try:
            specs = _grid(60, offset=200.0)
            serial = ScenarioScheduler().run_batch(specs, max_workers=1)
            pool = RemoteWorkerPool([flaky.url])
            scheduler = ScenarioScheduler(workers=pool)
            with local_shards_wait_for(flaky.crashed):
                job = scheduler.submit_job(specs, max_workers=1, shard_size=1)
                rows = list(job.iter_rows())
                batch = job.result()
            assert batch.failovers >= 1
            indices = [index for index, _key, _payload in rows]
            assert indices == sorted(indices)  # monotone
            assert len(set(indices)) == len(indices)  # no duplicates
            assert indices == list(range(60))  # nothing missing
            assert [p for _i, _k, p in rows] == list(serial.results)
        finally:
            flaky.shutdown()
            flaky.server_close()
            thread.join(timeout=10)


@pytest.fixture(scope="module")
def streaming_server():
    server = create_server(host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _submit(url, specs):
    request = urllib.request.Request(
        url + "/jobs",
        data=json.dumps({"scenarios": [s.to_dict() for s in specs]}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        assert response.status == 202
        return json.loads(response.read())["job_id"]


def _parse_sse(stream):
    """Yield ``(id, event, data)`` per SSE block as the stream delivers them."""
    event_id, event, data = None, None, None
    for raw in stream:
        line = raw.decode("utf-8").rstrip("\n")
        if not line:
            if event is not None:
                yield event_id, event, json.loads(data)
            event_id, event, data = None, None, None
        elif line.startswith("id: "):
            event_id = int(line[len("id: ") :])
        elif line.startswith("event: "):
            event = line[len("event: ") :]
        elif line.startswith("data: "):
            data = line[len("data: ") :]


_FRAME_HEADER = struct.Struct("!2sBBI")


def _iter_frames(stream):
    """Decode the self-delimiting frames of a binary stream as they arrive."""
    while True:
        header = stream.read(_FRAME_HEADER.size)
        if not header:
            return
        _magic, _version, _flags, length = _FRAME_HEADER.unpack(header)
        yield decode_frame(header + stream.read(length))


def _read_frames(stream):
    """Decode the concatenated self-delimiting frames of a binary stream."""
    return list(_iter_frames(stream))


def _stream_events(response, as_frames):
    """Yield ``(event, data)`` pairs from an SSE or a binary-frame stream."""
    if as_frames:
        for frame in _iter_frames(response):
            yield next(iter(frame.items()))
    else:
        for _id, event, data in _parse_sse(response):
            yield event, data


class TestRowsEndpoint:
    def test_sse_stream_delivers_every_row_in_order_before_completion(
        self, streaming_server
    ):
        specs = _grid(200)
        job_id = _submit(streaming_server.url, specs)
        rows_url = f"{streaming_server.url}/jobs/{job_id}/rows"
        rows, state_after_first_row = [], None
        with urllib.request.urlopen(rows_url, timeout=120) as response:
            assert response.headers["Content-Type"] == "text/event-stream"
            for event_id, event, data in _parse_sse(response):
                if event == "done":
                    done = data
                    break
                rows.append((event_id, data))
                if state_after_first_row is None:
                    _status, poll = _get(
                        f"{streaming_server.url}/jobs/{job_id}"
                    )
                    state_after_first_row = poll["state"]
        # Every row exactly once, in index order, first row mid-run.
        assert [event_id for event_id, _data in rows] == list(range(200))
        assert [data["index"] for _id, data in rows] == list(range(200))
        assert state_after_first_row == "running"
        assert done == {"state": "done", "num_rows": 200}
        # The streamed payloads are the job's results, bit-identical.
        _status, final = _get(f"{streaming_server.url}/jobs/{job_id}")
        assert [data["result"] for _id, data in rows] == final["results"]

    def test_resume_cursors(self, streaming_server):
        specs = _grid(6, offset=300.0)
        job_id = _submit(streaming_server.url, specs)
        rows_url = f"{streaming_server.url}/jobs/{job_id}/rows"
        with urllib.request.urlopen(rows_url, timeout=120) as response:
            full = list(_parse_sse(response))

        # ?start= restarts *at* the index.
        with urllib.request.urlopen(rows_url + "?start=4", timeout=60) as response:
            tail = list(_parse_sse(response))
        assert tail == full[4:]

        # Last-Event-ID restarts *after* it (the SSE reconnect contract).
        request = urllib.request.Request(
            rows_url, headers={"Last-Event-ID": "3"}
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            resumed = list(_parse_sse(response))
        assert resumed == full[4:]

        # The query parameter wins when both are present.
        request = urllib.request.Request(
            rows_url + "?start=5", headers={"Last-Event-ID": "0"}
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            assert list(_parse_sse(response)) == full[5:]

    def test_binary_frame_stream_matches_sse_payloads(self, streaming_server):
        specs = _grid(5, offset=400.0)
        job_id = _submit(streaming_server.url, specs)
        rows_url = f"{streaming_server.url}/jobs/{job_id}/rows"
        with urllib.request.urlopen(rows_url, timeout=120) as response:
            sse = list(_parse_sse(response))
        request = urllib.request.Request(
            rows_url, headers={"Accept": WIRE_CONTENT_TYPE}
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            assert response.headers["Content-Type"] == WIRE_CONTENT_TYPE
            frames = _read_frames(response)
        assert [frame["row"] for frame in frames[:-1]] == [
            data for _id, _event, data in sse[:-1]
        ]
        assert frames[-1] == {"done": {"state": "done", "num_rows": 5}}

    def test_done_event_waits_for_the_terminal_state(self, streaming_server):
        # Scripted interleaving: every row is published while the job is
        # still running, and the job finishes only once the client has read
        # them all.  The terminal event must carry the finished state, never
        # "running", in both wire formats.
        specs = _grid(3, offset=500.0)
        batch = ScenarioScheduler().run_batch(specs, max_workers=1)
        keys = [spec.cache_key() for spec in specs]
        for as_frames in (False, True):
            job = BatchJob(job_id=uuid.uuid4().hex, keys=keys)
            job._publish(list(zip(keys, batch.results)))
            streaming_server.scheduler._register_job(job)
            request = urllib.request.Request(
                f"{streaming_server.url}/jobs/{job.job_id}/rows",
                headers={"Accept": WIRE_CONTENT_TYPE} if as_frames else {},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                events = _stream_events(response, as_frames)
                rows = [next(events) for _ in range(3)]
                assert [event for event, _data in rows] == ["row"] * 3
                job._finish(batch)
                done = next(events)
            assert done == ("done", {"state": "done", "num_rows": 3})

    def test_unknown_job_and_bad_cursors(self, streaming_server):
        status, body = _get(streaming_server.url + "/jobs/nope/rows")
        assert status == 404
        assert "unknown job" in body["error"]

        job_id = _submit(streaming_server.url, _grid(1, offset=500.0))
        rows_url = f"{streaming_server.url}/jobs/{job_id}/rows"
        status, body = _get(rows_url + "?start=x")
        assert status == 400
        status, body = _get(rows_url + "?start=-1")
        assert status == 400
        request = urllib.request.Request(
            rows_url, headers={"Last-Event-ID": "wat"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60)
        assert excinfo.value.code == 400

    def test_rows_metric_label_and_counter(self, streaming_server):
        job_id = _submit(streaming_server.url, _grid(3, offset=600.0))
        rows_url = f"{streaming_server.url}/jobs/{job_id}/rows"
        with urllib.request.urlopen(rows_url, timeout=120) as response:
            list(_parse_sse(response))
        _status, snapshot = _get(streaming_server.url + "/metrics.json")
        rows_requests = [
            entry
            for entry in snapshot["counters"]
            if entry["name"] == "repro_http_requests_total"
            and entry["labels"].get("path") == "/jobs/:id/rows"
        ]
        assert rows_requests, "streaming requests must be labelled /jobs/:id/rows"
        streamed = next(
            entry["value"]
            for entry in snapshot["counters"]
            if entry["name"] == "repro_rows_streamed_total"
        )
        assert streamed >= 3

    def test_client_disconnect_releases_the_stream(self, streaming_server):
        # Open the stream raw, read a little, slam the socket shut: the
        # job must still run to completion and serve later subscribers.
        specs = _grid(120, offset=700.0)
        job_id = _submit(streaming_server.url, specs)
        host, port = streaming_server.server_address[:2]
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(
                f"GET /jobs/{job_id}/rows HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n\r\n".encode()
            )
            sock.recv(512)  # headers + the first few rows
        # The abandoned subscriber dies with its request thread; the job
        # itself finishes and a fresh stream replays every row.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            _status, poll = _get(f"{streaming_server.url}/jobs/{job_id}")
            if poll["state"] == "done":
                break
            time.sleep(0.05)
        assert poll["state"] == "done"
        rows_url = f"{streaming_server.url}/jobs/{job_id}/rows"
        with urllib.request.urlopen(rows_url, timeout=120) as response:
            events = list(_parse_sse(response))
        assert events[-1][1] == "done"
        assert [data["index"] for _id, event, data in events if event == "row"] == list(
            range(120)
        )
