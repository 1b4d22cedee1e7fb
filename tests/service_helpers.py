"""Shared in-process worker doubles for the service test suites.

Both ``test_service_remote.py`` and ``test_service_recovery.py`` need
misbehaving ``repro serve`` stand-ins; they live here once so a change to
the ``/batch`` payload shape or the ``/healthz`` handshake is mirrored in
one place.  :func:`local_shards_wait_for` and :func:`wait_until_parked`
script the interleaving of those doubles with the scheduler's own executor.
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service import scheduler as scheduler_module
from repro.service.execute import execute_shard
from repro.service.spec import ENGINE_VERSION, spec_from_dict
from repro.service.telemetry import MetricsRegistry


class WorkerDoubleHandler(BaseHTTPRequestHandler):
    """Healthy ``/healthz`` handshake; ``do_POST`` is the double's knob."""

    # Match the real server: Nagle + delayed ACK would add ~40 ms stalls
    # per request on the keep-alive doubles below.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - http.server API
        pass

    def _reply(self, status, payload):
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path == "/healthz":
            self._reply(
                200, {"status": "ok", "engine_version": ENGINE_VERSION, "kinds": []}
            )
        else:
            self._reply(404, {"error": "unknown"})


class _WorkerDoubleServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, handler_class, port=0):
        self._lock = threading.Lock()
        super().__init__(("127.0.0.1", port), handler_class)

    @property
    def url(self):
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _FlakyHandler(WorkerDoubleHandler):
    def do_POST(self):
        server: "FlakyWorkerServer" = self.server
        with server._lock:
            server.batches_served += 1
            alive = server.batches_served <= server.max_batches
        if not alive:
            self._reply(500, {"error": "worker crashed mid-batch"})
            server.crashed.set()
            return
        length = int(self.headers.get("Content-Length") or 0)
        body = json.loads(self.rfile.read(length))
        specs = [spec_from_dict(item) for item in body["scenarios"]]
        self._reply(200, {"results": execute_shard(specs)})


class FlakyWorkerServer(_WorkerDoubleServer):
    """A worker that passes the health handshake, serves ``max_batches``
    shard requests with *correct* results, then dies (HTTP 500) — the
    deterministic stand-in for a node crashing mid-batch.  ``crashed`` is
    set once the first 500 has been sent.
    """

    def __init__(self, max_batches: int):
        self.max_batches = max_batches
        self.batches_served = 0
        self.crashed = threading.Event()
        super().__init__(_FlakyHandler)


@contextlib.contextmanager
def local_shards_wait_for(event: threading.Event, timeout: float = 60.0):
    """Hold every shard the scheduler executes in-process until ``event``.

    Wraps :func:`repro.service.scheduler.execute_shard`, which the serial
    local slot calls (as do in-process ``repro serve`` workers).  Pairing
    it with :attr:`FlakyWorkerServer.crashed` scripts "the worker crashes
    before the local slot drains the queue" without sleeps.  If the event
    never comes, the shard raises after ``timeout`` seconds and the batch,
    and with it the test, fails instead of hanging.
    """
    original = scheduler_module.execute_shard

    def gated(specs):
        if not event.wait(timeout):
            raise AssertionError(f"event not set within {timeout} s")
        return original(specs)

    scheduler_module.execute_shard = gated
    try:
        yield
    finally:
        scheduler_module.execute_shard = original


def wait_until_parked(ident: int, timeout: float = 60.0) -> None:
    """Return once the thread ``ident`` is blocked in a :mod:`threading` wait.

    A scheduler's calling thread parks there — joining its remote
    threads, or waiting on its shard ledger — only once its local slot has
    nothing left to take.  Polls the thread's innermost frame; raises if
    it has not parked within ``timeout`` seconds.
    """
    deadline = time.monotonic() + timeout
    while True:
        frame = sys._current_frames().get(ident)
        if (
            frame is not None
            and frame.f_code.co_filename == threading.__file__
            and frame.f_code.co_name in ("wait", "join", "_wait_for_tstate_lock")
        ):
            return
        if time.monotonic() > deadline:
            raise AssertionError(f"thread never parked within {timeout} s")
        time.sleep(0.001)


class _HoldingHandler(WorkerDoubleHandler):
    def do_POST(self):
        server: "HoldingWorkerServer" = self.server
        length = int(self.headers.get("Content-Length") or 0)
        self.rfile.read(length)
        with server._lock:
            first = not server.holding.is_set()
            server.holding.set()
        if first:
            try:
                server.release()
                server.released = True
            except Exception as error:  # surfaced by the test
                server.release_error = error
        self._reply(server.status, {"error": "worker failed the held shard"})


class HoldingWorkerServer(_WorkerDoubleServer):
    """Healthy handshake; holds the first shard it is sent until
    ``release()`` returns, then fails it with HTTP ``status`` (later
    shards fail at once).  ``holding`` is set once a shard is held;
    ``released`` is true once ``release()`` returned, else
    ``release_error`` is what it raised.
    """

    def __init__(self, status: int, release):
        self.status = int(status)
        self.release = release
        self.holding = threading.Event()
        self.released = False
        self.release_error = None
        super().__init__(_HoldingHandler)


class _RejectingHandler(WorkerDoubleHandler):
    def do_POST(self):
        with self.server._lock:
            self.server.batches_seen += 1
        self._reply(400, {"error": "this worker rejects every shard"})


class RejectingWorkerServer(_WorkerDoubleServer):
    """Healthy handshake, but every shard request is rejected with a 400."""

    def __init__(self):
        self.batches_seen = 0
        super().__init__(_RejectingHandler)


class _DroppingHandler(WorkerDoubleHandler):
    # Keep-alive protocol: the point of this double is to park a live
    # connection in the client's pool and then yank it.
    protocol_version = "HTTP/1.1"

    def do_POST(self):
        server: "DroppingWorkerServer" = self.server
        length = int(self.headers.get("Content-Length") or 0)
        body = json.loads(self.rfile.read(length))
        specs = [spec_from_dict(item) for item in body["scenarios"]]
        with server._lock:
            server.batches_served += 1
            drop = (
                server.drop_every > 0
                and server.batches_served % server.drop_every == 0
            )
        self._reply(200, {"results": execute_shard(specs)})
        if drop:
            # Close the socket *after* a complete response but *without*
            # ever advertising ``Connection: close`` — the client parks
            # the connection believing it reusable, and its next request
            # on it fails exactly like one against a restarted worker.
            with server._lock:
                server.drops += 1
            self.close_connection = True


class DroppingWorkerServer(_WorkerDoubleServer):
    """A *correct* keep-alive worker that silently drops its connection
    after every ``drop_every``-th shard response (0 never drops).

    The deterministic stand-in for a worker restart between dispatches:
    the pooled socket goes stale with no warning, so the client's next
    request on it must transparently redial — results stay bit-identical
    because the drop always happens after a fully served response.
    ``port`` pins the listen port, letting a test kill this server and
    bring up a replacement at the same address mid-batch.
    """

    def __init__(self, drop_every: int = 0, port: int = 0):
        self.drop_every = int(drop_every)
        self.batches_served = 0
        self.drops = 0
        super().__init__(_DroppingHandler, port=port)


class _SlowHandler(WorkerDoubleHandler):
    def do_GET(self):
        server: "SlowWorkerServer" = self.server
        if self.path == "/metrics.json":
            self._reply(200, server.metrics.snapshot())
        elif self.path == "/metrics":
            body = server.metrics.render_prometheus().encode("utf-8")
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            super().do_GET()

    def do_POST(self):
        server: "SlowWorkerServer" = self.server
        with server._lock:
            server.batches_served += 1
        length = int(self.headers.get("Content-Length") or 0)
        body = json.loads(self.rfile.read(length))
        specs = [spec_from_dict(item) for item in body["scenarios"]]
        start = time.monotonic()
        if server.delay > 0:
            time.sleep(server.delay)
        payloads = execute_shard(specs)
        server.metrics.histogram(
            "repro_worker_batch_seconds",
            help="Server-side wall time of POST /batch evaluations.",
        ).observe(time.monotonic() - start)
        self._reply(200, {"results": payloads})


class SlowWorkerServer(_WorkerDoubleServer):
    """A *correct* worker that sleeps ``delay`` seconds per shard request.

    The deterministic straggler stand-in: results are bit-identical to a
    healthy worker, only slower.  It keeps its own private
    :class:`~repro.service.telemetry.MetricsRegistry` (recording
    ``repro_worker_batch_seconds`` per batch) and serves it at
    ``/metrics.json`` / ``/metrics`` exactly like a real ``repro serve``
    node, so coordinator-side cluster merging can be tested end to end
    against two doubles with different speeds.
    """

    def __init__(self, delay: float = 0.0):
        self.delay = float(delay)
        self.batches_served = 0
        self.metrics = MetricsRegistry()
        super().__init__(_SlowHandler)
