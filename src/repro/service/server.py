"""Stdlib-only HTTP evaluation server.

A thin JSON facade over the :class:`~repro.service.scheduler.ScenarioScheduler`
built on :class:`http.server.ThreadingHTTPServer` — no third-party web
framework, matching the library's no-extra-dependencies rule.

Endpoints
---------
``GET /healthz``
    Liveness probe: version, engine version and the servable scenario
    kinds; servers started with ``--journal`` also report the journal
    path and row counts.
``GET /cache/stats``
    Snapshot of the result cache counters (hits, misses, evictions, ...).
``GET /cache/<key>``
    The cached payload under one SHA-256 content key, or ``404``.  This
    is the cluster-share endpoint: peers configured with
    ``--cache-peers`` fetch misses from here instead of recomputing.
    Only *local* tiers are consulted (never this node's own peers), so
    two nodes peered at each other cannot recurse.
``POST /evaluate``
    Body: one scenario spec dict (see :mod:`repro.service.spec`).
    Response: ``{"cached": bool, "key": sha256, "result": payload}``.
``POST /batch``
    Body: ``{"scenarios": [spec, ...], "max_workers"?: int,
    "shard_size"?: int}`` (or a bare JSON list of specs).
    Response: ``{"results": [...], "stats": batch counters,
    "cache": cache counters}``.
``POST /jobs``
    Same body as ``POST /batch``, but the batch runs asynchronously:
    responds ``202`` with ``{"job_id": ..., "path": "/jobs/<id>"}``
    immediately, so long grids never block the request thread.
``GET /jobs``
    Summaries of the retained jobs (id, state, progress, a
    ``recovered`` flag on journal-rehydrated ones) plus the
    ``evicted_jobs`` retention counter.
``GET /jobs/<id>``
    State plus partial progress counts while running; the full
    ``results``/``stats`` once done.  ``progress`` counts *unique*
    scenarios: ``total`` is the job's unique-key count from the first
    poll on, ``completed`` the unique keys resolved so far.  Unknown ids
    return ``404``.
``GET /jobs/<id>/rows``
    Streams the job's result rows *as they finish*, index-ordered, as
    Server-Sent Events (``id:`` = row index, ``event: row`` with
    ``{"index", "key", "result"}`` JSON, then a terminal ``event:
    done``).  Resume a broken stream with ``Last-Event-ID: <last row
    index>`` or ``?start=<index>`` — finished rows replay from the cache,
    bit-identical.  The body is EOF-terminated (``Connection: close``).
``GET /workers``
    Dispatch counters of the remote worker pool (coordinator nodes only;
    ``404`` when the server has no pool): per-worker liveness and
    completion counts, the live ``queue_depth`` of in-flight batches
    (backpressure signal) and, when a supervisor is running, its re-probe
    schedule.  Coordinators also merge shard-latency histograms: the
    ``shard_latency.client`` block is measured from this node's dispatch
    loop, ``shard_latency.worker_reported`` is bucket-summed from each
    live worker's own ``GET /metrics.json`` (cluster p50/p95/p99), and
    per-worker entries carry a ``straggler`` flag (p95 well above the
    cluster median — see :mod:`repro.service.telemetry`).
``GET /metrics``
    This process's metrics registry in Prometheus text exposition format
    (counters, gauges and log-bucket latency histograms — see
    :mod:`repro.service.telemetry` for the catalogue).
``GET /metrics.json``
    The same registry as JSON: mergeable histogram snapshots plus a
    ``since`` timestamp (a scraper seeing ``since`` move forward knows
    the process restarted and its counters reset).  This is the payload
    coordinators fetch to build the cluster-merged ``/workers`` view.
``GET /trace``
    Ids of the retained traces, oldest first.
``GET /trace/<trace_id>``
    The span tree of one trace as JSON (``404`` when unknown or already
    evicted from the bounded ring).  Batch jobs are traced under their
    job id, so ``GET /trace/<job_id>`` shows that job's batch span with
    one child span per executed shard.
``GET /trace/<trace_id>/chrome``
    The same trace as Chrome ``trace_event`` JSON — save it to a file
    and load it in ``chrome://tracing`` or https://ui.perfetto.dev.
``POST /experiments``
    Body: an experiment spec (see :class:`repro.experiment.Experiment`,
    ``name``/``seed``/``generators``/``strategies``/``metrics``).  The
    grid is compiled, deduped and evaluated through this server's
    scheduler (one batch, cache-backed); the response is the full
    artifact table — experiment metadata incl. ``content_hash``,
    ``columns``, ``rows``, batch ``stats`` and cache counters.

Malformed JSON bodies and invalid scenarios return ``400`` with
``{"error": message}`` (never a traceback); unknown paths and unknown job
ids ``404``.  All responses are strict JSON (non-finite floats are encoded
as the strings ``"inf"``/``"-inf"``/``"nan"``, exactly as the CLI
``--json`` flags emit them).

One transport: every request body is read as JSON whatever its
``Content-Type`` says, and every response is strict JSON (the row stream
is SSE with JSON ``data:`` lines).  Coordinator-to-worker shard traffic
is the same ``POST /batch`` a ``curl`` user sends; a body that does not
parse as JSON is a ``400``.

Keep-alive discipline (HTTP/1.1): error responses *drain* the unread
request body first (bounded by ``MAX_BODY_BYTES``) so the next pipelined
request on the same socket stays in sync, falling back to
``Connection: close`` when draining is impossible (oversize or chunked
bodies); and an unhandled exception in a handler always produces a
structured JSON 500 with ``Connection: close`` — never a silently
dropped request that strands the client until its read timeout.  Nagle
is disabled on accepted sockets: the header-flush-then-body write
pattern interacts with delayed ACKs into ~40 ms stalls per request on
reused connections, which would erase the entire win of pooling.

A server given ``workers=[...]`` acts as a *coordinator*: its scheduler
round-robins batch shards across those remote ``repro serve`` instances
and the local pool (see :mod:`repro.service.remote`).

A server given ``journal_path`` journals every job to SQLite and replays
the journal before binding: finished jobs are rehydrated, interrupted
jobs resume (see :mod:`repro.service.journal`).  :func:`run_server`
installs a SIGTERM handler so ``kill`` (systemd stop, container runtime)
checkpoints the journal and stops the supervisor exactly like Ctrl-C.
"""

from __future__ import annotations

import json
import signal
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Sequence, Tuple

from .. import __version__
from ..exceptions import ReproError
from ..reporting import render_json
from . import telemetry
from .cache import _KEY_CHARS, ResultCache
from .execute import ensure_executable, executor_for
from .journal import JobJournal
from .remote import RemoteWorkerPool
from .scheduler import ScenarioScheduler
from .spec import ENGINE_VERSION, spec_from_dict, spec_kinds
from .telemetry import MetricsRegistry, Tracer

__all__ = ["ScenarioServer", "create_server", "run_server"]

#: Upper bound on accepted request bodies; far above any realistic batch,
#: mostly a guard against unbounded reads on a public port.
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Exact paths that may appear as a ``path`` label on
#: ``repro_http_requests_total``.  Everything else is bucketed (ids and
#: keys into a placeholder, unknown paths into ``/:other``) so a scanner
#: probing random URLs cannot grow the label space without bound.
_METRIC_PATHS = frozenset(
    {
        "/healthz",
        "/cache/stats",
        "/jobs",
        "/workers",
        "/metrics",
        "/metrics.json",
        "/trace",
        "/evaluate",
        "/batch",
        "/experiments",
    }
)


def _metric_path(path: str) -> str:
    """Collapse a request path to a bounded-cardinality metric label."""
    # The query string never contributes label cardinality (and would
    # otherwise defeat the suffix checks below, e.g. ``/rows?start=7``).
    path = path.partition("?")[0]
    if path in _METRIC_PATHS:
        return path
    if path.startswith("/cache/"):
        return "/cache/:key"
    if path.startswith("/jobs/"):
        # The sub-resource must keep its own label: collapsing
        # ``/jobs/<id>/rows`` into ``/jobs/:id`` would fold streaming
        # traffic into the poll counter.
        return "/jobs/:id/rows" if path.endswith("/rows") else "/jobs/:id"
    if path.startswith("/trace/"):
        return "/trace/:id/chrome" if path.endswith("/chrome") else "/trace/:id"
    return "/:other"


def _optional_positive_int(body: dict, name: str):
    """Fetch an optional integer field, rejecting every other JSON type.

    ``POST /jobs`` runs its batch on a background thread, so a bad
    ``max_workers``/``shard_size`` that slips through here would 202 first
    and then kill the job with a raw ``TypeError`` — validation must happen
    at parse time, identically for ``/batch`` and ``/jobs``.  ``bool`` is
    explicitly excluded (it is an ``int`` subclass in Python but a
    different JSON type).
    """
    value = body.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"'{name}' must be an integer, got {type(value).__name__}"
        )
    if value < 1:
        raise ValueError(f"'{name}' must be positive, got {value}")
    return value


def _parse_batch_body(body):
    """Validate a ``/batch``-shaped body into ``(specs, max_workers, shard_size)``.

    Shared by the synchronous ``POST /batch`` and the asynchronous
    ``POST /jobs`` so both reject malformed requests identically (a bare
    JSON list of scenarios is accepted as shorthand).
    """
    if isinstance(body, list):
        body = {"scenarios": body}
    if not isinstance(body, dict):
        raise ValueError("batch body must be a JSON object or a list of scenarios")
    scenarios = body.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        raise ValueError("'scenarios' must be a non-empty list")
    specs = [spec_from_dict(item) for item in scenarios]
    # Registry-drift guard: a registered kind with no executor must 400 at
    # parse time — for ``/jobs`` the alternative is a 202 followed by a
    # background failure the client only discovers by polling.
    ensure_executable(specs)
    return (
        specs,
        _optional_positive_int(body, "max_workers"),
        _optional_positive_int(body, "shard_size"),
    )


class _ServiceHandler(BaseHTTPRequestHandler):
    server_version = f"repro-service/{__version__}"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: responses go out as two writes (header flush, then
    # body).  On a *reused* keep-alive socket Nagle holds the second
    # write until the first is ACKed, and the client's delayed ACK turns
    # every shard round-trip into a ~40 ms stall — persistent connections
    # made this visible.  Disabling Nagle restores sub-millisecond
    # round-trips; see PERFORMANCE.md ("Wire protocol").
    disable_nagle_algorithm = True

    # Per-request state, reset by :meth:`_guarded`.  Class-level defaults
    # keep direct calls (tests poking one handler method) safe.
    _body_consumed = False
    _response_started = False

    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict) -> None:
        """Send ``payload`` as strict JSON."""
        self._send_text(
            status,
            render_json(payload, indent=None),
            "application/json",
        )

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self._response_started = True
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _count_request(self, method: str, kind: str = "requests") -> None:
        key = (_metric_path(self.path), method, kind)
        counter = self.server.request_counters.get(key)
        if counter is None:
            scheduler: ScenarioScheduler = self.server.scheduler
            help_text = (
                "HTTP requests served, by normalized path and method "
                "(ids/keys collapsed, unknown paths bucketed as /:other)."
                if kind == "requests"
                else "Unhandled handler exceptions turned into structured "
                "500s, by normalized path and method."
            )
            counter = self.server.request_counters[key] = scheduler.metrics.counter(
                f"repro_http_{kind}_total",
                {"path": key[0], "method": method},
                help=help_text,
            )
        counter.inc()

    def _discard_body(self) -> None:
        """Consume an unread request body so keep-alive stays in sync.

        Under HTTP/1.1 an error response that leaves the body on the
        socket desyncs the connection: the unread bytes get parsed as the
        next request line.  Drain what can be drained (bounded by
        ``MAX_BODY_BYTES``); when draining is impossible or unreasonable —
        chunked encoding, oversize body, garbage ``Content-Length``, a
        short read — fall back to ``Connection: close``.
        """
        if self._body_consumed:
            return
        self._body_consumed = True
        if "chunked" in (self.headers.get("Transfer-Encoding") or "").lower():
            self.close_connection = True
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.close_connection = True
            return
        if length <= 0:
            return
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            return
        try:
            remaining = length
            while remaining > 0:
                chunk = self.rfile.read(min(remaining, 1 << 16))
                if not chunk:
                    self.close_connection = True
                    return
                remaining -= len(chunk)
        except OSError:
            self.close_connection = True

    def _read_json_body(self):
        """Read and decode the JSON request body.

        Raises ``ValueError`` (``UnicodeDecodeError`` included) on any
        malformed body — by which point the declared ``Content-Length``
        has been consumed, so the connection stays reusable.
        """
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ValueError("request body required")
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        if len(raw) == length:
            self._body_consumed = True
        return json.loads(raw.decode("utf-8"))

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._guarded("GET", self._handle_get)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._guarded("POST", self._handle_post)

    def _guarded(self, method: str, handler) -> None:
        """Run one handler with last-resort error and body hygiene.

        An unhandled exception must never strand a keep-alive client with
        no response at all (it would block until its full read timeout):
        whatever escapes the handler becomes a structured JSON 500 with
        ``Connection: close``, counted under ``repro_http_errors_total``.
        If the response was already partially written, closing the
        connection is the only way left to resync.  Either way, any
        unread request body is drained (or the connection closed) before
        the next request is parsed off the socket.
        """
        self._body_consumed = False
        self._response_started = False
        self._count_request(method)
        try:
            handler()
        except Exception as error:
            self._count_request(method, kind="errors")
            self.close_connection = True
            if self._response_started:
                return  # headers on the wire: closing is the only resync
            self._discard_body()
            try:
                self._send_json(500, {"error": f"internal error: {error}"})
            except OSError:  # pragma: no cover - client already gone
                pass
        finally:
            self._discard_body()

    def _handle_get(self) -> None:
        scheduler: ScenarioScheduler = self.server.scheduler
        if self.path == "/healthz":
            payload = {
                "status": "ok",
                "version": __version__,
                "engine_version": scheduler.engine_version,
                "kinds": list(spec_kinds()),
            }
            if scheduler.journal is not None:
                payload["journal"] = scheduler.journal.counts()
            self._send_json(200, payload)
        elif self.path == "/cache/stats":
            self._send_json(200, scheduler.cache.stats().to_dict())
        elif self.path.startswith("/cache/"):
            key = self.path[len("/cache/") :]
            if len(key) != 64 or not set(key) <= _KEY_CHARS:
                # Keys are SHA-256 hex digests; reject anything else before
                # it reaches the disk tier's path construction.
                self._send_json(404, {"error": f"malformed cache key {key!r}"})
                return
            payload = scheduler.cache.get_local(key)
            if payload is None:
                self._send_json(404, {"error": f"key {key!r} not cached here"})
            else:
                self._send_json(200, {"key": key, "result": payload})
        elif self.path == "/jobs":
            self._send_json(
                200,
                {
                    "jobs": [
                        job.to_dict(include_results=False)
                        for job in scheduler.jobs()
                    ],
                    "evicted_jobs": scheduler.evicted_jobs,
                },
            )
        elif self.path.startswith("/jobs/"):
            path, _sep, query = self.path.partition("?")
            rest = path[len("/jobs/") :]
            if rest.endswith("/rows"):
                self._handle_job_rows(
                    scheduler, rest[: -len("/rows")], query
                )
                return
            job = scheduler.get_job(rest)
            if job is None:
                self._send_json(404, {"error": f"unknown job {rest!r}"})
            else:
                self._send_json(200, job.to_dict())
        elif self.path == "/workers":
            if scheduler.worker_pool is None:
                self._send_json(
                    404, {"error": "this server has no remote worker pool"}
                )
            else:
                self._send_json(200, self._workers_payload(scheduler))
        elif self.path == "/metrics":
            self._send_text(
                200,
                scheduler.metrics.render_prometheus(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif self.path == "/metrics.json":
            self._send_json(200, scheduler.metrics.snapshot())
        elif self.path == "/trace":
            self._send_json(200, {"traces": scheduler.tracer.trace_ids()})
        elif self.path.startswith("/trace/"):
            rest = self.path[len("/trace/") :]
            chrome = rest.endswith("/chrome")
            trace_id = rest[: -len("/chrome")] if chrome else rest
            payload = (
                scheduler.tracer.chrome_trace(trace_id)
                if chrome
                else scheduler.tracer.span_tree(trace_id)
            )
            if payload is None:
                self._send_json(
                    404,
                    {
                        "error": f"no trace {trace_id!r} (unknown id, or "
                        "evicted from the bounded trace ring)"
                    },
                )
            else:
                self._send_json(200, payload)
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def _handle_job_rows(
        self, scheduler: ScenarioScheduler, job_id: str, query: str
    ) -> None:
        """``GET /jobs/<id>/rows``: stream result rows as they land.

        Each finished row goes out the moment its shard completes, as a
        Server-Sent-Events stream (``id:`` = row index, ``event: row``,
        one JSON object per ``data:`` line, a terminal ``event: done``).
        The body is EOF-terminated (no ``Content-Length``), so the response
        always closes the connection.

        Resume: ``Last-Event-ID: <index>`` restarts *after* that row (the
        SSE reconnect contract), ``?start=<index>`` restarts *at* it; the
        query parameter wins when both are present.  Rows of a finished —
        or journal-recovered — job replay from the cache, so a resumed
        stream is bit-identical to an uninterrupted one.
        """
        job = scheduler.get_job(job_id)
        if job is None:
            self._send_json(404, {"error": f"unknown job {job_id!r}"})
            return
        start = 0
        last_event = self.headers.get("Last-Event-ID")
        if last_event is not None:
            try:
                start = int(last_event) + 1
            except ValueError:
                self._send_json(
                    400, {"error": f"invalid Last-Event-ID {last_event!r}"}
                )
                return
        for param in query.split("&"):
            name, _sep, value = param.partition("=")
            if name != "start":
                continue
            try:
                start = int(value)
            except ValueError:
                self._send_json(400, {"error": f"invalid start {value!r}"})
                return
        if start < 0:
            self._send_json(400, {"error": f"start must be >= 0, got {start}"})
            return

        def emit(index: Optional[int], event: str, payload: dict) -> None:
            data = render_json(payload, indent=None)
            head = f"id: {index}\n" if index is not None else ""
            self.wfile.write(
                f"{head}event: {event}\ndata: {data}\n\n".encode("utf-8")
            )
            self.wfile.flush()

        # No Content-Length: the stream ends at EOF, so this connection
        # cannot be reused for a next request.
        self.close_connection = True
        self._response_started = True
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        counter = self.server.rows_streamed_total
        try:
            try:
                for index, key, payload in job.iter_rows(start):
                    emit(index, "row", {"index": index, "key": key, "result": payload})
                    counter.inc()
            except ReproError as error:
                # The job failed mid-stream; headers are long gone, so the
                # error travels in-band as the terminal event.
                emit(None, "done", {"state": "error", "error": str(error)})
            else:
                # The last row can be published before the batch thread
                # flips the job's state; the terminal event reports the
                # terminal state, so wait for it.
                job.wait()
                status = job.to_dict(include_results=False)
                if status["state"] == "error":
                    done = {"state": "error", "error": status["error"]}
                else:
                    done = {"state": status["state"], "num_rows": job.num_scenarios}
                emit(None, "done", done)
        except OSError:
            # Client disconnected mid-stream.  The generator's subscriber
            # state dies with this request thread; the job itself keeps
            # running to completion.
            pass

    @staticmethod
    def _workers_payload(scheduler: ScenarioScheduler) -> dict:
        """Pool stats plus the cluster-merged worker-side latency view.

        ``shard_latency.client`` (from :meth:`RemoteWorkerPool.stats`) is
        what *this coordinator observed* per shard — queue, network and
        worker time together.  ``worker_reported`` re-merges each live
        worker's own ``repro_worker_batch_seconds`` histogram (scraped
        from ``GET /metrics.json``, best effort), i.e. pure server-side
        evaluation time with the network excluded; comparing the two
        blocks separates slow workers from a slow network.
        """
        pool = scheduler.worker_pool
        payload = pool.stats()
        snapshots = pool.metrics_snapshots()
        reported = []
        for snapshot in snapshots:
            if not isinstance(snapshot, dict):
                continue
            histograms = snapshot.get("histograms")
            if not isinstance(histograms, list):
                continue
            # Histogram entries are flat: {"name", "labels", "buckets",
            # "sum", "count"} — merge_histograms reads the bucket keys and
            # ignores the rest.
            matches = [
                entry
                for entry in histograms
                if isinstance(entry, dict)
                and entry.get("name") == "repro_worker_batch_seconds"
            ]
            if matches:
                reported.append(telemetry.merge_histograms(matches))
        merged = telemetry.merge_histograms(reported)
        shard_latency = payload.setdefault("shard_latency", {})
        shard_latency["worker_reported"] = dict(
            telemetry.summarize_histogram(merged),
            histogram=merged,
            workers_reporting=len(reported),
            workers_probed=len(snapshots),
        )
        return payload

    def _handle_post(self) -> None:
        scheduler: ScenarioScheduler = self.server.scheduler
        try:
            body = self._read_json_body()
        except ValueError as error:
            # The body may be partially (or not at all) consumed; drain it
            # so the keep-alive connection stays in sync for the next
            # request (closing instead only when draining is impossible —
            # see _discard_body).
            self._discard_body()
            self._send_json(400, {"error": f"invalid JSON body: {error}"})
            return
        try:
            if self.path == "/evaluate":
                spec = spec_from_dict(body)
                executor_for(spec.kind)
                payload, cached = scheduler.evaluate(spec)
                self._send_json(
                    200,
                    {
                        "cached": cached,
                        "key": spec.cache_key(scheduler.engine_version),
                        "result": payload,
                    },
                )
            elif self.path == "/batch":
                specs, max_workers, shard_size = _parse_batch_body(body)
                # Server-side wall time of the whole evaluation.  On a
                # worker node this is the per-shard latency *excluding* the
                # network — the series a coordinator scrapes (via
                # /metrics.json) and bucket-merges into the
                # ``worker_reported`` block of its own GET /workers view.
                batch_start = time.monotonic()
                batch = scheduler.run_batch(
                    specs, max_workers=max_workers, shard_size=shard_size
                )
                self.server.worker_batch_seconds.observe(
                    time.monotonic() - batch_start
                )
                # Shard dispatchers (RemoteWorker) set results_only: the
                # stats/cache blocks are diagnostics for humans, and
                # encoding + decoding them on every shard round-trip is
                # measurable against a sub-millisecond dispatch budget.
                if isinstance(body, dict) and body.get("results_only") is True:
                    self._send_json(200, {"results": list(batch.results)})
                    return
                self._send_json(
                    200,
                    {
                        "results": list(batch.results),
                        "stats": batch.to_dict(),
                        "cache": scheduler.cache.stats().to_dict(),
                    },
                )
            elif self.path == "/jobs":
                specs, max_workers, shard_size = _parse_batch_body(body)
                job = scheduler.submit_job(
                    specs, max_workers=max_workers, shard_size=shard_size
                )
                self._send_json(
                    202,
                    {
                        "job_id": job.job_id,
                        "state": job.state,
                        "num_scenarios": job.num_scenarios,
                        "path": f"/jobs/{job.job_id}",
                    },
                )
            elif self.path == "/experiments":
                # Imported lazily: repro.experiment pulls in the scheduler,
                # which lives in this package — a module-level import here
                # would close the cycle.
                from ..experiment import Experiment

                plan = Experiment.from_spec(body).compile()
                result = plan.run(scheduler=scheduler)
                self._send_json(200, result.to_dict())
            else:
                self._send_json(404, {"error": f"unknown path {self.path!r}"})
        except (ReproError, ValueError, KeyError, TypeError) as error:
            self._send_json(400, {"error": str(error)})
        # Anything else falls through to _guarded's structured 500 with
        # Connection: close (and the repro_http_errors_total counter).


class ScenarioServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`ScenarioScheduler`.

    Thread-per-request on top of a process-pool scheduler: request handling
    is I/O-light, the heavy evaluation happens in worker processes, and the
    shared :class:`~repro.service.cache.ResultCache` is thread-safe.
    """

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        scheduler: ScenarioScheduler,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, _ServiceHandler)
        self.scheduler = scheduler
        self.verbose = verbose
        #: Summary dict from the startup journal replay (``None`` when the
        #: server was not built with a journal); see
        #: :meth:`ScenarioScheduler.recover_jobs`.
        self.recovery: Optional[Dict[str, int]] = None
        #: Per-(path, method) request counters, bound on first use —
        #: registry label canonicalisation is measurable at one lookup per
        #: request when this node serves shards.  Benign race: concurrent
        #: first requests resolve to the same registry instrument.
        self.request_counters: Dict[Tuple[str, str], object] = {}
        self.worker_batch_seconds = scheduler.metrics.histogram(
            "repro_worker_batch_seconds",
            help="Server-side wall time of POST /batch evaluations "
            "(shard latency minus the network, when this node "
            "serves as a remote worker).",
        )
        self.rows_streamed_total = scheduler.metrics.counter(
            "repro_rows_streamed_total",
            help="Result rows delivered over GET /jobs/<id>/rows streams "
            "(summed across subscribers; resumed rows count again).",
        )

    @property
    def url(self) -> str:
        """A *dialable* base URL of the bound socket.

        A wildcard bind (``0.0.0.0``, ``::``) is a listen address, not a
        destination — printing it verbatim produced URLs that cannot be
        copy-pasted into ``--workers``.  Substitute the matching loopback
        host (and bracket IPv6 literals).  ``port=0`` reflects the
        OS-assigned ephemeral port.
        """
        host, port = self.server_address[:2]
        if host in ("0.0.0.0", ""):
            host = "127.0.0.1"
        elif host in ("::", "::0"):
            host = "::1"
        if ":" in host:
            host = f"[{host}]"
        return f"http://{host}:{port}"

    def server_close(self) -> None:
        """Close the socket, stop the supervisor, checkpoint the journal.

        Also shuts down the scheduler's local process pool.
        """
        super().server_close()
        self.scheduler.close()
        pool = getattr(self.scheduler, "worker_pool", None)
        if pool is not None:
            # close() also drops the pool's idle keep-alive connections,
            # so a coordinator shutdown never leaks sockets.
            pool.close()
        journal = getattr(self.scheduler, "journal", None)
        if journal is not None:
            # close() checkpoints the WAL first, so a clean shutdown leaves
            # a single compact journal file behind.
            journal.close()


def create_server(
    host: str = "127.0.0.1",
    port: int = 0,
    scheduler: Optional[ScenarioScheduler] = None,
    cache: Optional[ResultCache] = None,
    verbose: bool = False,
    workers: Optional[Sequence[str]] = None,
    reprobe_interval: Optional[float] = None,
    worker_timeout: Optional[float] = None,
    worker_connect_timeout: Optional[float] = None,
    journal_path: Optional[str] = None,
    cache_peers: Optional[Sequence[str]] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> ScenarioServer:
    """Build a :class:`ScenarioServer` (``port=0`` binds an ephemeral port).

    ``workers`` (a sequence of ``repro serve`` base URLs) turns the server
    into a coordinator that dispatches batch shards across those remote
    workers and the local pool; ignored when an explicit ``scheduler`` is
    supplied.  ``worker_timeout``/``worker_connect_timeout`` bound one
    shard's response read and the TCP dial separately (a hung worker costs
    the connect budget, not the full read budget, before failover).
    ``reprobe_interval`` (> 0) starts a
    :class:`~repro.service.remote.WorkerSupervisor` that re-probes dead
    workers in the background with exponential backoff, so a long-running
    coordinator heals restarted workers without a restart of its own; the
    supervisor also attaches to an explicitly supplied ``scheduler``'s
    pool.  It stops with :meth:`ScenarioServer.server_close`.

    ``journal_path`` makes the coordinator durable: jobs are journaled to
    that SQLite file and the journal is replayed *before* this function
    returns (finished jobs rehydrated, interrupted jobs resumed — the
    summary lands in :attr:`ScenarioServer.recovery`).  ``cache_peers``
    (base URLs of other ``repro serve`` nodes) makes local cache misses
    consult the cluster before recomputing.  Both are ignored when an
    explicit ``scheduler`` is supplied — its own cache/journal win.

    ``metrics``/``tracer`` give the built scheduler private telemetry
    sinks (test isolation); by default it shares the process-wide
    registry/tracer from :mod:`repro.service.telemetry`, which is what
    ``GET /metrics`` and ``GET /trace/<id>`` serve.  Also ignored when
    an explicit ``scheduler`` is supplied.
    """
    recovery: Optional[Dict[str, int]] = None
    if scheduler is None:
        pool = None
        if workers:
            pool_kwargs = {}
            if worker_timeout is not None:
                pool_kwargs["timeout"] = worker_timeout
            if worker_connect_timeout is not None:
                pool_kwargs["connect_timeout"] = worker_connect_timeout
            pool = RemoteWorkerPool(list(workers), **pool_kwargs)
        if cache is None and cache_peers:
            cache = ResultCache(peers=list(cache_peers))
        journal = JobJournal(journal_path) if journal_path is not None else None
        scheduler = ScenarioScheduler(
            cache=cache,
            workers=pool,
            journal=journal,
            metrics=metrics,
            tracer=tracer,
        )
        if journal is not None:
            recovery = scheduler.recover_jobs()
    server = ScenarioServer((host, port), scheduler, verbose=verbose)
    server.recovery = recovery
    pool = scheduler.worker_pool
    if pool is not None and reprobe_interval is not None and reprobe_interval > 0:
        pool.start_supervisor(reprobe_interval=reprobe_interval)
    return server


def run_server(server: ScenarioServer) -> None:
    """Serve until KeyboardInterrupt or SIGTERM, then shut down cleanly.

    The SIGTERM handler (installed only when running on the main thread)
    raises :class:`SystemExit`, which funnels ``kill``/container stops
    through the same path as Ctrl-C: supervisor stopped, journal
    checkpointed and closed, socket released.  The previous handler is
    restored on the way out.
    """

    def _terminate(signum, frame):  # pragma: no cover - signal path
        raise SystemExit(0)

    previous = None
    try:
        previous = signal.signal(signal.SIGTERM, _terminate)
    except ValueError:
        # Not the main thread (e.g. a test harness serving in a worker
        # thread): signals stay with whoever owns the main thread.
        previous = None
    try:
        server.serve_forever()
    except (KeyboardInterrupt, SystemExit):  # pragma: no cover - shutdown
        pass
    finally:
        if previous is not None:
            try:
                signal.signal(signal.SIGTERM, previous)
            except ValueError:  # pragma: no cover - defensive
                pass
        server.server_close()
