"""The three benchmark workloads, each a closed loop with one operation in flight.

``grid_cold``
    ``ScenarioScheduler().run_batch(batch, max_workers=1)`` on 16-scenario
    batches of new scenarios.  The engines do nearly all the work
    (strategies, geometry, simulation, faults); it is the single-threaded
    baseline, and every scenario also takes the cache's miss and put path,
    with LRU eviction once 1024 entries are stored.
``grid_warm``
    The default in-process scheduler replays a 512-scenario working set
    (half the default cache capacity) computed during set-up: each
    operation is 256 scenarios drawn with replacement, all cache hits, the
    duplicates deduplicated.  The engines are idle; spec hashing, the
    cache's memory tier and scheduler bookkeeping do all the work.
``cluster_stream``
    A ``repro serve`` worker and a ``repro serve --workers`` coordinator
    run as subprocesses with default flags.  Each operation is a
    ``POST /jobs`` of 24 new scenarios with a default body, then
    ``GET /jobs/<id>/rows`` read as server-sent events up to the terminal
    event.  The only path through the HTTP server, dispatch to remote
    workers, the process pools, the wire codec and the row stream.
"""

from __future__ import annotations

import http.client
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.sweep import make_row_pool, suggest_shard_size
from repro.service import ScenarioScheduler, ScenarioSpec
from repro.service import wire
from repro.service.telemetry import histogram_percentile

from .checks import IdentityChecker, row_problems
from .inputs import DIGEST_OPS, HEAVY, LIGHT, Budget, batch_stream, digest
from .trace import SpanTracer, engine_layer_metrics, engine_tracer


@dataclass
class OpResult:
    scenarios: int
    latency: float
    first_row: float


#: An operation's correctness checks, returning its problems.  Each
#: workload's ``op`` returns one next to its :class:`OpResult`; the runner
#: calls it after the operation, outside its timing and its trace, and
#: drops it (it holds the operation's payloads).
Verify = Callable[[], List[str]]


def _peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _stream_inputs(seed: int, name: str, size: int, budget: Budget):
    """A workload's batch stream, its first :data:`DIGEST_OPS` batches and
    their hash."""
    stream = batch_stream(seed, name, size, budget)
    prefix = [next(stream) for _ in range(DIGEST_OPS)]
    return stream, prefix, digest([[spec.to_dict() for spec in b] for b in prefix])


class _InProcess:
    """Shared shape of the two in-process scheduler workloads."""

    name = ""
    #: Operations per throughput window.
    window = 8
    #: Probes taken between two operations.
    probes_per_gap = 1
    warmup_ops = 2
    #: The work runs in this process: probes run unpinned, next to it.
    multi_process = False
    serving_pids: Sequence[int] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.sample_rng = np.random.default_rng([seed, 7])
        self.identity = IdentityChecker()
        self.scheduler: Optional[ScenarioScheduler] = None

    def tracer(self) -> SpanTracer:
        return engine_tracer()

    def teardown(self) -> None:
        self.scheduler = None

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb()

    def _run(
        self, batch: List[ScenarioSpec], batch_problems, **kwargs
    ) -> Tuple[OpResult, Verify]:
        """Time one ``run_batch``; ``batch_problems(result)`` adds the
        workload's own checks on the batch counters."""
        first: List[float] = []

        def on_rows(_rows) -> None:
            if not first:
                first.append(time.perf_counter())

        start = time.perf_counter()
        result = self.scheduler.run_batch(batch, on_rows=on_rows, **kwargs)
        end = time.perf_counter()

        def verify() -> List[str]:
            problems = row_problems(batch, result.results) + batch_problems(result)
            if result.results:
                index = int(self.sample_rng.integers(len(batch)))
                problems += self.identity.problems(batch[index], result.results[index])
            return problems

        first_row = (first[0] if first else end) - start
        return OpResult(len(batch), end - start, first_row), verify

    def start_layer_window(self) -> None:
        pass

    def layer_metrics(
        self, tracer: SpanTracer, factors: Dict[int, float], traced_ids: Sequence[int],
        measured_ops: int,
    ) -> Dict[str, float]:
        return engine_layer_metrics(tracer, factors, len(traced_ids))


class GridCold(_InProcess):
    name = "grid_cold"
    BATCH = 16

    def make_inputs(self) -> None:
        self.stream, self.prefix, self.digest = _stream_inputs(
            self.seed, self.name, self.BATCH, LIGHT
        )

    def setup(self) -> None:
        self.scheduler = ScenarioScheduler()
        self.make_inputs()

    def op(self, index: int) -> Tuple[OpResult, Verify]:
        batch = self.prefix[index] if index < len(self.prefix) else next(self.stream)

        def all_new(result) -> List[str]:
            if result.cache_hits == 0 and result.evaluated == len(batch):
                return []
            return [
                f"cold batch had {result.cache_hits} cache hits, "
                f"{result.evaluated} evaluations"
            ]

        return self._run(batch, all_new, max_workers=1)


class GridWarm(_InProcess):
    name = "grid_warm"
    window = 16
    WORKING_SET = 512
    BATCH = 256

    def make_inputs(self) -> None:
        stream = batch_stream(self.seed, self.name, 16)
        self.working = [
            spec for _ in range(self.WORKING_SET // 16) for spec in next(stream)
        ]
        self.draws = np.random.default_rng([self.seed, 11])
        self.prefix = [self._draw() for _ in range(DIGEST_OPS)]
        self.digest = digest(
            [[spec.to_dict() for spec in self.working], [d.tolist() for d in self.prefix]]
        )

    def setup(self) -> None:
        self.scheduler = ScenarioScheduler()
        self.make_inputs()
        computed = self.scheduler.run_batch(self.working, max_workers=1)
        if computed.evaluated != self.WORKING_SET:
            raise RuntimeError(f"working set evaluated {computed.evaluated} scenarios")

    def _draw(self):
        return self.draws.integers(self.WORKING_SET, size=self.BATCH)

    def op(self, index: int) -> Tuple[OpResult, Verify]:
        draw = self.prefix[index] if index < len(self.prefix) else self._draw()
        batch = [self.working[i] for i in draw]

        def all_cached(result) -> List[str]:
            if result.evaluated == 0 and result.cache_hits == result.num_unique:
                return []
            return [f"warm batch evaluated {result.evaluated} scenarios"]

        return self._run(batch, all_cached)


# ----------------------------------------------------------------------
class _Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, args: Sequence[str], env: Dict[str, str]) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        banner = self.process.stdout.readline().strip()
        if not banner.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"unexpected banner {banner!r}")
        self.url = banner.split()[-1]
        parsed = urllib.parse.urlsplit(self.url)
        self.host, self.port = parsed.hostname, parsed.port
        # Keep draining stdout so the server can never block on a full pipe.
        self._drain = threading.Thread(
            target=lambda: [None for _line in self.process.stdout], daemon=True
        )
        self._drain.start()

    @property
    def pid(self) -> int:
        return self.process.pid

    def request(self, method: str, path: str, body: Optional[dict] = None):
        """One request on a fresh connection: ``(status, decoded JSON)``."""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            data = None if body is None else json.dumps(body).encode()
            headers = {"Content-Type": "application/json"} if data else {}
            connection.request(method, path, body=data, headers=headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            connection.close()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=20)
        drain = getattr(self, "_drain", None)
        if drain is not None:
            drain.join(timeout=20)
        self.process.stdout.close()


def _sse_events(response):
    """``(event, data)`` pairs of a server-sent-events response."""
    event, data = None, None
    while True:
        raw = response.readline()
        if not raw:
            return
        line = raw.decode("utf-8").rstrip("\n")
        if line.startswith("event: "):
            event = line[len("event: ") :]
        elif line.startswith("data: "):
            data = json.loads(line[len("data: ") :])
        elif not line and event is not None:
            yield event, data
            event, data = None, None


def _pool_task() -> int:
    return os.getpid()


class ClusterStream:
    name = "cluster_stream"
    window = 2
    probes_per_gap = 5
    warmup_ops = 1
    multi_process = True
    JOB = 24
    #: Rows per job compared byte for byte with a direct execution.
    IDENTITY_SAMPLES = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.sample_rng = np.random.default_rng([seed, 7])
        self.identity = IdentityChecker()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.abspath("src")
        self.worker: Optional[_Server] = None
        self.coordinator: Optional[_Server] = None
        self.done_state_running = 0
        self.submit_times: Dict[int, float] = {}
        self.shard_bodies: List[dict] = []
        self._telemetry_start: Optional[dict] = None

    @property
    def serving_pids(self) -> List[int]:
        return [server.pid for server in (self.coordinator, self.worker) if server]

    def setup(self) -> None:
        self.worker = _Server([], self.env)
        self.coordinator = _Server(["--workers", self.worker.url], self.env)
        status, health = self.coordinator.request("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"coordinator unhealthy: {status} {health}")
        self.make_inputs()

    def make_inputs(self) -> None:
        self.stream, self.prefix, self.digest = _stream_inputs(
            self.seed, self.name, self.JOB, HEAVY
        )

    def teardown(self) -> None:
        for server in (self.coordinator, self.worker):
            if server is not None:
                server.stop()
        self.coordinator = self.worker = None

    def peak_rss_mb(self) -> float:
        return sum(_peak_rss_mb(str(pid)) for pid in self.serving_pids)

    def tracer(self) -> SpanTracer:
        # The layers run in the servers, whose own telemetry reports them.
        return SpanTracer()

    def op(self, index: int) -> Tuple[OpResult, Verify]:
        batch = self.prefix[index] if index < len(self.prefix) else next(self.stream)
        body = {"scenarios": [spec.to_dict() for spec in batch]}
        coordinator = self.coordinator
        connection = http.client.HTTPConnection(
            coordinator.host, coordinator.port, timeout=120
        )
        rows: List[Optional[dict]] = [None] * len(batch)
        keys: List[Optional[str]] = [None] * len(batch)
        problems: List[str] = []
        done = None
        first_row = None
        start = time.perf_counter()
        try:
            connection.request(
                "POST", "/jobs", body=json.dumps(body).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            submitted = json.loads(response.read())
            self.submit_times[index] = time.perf_counter() - start
            if response.status != 202:
                raise RuntimeError(f"POST /jobs answered {response.status}: {submitted}")
            connection.request("GET", submitted["path"] + "/rows")
            response = connection.getresponse()
            if response.status != 200:
                raise RuntimeError(f"GET rows answered {response.status}")
            for event, data in _sse_events(response):
                if event == "row":
                    if first_row is None:
                        first_row = time.perf_counter() - start
                    row_index = data.get("index")
                    if not isinstance(row_index, int) or not 0 <= row_index < len(batch):
                        problems.append(f"row index {row_index!r} out of range")
                    elif rows[row_index] is not None:
                        problems.append(f"row {row_index} streamed twice")
                    else:
                        keys[row_index] = data.get("key")
                        rows[row_index] = data.get("result")
                elif event == "done":
                    done = data
                    break
        finally:
            connection.close()
        latency = time.perf_counter() - start

        def verify() -> List[str]:
            if done is None:
                problems.append("stream ended without a terminal event")
            elif done.get("state") not in ("done", "running") or done.get(
                "num_rows"
            ) != len(batch):
                problems.append(f"terminal event {done}")
            elif done.get("state") == "running":
                # The terminal event can race the job's own state flip;
                # counted, not failed, so the defect stays visible.
                self.done_state_running += 1
            problems.extend(
                f"row {i} carries the wrong key"
                for i, (spec, key) in enumerate(zip(batch, keys))
                if key is not None and key != spec.cache_key()
            )
            problems.extend(row_problems(batch, rows))
            for sample in self.sample_rng.choice(len(batch), self.IDENTITY_SAMPLES, replace=False):
                if rows[sample] is not None:
                    problems.extend(self.identity.problems(batch[sample], rows[sample]))
            if len(self.shard_bodies) < 64 and all(row is not None for row in rows):
                self._capture_shards(batch, rows)
            return problems

        return OpResult(len(batch), latency, first_row if first_row else latency), verify

    def _capture_shards(self, batch: Sequence[ScenarioSpec], rows: Sequence[dict]) -> None:
        """Keep the job's shard request and response bodies for codec replay.

        Shards are cut the way the coordinator cuts them by default: a few
        per executor (the local pool's CPUs plus one remote worker).
        """
        size = suggest_shard_size(len(batch), (os.cpu_count() or 1) + 1)
        for lo in range(0, len(batch), size):
            self.shard_bodies.append(
                {"scenarios": [spec.to_dict() for spec in batch[lo : lo + size]],
                 "results_only": True}
            )
            self.shard_bodies.append({"results": list(rows[lo : lo + size])})

    # ------------------------------------------------------------------
    def telemetry(self) -> dict:
        _status, workers = self.coordinator.request("GET", "/workers")
        _status, metrics = self.coordinator.request("GET", "/metrics.json")
        return {"workers": workers, "metrics": metrics}

    def start_layer_window(self) -> None:
        self._telemetry_start = self.telemetry()

    def layer_metrics(
        self, tracer: SpanTracer, factors: Dict[int, float], traced_ids: Sequence[int],
        measured_ops: int,
    ) -> Dict[str, float]:
        """Server-side layers from the coordinator's telemetry, plus codec replay.

        Counters and histograms are differences between the start and the
        end of the measured operations, traced or not (tracing in this
        process does not touch the servers).
        """
        scale = _typical_factor(factors)
        start, end = self._telemetry_start, self.telemetry()
        ops = max(1, measured_ops)

        def counter(snapshot: dict, name: str, **labels) -> float:
            return sum(
                entry["value"]
                for entry in snapshot["metrics"]["counters"]
                if entry["name"] == name
                and all(entry["labels"].get(k) == v for k, v in labels.items())
            )

        def delta(name: str, **labels) -> float:
            return counter(end, name, **labels) - counter(start, name, **labels)

        def hist_delta(path: Sequence[str]) -> dict:
            def get(snapshot):
                node = snapshot["workers"]
                for part in path:
                    node = node[part]
                return node

            before, after = get(start), get(end)
            return {
                "buckets": [a - b for a, b in zip(after["buckets"], before["buckets"])],
                "count": after["count"] - before["count"],
                "sum": after["sum"] - before["sum"],
            }

        remote_shards = end["workers"]["remote_shards"] - start["workers"]["remote_shards"]
        remote_specs = end["workers"]["remote_specs"] - start["workers"]["remote_specs"]
        dials = delta("repro_remote_connections_total", event="dial")
        reuses = delta("repro_remote_connections_total", event="reuse")
        redials = delta("repro_remote_connections_total", event="redial")
        wire_bytes = delta("repro_remote_wire_bytes_total")
        submits = [self.submit_times[i] * factors.get(i, scale) for i in traced_ids]
        metrics = {
            "server.submit_ms": _median_or_zero(submits) * 1e3,
            "remote.shard_rtt_ms": histogram_percentile(
                hist_delta(("shard_latency", "client", "histogram")), 0.5
            ) * 1e3 * scale,
            "remote.worker_shard_ms": histogram_percentile(
                hist_delta(("shard_latency", "worker_reported", "histogram")), 0.5
            ) * 1e3 * scale,
            "remote.shards_per_op": remote_shards / ops,
            "remote.reuse_fraction": reuses / (dials + reuses + redials)
            if dials + reuses + redials
            else 0.0,
            "remote.wire_bytes_per_scenario": wire_bytes / remote_specs
            if remote_specs
            else 0.0,
            "stream.done_state_running": float(self.done_state_running),
            "sweep.pool_start_ms": self.pool_start_s() * 1e3 * scale,
        }
        metrics.update(codec_metrics(self.shard_bodies, scale))
        return metrics

    @staticmethod
    def pool_start_s(repeats: int = 3) -> float:
        """``make_row_pool`` plus its first task, the way a serving process
        starts a pool: with other threads alive, so under forkserver."""
        stop = threading.Event()
        keeper = threading.Thread(target=stop.wait, daemon=True)
        keeper.start()
        times = []
        try:
            for attempt in range(repeats + 1):
                start = time.perf_counter()
                pool = make_row_pool(2, 2)
                if pool is None:
                    raise RuntimeError("make_row_pool declined to build a pool")
                try:
                    pool.submit(_pool_task).result(timeout=60)
                    elapsed = time.perf_counter() - start
                finally:
                    pool.shutdown()
                if attempt:  # the first also starts the forkserver itself
                    times.append(elapsed)
        finally:
            stop.set()
            keeper.join(timeout=5)
        return _median_or_zero(times)


def _median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _typical_factor(factors: Dict[int, float]) -> float:
    """The run's typical normalisation factor (median over operations)."""
    return _median_or_zero(list(factors.values())) or 1.0


def codec_metrics(bodies: Sequence[dict], scale: float) -> Dict[str, float]:
    """Replay shard bodies through the binary wire codec and through JSON."""
    encode, decode, json_codec = [], [], []
    for body in bodies:
        start = time.perf_counter()
        frame = wire.encode_frame(body)
        middle = time.perf_counter()
        wire.decode_frame(frame)
        end = time.perf_counter()
        encode.append(middle - start)
        decode.append(end - middle)
        start = time.perf_counter()
        json.loads(json.dumps(body).encode("utf-8"))
        json_codec.append(time.perf_counter() - start)
    return {
        "wire.encode_us": _median_or_zero(encode) * 1e6 * scale,
        "wire.decode_us": _median_or_zero(decode) * 1e6 * scale,
        "json.codec_us": _median_or_zero(json_codec) * 1e6 * scale,
    }


WORKLOADS = {cls.name: cls for cls in (GridCold, GridWarm, ClusterStream)}
