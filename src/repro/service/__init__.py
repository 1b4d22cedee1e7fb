"""Scenario service layer: specs, result cache, batch scheduler, HTTP server.

The serving subsystem that turns the fast evaluation engines into a
reusable service (see PERFORMANCE.md, "Serving layer"):

* :mod:`repro.service.spec` — frozen, JSON-round-trippable
  :class:`ScenarioSpec` types for every workload, with a canonical
  serialisation and content-addressed cache keys;
* :mod:`repro.service.cache` — :class:`ResultCache`, an in-memory LRU with
  an optional on-disk JSON backend and hit/miss/eviction statistics;
* :mod:`repro.service.scheduler` — :class:`ScenarioScheduler`, which
  dedups a batch, consults the cache and fans the remaining shards out
  over the shared process-pool executor and (optionally) remote workers;
  :class:`BatchJob` handles run long grids asynchronously with partial
  progress;
* :mod:`repro.service.remote` — :class:`RemoteWorkerPool`,
  health-checked ``repro serve`` workers with an engine-version handshake
  and local failover, making the scheduler horizontally scalable;
* :mod:`repro.service.server` — a stdlib-only JSON HTTP API
  (``repro serve``), plus ``repro batch`` for offline grids and
  ``POST /jobs`` for asynchronous ones;
* :mod:`repro.service.telemetry` — dependency-free metrics registry
  (counters, gauges, mergeable log-bucket histograms) and trace spans,
  exported at ``GET /metrics`` / ``GET /trace/<id>`` and rendered live
  by ``repro top``.

Every process edge speaks JSON.  :mod:`repro.service.wire`, a binary
frame codec, is no longer imported by any module here: it stays only
because the benchmark harness (``perfbench/``) replays shard bodies
through it for its ``wire.*`` metrics, and goes with those metrics.

Quickstart
----------
>>> from repro.service import ScenarioScheduler, SimulateSpec
>>> scheduler = ScenarioScheduler()
>>> payload, cached = scheduler.evaluate(SimulateSpec(num_robots=1, horizon=100.0))
>>> (round(payload["theoretical"], 1), cached)
(9.0, False)
>>> scheduler.evaluate(SimulateSpec(num_robots=1, horizon=100.0))[1]
True
"""

from .cache import CacheGCReport, CacheStats, ResultCache, gc_disk_cache
from .execute import execute_shard, execute_spec
from .remote import RemoteWorker, RemoteWorkerError, RemoteWorkerPool
from .scheduler import (
    BatchJob,
    BatchResult,
    ScenarioScheduler,
    montecarlo_grid_specs,
    simulate_grid_specs,
)
from .server import ScenarioServer, create_server, run_server
from .spec import (
    ENGINE_VERSION,
    BoundsSpec,
    FamilySpec,
    MonteCarloFaultsSpec,
    MonteCarloRandomizedSpec,
    ScenarioSpec,
    SimulateSpec,
    TimelineSpec,
    spec_from_dict,
    spec_kinds,
)
from .telemetry import (
    METRICS,
    TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    Tracer,
    merge_histograms,
    parse_prometheus,
    set_enabled,
)

__all__ = [
    "ENGINE_VERSION",
    "ScenarioSpec",
    "BoundsSpec",
    "SimulateSpec",
    "FamilySpec",
    "MonteCarloFaultsSpec",
    "MonteCarloRandomizedSpec",
    "TimelineSpec",
    "spec_from_dict",
    "spec_kinds",
    "execute_spec",
    "execute_shard",
    "CacheStats",
    "CacheGCReport",
    "ResultCache",
    "gc_disk_cache",
    "RemoteWorker",
    "RemoteWorkerError",
    "RemoteWorkerPool",
    "BatchResult",
    "BatchJob",
    "ScenarioScheduler",
    "simulate_grid_specs",
    "montecarlo_grid_specs",
    "ScenarioServer",
    "create_server",
    "run_server",
    "METRICS",
    "TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "merge_histograms",
    "parse_prometheus",
    "set_enabled",
]
