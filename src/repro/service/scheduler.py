"""Sharded batch scheduler: dedup, cache, process-pool and remote fan-out.

The scheduler turns a heterogeneous list of
:class:`~repro.service.spec.ScenarioSpec` into result payloads while doing
as little engine work as possible:

1. **Dedup** — scenarios are content-addressed, so identical specs inside a
   batch (whatever their construction order) collapse onto one cache key
   and are evaluated at most once;
2. **Cache** — each unique key is looked up in the
   :class:`~repro.service.cache.ResultCache` before any compute;
3. **Shard** — the remaining unique specs are split into shards, each
   shard's payloads stored into the cache — and journaled, when a journal
   is attached — the moment the shard completes;
4. **Pull dispatch** — shards go onto one shared work queue and every
   executor *pulls* the next shard when it is free: the local slot (the
   scheduler's one process pool, built like the parameter sweeps' on the
   first batch that needs it and reused by every later batch; serial when
   one worker suffices or the pool breaks) plus, given a
   :class:`~repro.service.remote.RemoteWorkerPool` (or worker URLs, which
   the scheduler builds into a pool it closes itself), one
   dispatcher thread per live remote ``repro serve`` worker.  A local-only
   batch is the same loop with zero remote workers.  A slow or loaded
   worker naturally takes fewer shards (backpressure-aware placement), a
   worker that dies mid-batch is marked dead while the shard it held goes
   back on the queue for another executor — the batch always completes —
   and a worker revived mid-batch (by the pool's
   :class:`~repro.service.remote.WorkerSupervisor` or a concurrent batch's
   refresh) is admitted back while shards remain.

Determinism: every stochastic spec carries its own explicit seed, so batch
results are bit-identical to evaluating the specs serially, whatever the
sharding, worker count or remote/local placement — pull-based placement
changes *where* a shard runs, never *what* a seeded spec computes.  The
grid helpers (:func:`montecarlo_grid_specs`, :func:`simulate_grid_specs`)
derive per-scenario seeds from one root seed via
:func:`repro.simulation.monte_carlo.spawn_seeds` with exactly the
derivation :func:`repro.analysis.sweep.sweep_random_faults` uses, so a
scheduled grid reproduces the serial sweep bit for bit.

Long grids need not block: :meth:`ScenarioScheduler.submit_job` runs a
batch on a background thread and returns a :class:`BatchJob` handle with
live partial-progress counts — the object the HTTP server exposes as
``POST /jobs`` + ``GET /jobs/<id>``.  A job keeps one row store: its
ordered keys and one canonical spec dict per unique key, fixed at
submission, plus a ``key -> payload`` map that :meth:`run_batch`'s
``on_rows`` callback fills as shards land.  A finished job **spills**:
the payloads go into the content-addressed cache and the map is dropped,
so :data:`MAX_RETAINED_JOBS` of large grids never pin full payload
copies in coordinator memory; ``GET /jobs/<id>`` reads them back
bit-identically on demand (recomputing evicted entries from their spec).

The local process pool lives as long as the scheduler: concurrent
batches submit to the same pool, a pool that breaks is retired and the
next batch builds a fresh one, and :meth:`ScenarioScheduler.close` shuts
it down.  Starting a pool costs far more than a shard of engine work, so
no batch — and no shard a remote worker serves — pays that start-up.

Durability: constructed with a :class:`~repro.service.journal.JobJournal`,
the scheduler journals every submission, per-shard completion and terminal
state; :meth:`ScenarioScheduler.recover_jobs` replays that journal on
startup — finished jobs come back as spilled handles, interrupted jobs are
*resumed* with only their unjournaled shards re-run (completed payloads
are read back from the disk cache under their journaled keys).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
import uuid
import warnings
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..analysis.sweep import make_row_pool, suggest_shard_size
from ..exceptions import InvalidProblemError
from ..simulation.engine import DEFAULT_ENGINE
from ..simulation.monte_carlo import SeedLike, spawn_seeds
from . import telemetry
from .cache import ResultCache
from .execute import (
    _count_mc_trials,
    ensure_executable,
    execute_shard,
    execute_shard_timed,
    execute_spec,
    observe_shard_seconds,
)
from .journal import JobJournal
from .remote import RemoteWorker, RemoteWorkerError, RemoteWorkerPool
from .telemetry import _NULL_SPAN, MetricsRegistry, Tracer
from .spec import (
    ENGINE_VERSION,
    MonteCarloFaultsSpec,
    MonteCarloRandomizedSpec,
    ScenarioSpec,
    SimulateSpec,
    spec_from_dict,
)

__all__ = [
    "BatchResult",
    "BatchJob",
    "ScenarioScheduler",
    "simulate_grid_specs",
    "montecarlo_grid_specs",
]

#: How many finished jobs the scheduler remembers for ``GET /jobs/<id>``.
MAX_RETAINED_JOBS = 256

#: Batches with fewer specs than this skip the dedup / cache_consult /
#: shard_build phase spans (the batch and shard spans are always
#: recorded).  Remote workers serve every shard as a small ``POST
#: /batch``, and three ~0-duration phase spans per shard would dominate
#: that hot path's tracing cost while saying nothing useful.
_PHASE_SPAN_MIN_SPECS = 16

#: Request-level (4xx/malformed) rejections in a row after which a batch
#: retires a worker's dispatcher thread for the rest of the batch.  The
#: worker stays alive (single rejections are shard-specific), but a worker
#: rejecting everything must not claim the whole queue.
_MAX_CONSECUTIVE_REJECTS = 3


WorkersLike = Union[RemoteWorkerPool, Sequence[Union[str, RemoteWorker]]]


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one scheduled batch.

    ``results`` is in scenario order (duplicates included — they share the
    payload of their first occurrence).  The counters make the dedup,
    cache and dispatch savings auditable: ``evaluated`` is the number of
    *engine* evaluations actually performed, at most ``num_unique`` and
    often far below ``num_scenarios``; ``remote_evaluated`` of those ran
    on remote workers, and ``failovers`` counts shards that had to be
    re-dispatched (back onto the work queue, or onto the local pool) after
    a worker failed.
    """

    results: Tuple[dict, ...]
    num_scenarios: int
    num_unique: int
    cache_hits: int
    evaluated: int
    num_shards: int
    remote_evaluated: int = 0
    failovers: int = 0
    num_remote_workers: int = 0
    #: Wall-clock seconds the batch took, measured on the scheduler's
    #: monotonic clock from dedup to last shard.
    duration_seconds: float = 0.0
    #: Unix timestamp the batch started.  Batch counters are **per-batch**
    #: (they restart from zero every ``run_batch``), unlike the
    #: process-lifetime ``/cache/stats`` counters; ``since`` marks where
    #: this batch's window began, symmetric with the cache payload's
    #: ``since`` so scrapers can anchor both kinds of counter in time.
    since: float = 0.0
    #: Trace id of the batch's span tree (the job id for scheduled jobs);
    #: feed it to ``GET /trace/<id>`` / ``repro trace``.
    trace_id: str = ""

    def to_dict(self) -> dict:
        """Plain-dict form (the ``stats`` block of ``POST /batch``)."""
        return {
            "num_scenarios": self.num_scenarios,
            "num_unique": self.num_unique,
            "num_duplicates": self.num_scenarios - self.num_unique,
            "cache_hits": self.cache_hits,
            "evaluated": self.evaluated,
            "num_shards": self.num_shards,
            "remote_evaluated": self.remote_evaluated,
            "failovers": self.failovers,
            "num_remote_workers": self.num_remote_workers,
            "duration_seconds": self.duration_seconds,
            "since": self.since,
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_stats(
        cls,
        stats: Optional[Mapping[str, object]] = None,
        num_scenarios: int = 0,
        num_unique: int = 0,
    ) -> "BatchResult":
        """Inverse of :meth:`to_dict` for journal rehydration.

        The results tuple is empty (a recovered job rehydrates payloads
        from the cache by key); missing or non-numeric counters fall back
        to the given defaults so a partially journaled stats block still
        yields a well-formed result.
        """
        block = dict(stats or {})

        def counter(name: str, default: int = 0) -> int:
            value = block.get(name, default)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return default
            return int(value)

        def seconds(name: str) -> float:
            value = block.get(name, 0.0)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return 0.0
            return float(value)

        trace_id = block.get("trace_id", "")
        return cls(
            results=(),
            num_scenarios=counter("num_scenarios", num_scenarios),
            num_unique=counter("num_unique", num_unique),
            cache_hits=counter("cache_hits"),
            evaluated=counter("evaluated"),
            num_shards=counter("num_shards"),
            remote_evaluated=counter("remote_evaluated"),
            failovers=counter("failovers"),
            num_remote_workers=counter("num_remote_workers"),
            duration_seconds=seconds("duration_seconds"),
            since=seconds("since"),
            trace_id=trace_id if isinstance(trace_id, str) else "",
        )


class BatchJob:
    """Handle to one asynchronously running batch with partial progress.

    The job's rows live in one store: the ordered cache ``keys`` and one
    canonical spec dict per unique key, both fixed at construction, plus
    one ``key -> payload`` map that fills as rows land.
    ``completed``/``total`` count *unique* scenarios resolved (cache hits
    count immediately, evaluations as their shard completes), so pollers
    see monotone progress even on heavily deduplicated grids; the unique
    total is known from submission.  Thread-safe: the batch thread
    writes, any number of HTTP poller threads read, all under one
    condition.

    When constructed with a ``cache`` (the scheduler always passes its
    own), a finished job *spills*: its payloads go into the
    content-addressed cache and the payload map is dropped.
    :meth:`iter_rows`, :meth:`result` and :meth:`to_dict` then read each
    payload back from the cache, recomputing any evicted entry from its
    spec dict — bit-identical either way, since specs are deterministic
    under their embedded seeds.  A job whose unique result count exceeds
    the cache's in-memory capacity (with no disk tier to fall back on)
    declines to spill and keeps its payloads: reading it back would
    recompute most of the grid on every poll.
    """

    def __init__(
        self,
        job_id: str,
        keys: Sequence[str],
        spec_dicts: Sequence[dict] = (),
        cache: Optional[ResultCache] = None,
        recovered: bool = False,
    ) -> None:
        self.job_id = job_id
        self._keys = tuple(keys)
        self.num_scenarios = len(self._keys)
        #: True when this handle was rebuilt (or its batch resumed) from a
        #: journal after a coordinator restart rather than submitted live.
        self.recovered = bool(recovered)
        self._cache = cache
        # ``spec_dicts`` is aligned with ``keys``; the first dict per key
        # is the recompute fallback for an evicted payload.
        self._spec_by_key: Dict[str, dict] = {}
        for key, spec_dict in zip(self._keys, spec_dicts):
            self._spec_by_key.setdefault(key, spec_dict)
        self._num_unique = len(set(self._keys))
        self._cond = threading.Condition()
        self._state = "running"
        #: Payloads of the keys resolved so far; ``None`` once spilled.
        self._rows: Optional[Dict[str, dict]] = {}
        self._completed = 0
        self._batch: Optional[BatchResult] = None
        self._error: Optional[str] = None

    # -- written by the batch thread -----------------------------------
    def _publish(self, pairs: Iterable[Tuple[str, dict]]) -> None:
        """Make resolved ``(key, payload)`` pairs available to readers.

        Idempotent per key: a shard re-executed after a pool or worker
        failover republishes the same pairs, and the first payload wins —
        subscribers never see a duplicate row and progress never
        double-counts.
        """
        with self._cond:
            rows = self._rows
            if rows is None:
                return
            for key, payload in pairs:
                if key not in rows:
                    rows[key] = payload
                    self._completed += 1
            self._cond.notify_all()

    def _finish(self, batch: BatchResult) -> None:
        with self._cond:
            rows = self._rows
        cache = self._cache
        # Spill only when the cache can actually retain the result set:
        # the in-memory LRU fits it, or a disk tier (which never evicts)
        # is configured.  Otherwise reading the job back would recompute
        # most of the grid on *every* poll — each put() evicting an
        # earlier key — so an oversized job keeps its payloads instead.
        spill = cache is not None and (
            len(rows) <= cache.max_entries or cache.persistent
        )
        if spill:
            # Make sure every payload is in the cache before dropping it
            # from the job (run_batch already stored computed entries;
            # this covers a churned LRU at the cost of one lookup per
            # unique key).
            for key, payload in rows.items():
                cache.ensure(key, payload)
        with self._cond:
            self._batch = replace(batch, results=())
            if spill:
                self._rows = None
            self._completed = self._num_unique
            self._state = "done"
            self._cond.notify_all()

    def _fail(self, error: BaseException) -> None:
        with self._cond:
            self._error = str(error)
            self._state = "error"
            self._cond.notify_all()

    # -- read by pollers ------------------------------------------------
    @property
    def state(self) -> str:
        """``running``, ``done`` or ``error``."""
        with self._cond:
            return self._state

    @property
    def done(self) -> bool:
        """True once the batch finished (successfully or not)."""
        return self.state != "running"

    @property
    def spilled(self) -> bool:
        """True once the finished results live in the cache, not the job."""
        with self._cond:
            return self._rows is None

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes; returns False on timeout."""
        with self._cond:
            return self._cond.wait_for(lambda: self._state != "running", timeout)

    def iter_rows(self, start: int = 0):
        """Yield ``(index, key, payload)`` per scenario row, in index order.

        A row becomes available the moment the shard computing its key
        lands (cache hits at batch start), so a subscriber sees the first
        row long before the batch finishes.  Blocks between rows.  The
        stream is pull-based — any number of subscribers each receive the
        full ordered sequence independently, and ``start`` is a resume
        cursor skipping rows below that index.  On a spilled job
        (including journal-recovered handles) rows are read back from the
        cache by key, recomputing evicted entries from their spec dict.
        Raises :class:`InvalidProblemError` once the stream reaches a row
        of a failed job.
        """
        if start < 0:
            raise InvalidProblemError(f"row start must be >= 0, got {start}")
        return self._results(start)

    def _results(self, start: int = 0):
        """The one row reader behind :meth:`iter_rows`, :meth:`result`
        and :meth:`to_dict`: ``(index, key, payload)`` from ``start``."""
        fetched: Dict[str, dict] = {}
        for index in range(start, self.num_scenarios):
            key = self._keys[index]
            with self._cond:
                while True:
                    rows = self._rows
                    payload = rows.get(key) if rows is not None else None
                    if payload is not None or self._state == "done":
                        break
                    if self._state == "error":
                        raise InvalidProblemError(
                            f"job {self.job_id} failed: {self._error}"
                        )
                    self._cond.wait()
            if payload is None:
                # Outside the condition, so a recompute never blocks
                # progress polls; duplicates reuse the first fetch.
                payload = fetched.get(key)
                if payload is None:
                    payload = fetched[key] = self._fetch(key)
            yield index, key, payload

    def _fetch(self, key: str) -> dict:
        """``key``'s payload from the cache, recomputed and stored on a miss.

        A miss means the entry was evicted from every cache tier; its
        spec dict recomputes it bit-identically (seeded determinism), and
        the put saves the next reader the work.
        """
        assert self._cache is not None
        payload = self._cache.get(key)
        if payload is None:
            payload = execute_spec(spec_from_dict(self._spec_by_key[key]))
            self._cache.put(key, payload)
        return payload

    def result(self, timeout: Optional[float] = None) -> BatchResult:
        """The finished :class:`BatchResult`; raises on failure/timeout.

        The ``results`` tuple is rebuilt from the job's rows on each call.
        """
        if not self.wait(timeout):
            raise TimeoutError(f"job {self.job_id} still running")
        with self._cond:
            batch = self._batch
            error = self._error
        if batch is None:
            raise InvalidProblemError(f"job {self.job_id} failed: {error}")
        return replace(
            batch, results=tuple(payload for _i, _k, payload in self._results())
        )

    def to_dict(self, include_results: bool = True) -> dict:
        """JSON form for ``GET /jobs/<id>``: state, progress, result."""
        with self._cond:
            payload: Dict[str, object] = {
                "job_id": self.job_id,
                "state": self._state,
                "num_scenarios": self.num_scenarios,
                "progress": {
                    "completed": self._completed,
                    "total": self._num_unique,
                },
            }
            if self.recovered:
                payload["recovered"] = True
            if self._error is not None:
                payload["error"] = self._error
            batch = self._batch
            if batch is not None:
                payload["stats"] = batch.to_dict()
                payload["spilled"] = self._rows is None
        if batch is not None and include_results:
            payload["results"] = [row for _i, _k, row in self._results()]
        return payload


class _ShardQueue:
    """Thread-safe pull queue of shard indices for one batch.

    ``pop`` hands work to whichever executor asks first — that is the
    whole backpressure mechanism.  ``push_front`` returns the shard a
    dying worker held so the next puller takes it immediately, preserving
    approximate ordering.

    Given a ``gauge`` (``repro_shard_queue_depth``), every mutation moves
    it by the delta, so concurrent batches sharing one metrics registry
    sum to the cluster-visible queue depth and an emptied batch nets to
    zero.
    """

    def __init__(
        self,
        indices: Iterable[int],
        gauge: Optional[telemetry.Gauge] = None,
    ) -> None:
        self._items = deque(indices)
        self._lock = threading.Lock()
        self._gauge = gauge
        if gauge is not None and self._items:
            gauge.add(len(self._items))

    def pop(self) -> Optional[int]:
        with self._lock:
            item = self._items.popleft() if self._items else None
        if item is not None and self._gauge is not None:
            self._gauge.add(-1)
        return item

    def push_front(self, index: int) -> None:
        with self._lock:
            self._items.appendleft(index)
        if self._gauge is not None:
            self._gauge.add(1)

    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    def drain(self) -> List[int]:
        with self._lock:
            items = list(self._items)
            self._items.clear()
        if items and self._gauge is not None:
            self._gauge.add(-len(items))
        return items


class ScenarioScheduler:
    """Evaluate scenario specs through the cache, the pool and remote workers.

    Parameters
    ----------
    cache:
        The :class:`~repro.service.cache.ResultCache` consulted before any
        computation; a private in-memory cache is created when omitted.
    engine_version:
        Version string folded into every cache key (see
        :data:`repro.service.spec.ENGINE_VERSION`).
    workers:
        Default remote executors for every batch: a
        :class:`~repro.service.remote.RemoteWorkerPool` or a sequence of
        ``repro serve`` base URLs.  ``None`` keeps the scheduler
        single-machine; per-call ``workers=`` overrides this default.
    journal:
        Optional :class:`~repro.service.journal.JobJournal`.  When given,
        every :meth:`submit_job` submission, per-shard completion and
        terminal state is journaled (best-effort — a failing journal warns,
        it never fails a batch), and :meth:`recover_jobs` can rebuild the
        job table after a restart.
    metrics / tracer:
        The :class:`~repro.service.telemetry.MetricsRegistry` and
        :class:`~repro.service.telemetry.Tracer` batch metrics and spans
        are recorded into.  Default to the process-wide
        :data:`~repro.service.telemetry.METRICS` /
        :data:`~repro.service.telemetry.TRACER` (what a normal ``repro
        serve`` process wants — one ``/metrics`` covers everything); pass
        private instances to isolate several in-process schedulers, as the
        telemetry tests do.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        engine_version: str = ENGINE_VERSION,
        workers: Optional[WorkersLike] = None,
        journal: Optional[JobJournal] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.cache = cache if cache is not None else ResultCache()
        self.engine_version = engine_version
        self.worker_pool = self._as_pool(workers)
        # A pool built here from URLs is the scheduler's to close; one the
        # caller passed in is the caller's.
        self._owns_worker_pool = self.worker_pool is not workers
        self.journal = journal
        self.metrics = metrics if metrics is not None else telemetry.METRICS
        self.tracer = tracer if tracer is not None else telemetry.TRACER
        self._jobs: "OrderedDict[str, BatchJob]" = OrderedDict()
        self._jobs_lock = threading.Lock()
        self._evicted_jobs = 0
        # Instruments bound once: every registry access canonicalises the
        # label set under the registry lock (~1.5 us), and run_batch is
        # also the per-shard hot path of a remote worker serving
        # ``POST /batch``, where that lookup cost is pure dispatch
        # overhead.
        metrics = self.metrics
        self._batches_total = metrics.counter(
            "repro_batches_total", help="Batches completed by this scheduler."
        )
        self._batch_seconds = metrics.histogram(
            "repro_batch_seconds", help="End-to-end batch wall-clock time."
        )
        self._scenarios_total = {
            outcome: metrics.counter(
                "repro_scenarios_total",
                {"outcome": outcome},
                help="Unique-scenario resolutions by outcome "
                "(duplicates count as deduped).",
            )
            for outcome in ("deduped", "cache_hit", "evaluated")
        }
        self._shard_seconds = {
            executor: metrics.histogram(
                "repro_shard_seconds",
                {"executor": executor},
                help="Per-shard execution time as seen by the scheduler "
                "(queue pop to payloads in hand), by executor.",
            )
            for executor in ("local-serial", "local-pool", "remote")
        }
        self._failovers_total = metrics.counter(
            "repro_failovers_total",
            help="Shards re-dispatched after a remote "
            "worker failure or rejection.",
        )
        self._jobs_running = metrics.gauge(
            "repro_jobs_running", help="Background batch jobs currently executing."
        )
        self._queue_depth = metrics.gauge(
            "repro_shard_queue_depth",
            help="Shards waiting on the work queues of in-flight "
            "batches (summed across concurrent batches).",
        )
        # The local process pool, shared by every batch and built on the
        # first one that wants parallelism (_local_pool); the lock guards
        # building, retiring and closing it.
        self._pool_lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_size = 0

    def _local_pool(self) -> Optional[ProcessPoolExecutor]:
        """The scheduler's process pool, built on first use.

        Sized to the host's CPUs (at least two: a batch asks only when it
        wants two or more processes).  ``None`` when the pool cannot be
        built — the batch then runs serially, and the next one tries again.
        """
        with self._pool_lock:
            if self._pool is None:
                if "forkserver" in multiprocessing.get_all_start_methods():
                    # Children fork from a server that has already imported
                    # NumPy and the engines, instead of importing them each.
                    multiprocessing.set_forkserver_preload(["repro.service.execute"])
                self._pool_size = max(2, os.cpu_count() or 1)
                self._pool = make_row_pool(self._pool_size, self._pool_size)
            return self._pool

    def _retire_pool(self, pool: ProcessPoolExecutor) -> None:
        """Drop ``pool`` after it failed, unless it was already replaced.

        The identity check keeps a batch that saw the old pool break from
        retiring the fresh one a concurrent batch has since built.
        """
        with self._pool_lock:
            if self._pool is not pool:
                return
            self._pool = None
        pool.shutdown(wait=False)

    def close(self) -> None:
        """Shut the local process pool down (idempotent).

        Waits for shards already running in it; a batch still in flight
        finishes serially.  A later batch builds a fresh pool.  A worker
        pool the scheduler built from URLs is closed too (its idle
        keep-alive connections dropped); one passed in is left alone.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()
        if self._owns_worker_pool and self.worker_pool is not None:
            self.worker_pool.close()

    def _as_pool(self, workers: Optional[WorkersLike]) -> Optional[RemoteWorkerPool]:
        if workers is None:
            return None
        if isinstance(workers, RemoteWorkerPool):
            return workers
        workers = list(workers)
        if not workers:
            return None
        return RemoteWorkerPool(workers, engine_version=self.engine_version)

    def _journal_write(self, method: Callable, *args, **kwargs) -> None:
        """Run one journal write, degrading to a warning on failure.

        Durability is best-effort by contract: a full disk or a journal on
        a dying filesystem must never fail a batch that can still compute.
        """
        try:
            method(*args, **kwargs)
        except Exception as error:
            warnings.warn(
                f"journal write failed ({method.__name__}): {error}",
                RuntimeWarning,
                stacklevel=2,
            )

    # ------------------------------------------------------------------
    def evaluate(self, spec: ScenarioSpec) -> Tuple[dict, bool]:
        """Evaluate one scenario; returns ``(payload, was_cached)``."""
        key = spec.cache_key(self.engine_version)
        payload = self.cache.get(key)
        if payload is not None:
            return payload, True
        payload = execute_spec(spec)
        self.cache.put(key, payload)
        return payload, False

    def run_batch(
        self,
        specs: Iterable[ScenarioSpec],
        max_workers: Optional[int] = None,
        shard_size: Optional[int] = None,
        workers: Optional[WorkersLike] = None,
        on_rows: Optional[Callable[[List[Tuple[str, dict]]], None]] = None,
        _keys: Optional[Sequence[str]] = None,
        _journal_job_id: Optional[str] = None,
    ) -> BatchResult:
        """Evaluate a heterogeneous scenario list with dedup + cache + shards.

        ``max_workers`` is forwarded to the local process-pool fan-out
        (``1`` forces serial evaluation).  ``shard_size`` is the number of
        specs grouped into
        one dispatch unit; ``None`` picks a size that gives every executor
        a few shards.  ``workers`` selects remote executors for this batch
        (defaulting to the pool given at construction; a pool built here
        from URLs is closed when the batch ends, a pool passed in never
        is).  ``on_rows`` receives newly resolved *unique keys* as
        ``[(key, payload), ...]`` — the cache hits at batch start, then
        one call per shard the moment it completes; calls are serialised
        under one lock, so keep the callback fast and never let it raise.
        It should be idempotent per key (:meth:`BatchJob._publish` is).
        None of these parameters affect the numeric results.

        Every batch is traced (batch span → dedup / cache_consult /
        shard_build phase spans → one span per executed shard) under the
        job id when journaled, else a fresh ``trace_id`` reported in the
        stats block, and timed into the scheduler's metrics registry.
        Batches under ``_PHASE_SPAN_MIN_SPECS`` specs skip the three
        phase spans (worker-side shard evaluations are such batches —
        the per-shard tracing cost stays at two spans).
        Telemetry is observation only: payloads are bit-identical with it
        on, off or absent.
        """
        specs = list(specs)
        # Fail fast on registry drift: a registered-but-unhandled kind must
        # surface as a structured error before any shard is dispatched.
        ensure_executable(specs)
        started_at = time.time()
        start = time.monotonic()
        # Jobs trace under their job id, so ``GET /trace/<job_id>`` works
        # straight off the handle; synchronous batches get a fresh id,
        # reported back through the stats block.
        trace_id = _journal_job_id if _journal_job_id is not None else uuid.uuid4().hex
        pool = self.worker_pool if workers is None else self._as_pool(workers)
        try:
            with self.tracer.span(
                "batch", trace_id=trace_id, attrs={"num_scenarios": len(specs)}
            ) as batch_span:
                batch = self._run_batch_inner(
                    specs,
                    max_workers,
                    shard_size,
                    pool,
                    on_rows,
                    _keys,
                    _journal_job_id,
                    batch_span,
                )
        finally:
            if pool is not None and pool is not workers and pool is not self.worker_pool:
                # Built from URLs for this batch only: drop its idle
                # keep-alive connections.
                pool.close()
        duration = time.monotonic() - start
        batch = replace(
            batch, duration_seconds=duration, since=started_at, trace_id=trace_id
        )
        self._batches_total.inc()
        self._batch_seconds.observe(duration)
        for outcome, count in (
            ("deduped", batch.num_scenarios - batch.num_unique),
            ("cache_hit", batch.cache_hits),
            ("evaluated", batch.evaluated),
        ):
            self._scenarios_total[outcome].inc(count)
        return batch

    def _run_batch_inner(
        self,
        specs: List[ScenarioSpec],
        max_workers: Optional[int],
        shard_size: Optional[int],
        pool: Optional[RemoteWorkerPool],
        on_rows: Optional[Callable[[List[Tuple[str, dict]]], None]],
        _keys: Optional[Sequence[str]],
        _journal_job_id: Optional[str],
        batch_span,
    ) -> BatchResult:
        """The body of :meth:`run_batch`, traced under ``batch_span``.

        Returns the batch *without* the timing fields —
        :meth:`run_batch` measures the full duration (including this
        method's own bookkeeping) and grafts them on via ``replace``.
        """
        # ``_keys`` lets submit_job hand down the cache keys it already
        # computed for its job instead of hashing every spec a second
        # time; it must be spec-for-spec aligned.
        keys = (
            list(_keys)
            if _keys is not None
            else [spec.cache_key(self.engine_version) for spec in specs]
        )

        # Phase spans (dedup / cache_consult / shard_build) carry signal
        # only on batches big enough for the phases to take measurable
        # time.  Skipping them below the threshold keeps the worker-side
        # hot path lean: every remote shard arrives as a small
        # ``POST /batch``, and three near-zero-duration spans per shard
        # would be most of that batch's tracing cost (shard and batch
        # spans are always recorded).
        trace_phases = len(specs) >= _PHASE_SPAN_MIN_SPECS

        # Dedup: first occurrence of each key owns the evaluation.
        unique_keys: List[str] = []
        unique_specs: List[ScenarioSpec] = []
        seen: Dict[str, int] = {}
        with self.tracer.span("dedup") if trace_phases else _NULL_SPAN as span:
            for key, spec in zip(keys, specs):
                if key not in seen:
                    seen[key] = len(unique_keys)
                    unique_keys.append(key)
                    unique_specs.append(spec)
            span.set_attr("num_unique", len(unique_keys))

        # Cache consultation, one lookup per unique key.
        payload_by_key: Dict[str, dict] = {}
        pending: List[Tuple[str, ScenarioSpec]] = []
        hit_keys: List[str] = []
        cache_hits = 0
        with self.tracer.span("cache_consult") if trace_phases else _NULL_SPAN as span:
            for key, spec in zip(unique_keys, unique_specs):
                payload = self.cache.get(key)
                if payload is not None:
                    payload_by_key[key] = payload
                    hit_keys.append(key)
                    cache_hits += 1
                else:
                    pending.append((key, spec))
            span.set_attr("cache_hits", cache_hits)

        journal_id = _journal_job_id if self.journal is not None else None
        if journal_id is not None and hit_keys:
            # Cache hits are durably resolved for this job too: journaling
            # them keeps the completion set equal to the job's key set at
            # the end of an uninterrupted run.
            self._journal_write(self.journal.record_completed, journal_id, hit_keys)

        rows_lock = threading.Lock()

        def publish(pairs: List[Tuple[str, dict]]) -> None:
            # Serialised: concurrent dispatcher threads never interleave
            # inside the callback.
            if on_rows is not None and pairs:
                with rows_lock:
                    on_rows(pairs)

        publish([(key, payload_by_key[key]) for key in hit_keys])

        num_executors = 1 + (len(pool) if pool is not None else 0)
        with self.tracer.span("shard_build") if trace_phases else _NULL_SPAN as span:
            shards = _split_shards(
                [spec for _key, spec in pending], shard_size, max_workers, num_executors
            )
            # Key lists aligned shard-for-shard with ``shards`` (same
            # slicing), so a completed shard can be cached + journaled
            # immediately.
            shard_keys: List[List[str]] = []
            offset = 0
            for shard in shards:
                chunk = pending[offset : offset + len(shard)]
                shard_keys.append([key for key, _spec in chunk])
                offset += len(shard)
            span.set_attr("num_shards", len(shards))

        def record(index: int, payloads: Sequence[dict]) -> None:
            # Called (possibly from a dispatcher thread) the moment shard
            # ``index`` completes: its payloads become durable — cache
            # first, then the journal row that declares them recoverable —
            # before they are published, so a crash can under-journal but
            # never journal a key whose payload was not stored.
            pairs = list(zip(shard_keys[index], payloads))
            for key, payload in pairs:
                self.cache.put(key, payload)
            if journal_id is not None:
                self._journal_write(
                    self.journal.record_completed, journal_id, shard_keys[index]
                )
            publish(pairs)

        shard_payloads, dispatch = self._dispatch(
            shards, pool, max_workers, record, batch_span
        )
        computed = [payload for shard in shard_payloads for payload in shard]
        for (key, _spec), payload in zip(pending, computed):
            payload_by_key[key] = payload

        return BatchResult(
            results=tuple(payload_by_key[key] for key in keys),
            num_scenarios=len(specs),
            num_unique=len(unique_keys),
            cache_hits=cache_hits,
            evaluated=len(pending),
            num_shards=len(shards),
            remote_evaluated=dispatch["remote_specs"],
            failovers=dispatch["failovers"],
            num_remote_workers=dispatch["num_workers"],
        )

    # ------------------------------------------------------------------
    def _note_shard(
        self,
        batch_span,
        index: int,
        num_specs: int,
        executor: str,
        start: float,
        worker: Optional[str] = None,
        queue_wait: Optional[float] = None,
        serialize_seconds: Optional[float] = None,
        wire: Optional[bool] = None,
    ) -> None:
        """Record one executed shard: a metric observation plus a trace span.

        Shard spans parent explicitly to the batch span because they are
        recorded from dispatcher threads (or retroactively for pool
        futures), where the thread-local implicit-parent stack is empty.
        Exactly one ``shard`` span is recorded per *successful* execution;
        failed remote attempts appear as ``failover`` spans instead, so a
        healthy batch's shard-span count equals its shard count.
        """
        duration = time.monotonic() - start
        self._shard_seconds[executor].observe(duration)
        if batch_span is None or not batch_span.trace_id:
            return
        attrs: Dict[str, object] = {
            "shard": index,
            "num_specs": num_specs,
            "executor": executor,
        }
        if worker is not None:
            attrs["worker"] = worker
        if wire is not None:
            # Which transport carried this shard (binary frames vs JSON) —
            # lets a trace read show at a glance whether the negotiated
            # wire was actually in play for a slow dispatch.
            attrs["wire"] = wire
        if queue_wait is not None:
            attrs["queue_wait_seconds"] = queue_wait
        if serialize_seconds is not None:
            attrs["serialize_seconds"] = serialize_seconds
        self.tracer.record_span(
            "shard",
            batch_span.trace_id,
            start,
            duration,
            parent=batch_span,
            attrs=attrs,
        )

    def _dispatch(
        self,
        shards: List[tuple],
        pool: Optional[RemoteWorkerPool],
        max_workers: Optional[int],
        record: Callable[[int, Sequence[dict]], None],
        batch_span=None,
    ) -> Tuple[List[list], Dict[str, int]]:
        """Pull-based dispatch of ``shards`` over the local pool and ``pool``.

        All shard indices go onto one shared :class:`_ShardQueue`.  One
        dispatcher thread per live remote worker pulls the next index
        whenever its worker is free, and the calling thread pulls for the
        local process pool (submitting one shard per free process slot and
        refilling as each completes — no round barrier; the pool is the
        scheduler's, shared with concurrent batches and reused by later
        ones), so placement follows each executor's actual throughput: a
        slow or loaded worker simply pulls less often (backpressure-aware),
        while results stay bit-identical because placement never changes
        what a seeded spec computes.  ``record(index, payloads)`` fires once
        per completed shard, from whichever thread finished it — the caller
        uses it for cache/journal writes and row publication.
        Local-only execution is this same loop with zero remote workers
        (``pool`` is ``None``).

        A worker that fails fatally is marked dead, its in-flight shard
        goes back on the queue and its dispatcher thread exits; a
        request-level 4xx leaves the worker in rotation and sends just
        that shard to the local drain pass, which re-runs anything still
        missing once the queue empties.  Conversely a worker that comes
        *back* — revived by the pool's supervisor or a concurrent batch's
        refresh — is admitted mid-batch: the local slot spawns it a fresh
        dispatcher thread while work remains on the queue.  A broken
        process pool puts its in-flight shards back on the queue, the local
        slot goes serial for the rest of the batch, and the scheduler
        retires the pool so the next batch builds a fresh one.
        """
        if not shards:
            return [], {"remote_specs": 0, "failovers": 0, "num_workers": 0}
        live = pool.refresh() if pool is not None else []

        dispatch_start = time.monotonic()
        queue = _ShardQueue(range(len(shards)), gauge=self._queue_depth)
        results: List[Optional[list]] = [None] * len(shards)
        batch_counters = {"remote_specs": 0, "failovers": 0}
        counters_lock = threading.Lock()
        admit_lock = threading.Lock()
        dispatching: set = set()
        # Workers retired for rejecting too many shards in a row: still
        # alive (4xx is request-level), but never re-admitted this batch —
        # without this, maybe_admit would hand a reject-everything worker
        # a fresh dispatcher as soon as its old one retired.
        retired: set = set()
        threads: List[threading.Thread] = []
        worker_errors: List[BaseException] = []

        def run_worker(worker: RemoteWorker) -> None:
            # Pull until the queue is dry or this worker dies.  Death is a
            # thread-local decision: a concurrent supervisor probe may
            # resurrect worker.alive, but this dispatcher stays retired
            # (re-admission spawns a fresh thread).
            try:
                consecutive_rejects = 0
                while True:
                    shard_index = queue.pop()
                    if shard_index is None:
                        return
                    shard = shards[shard_index]
                    queue_wait = time.monotonic() - dispatch_start
                    serialize_start = time.monotonic()
                    shard_dicts = [spec.to_dict() for spec in shard]
                    attempt_start = time.monotonic()
                    serialize_seconds = attempt_start - serialize_start
                    try:
                        payloads = worker.evaluate_shard(shard_dicts)
                    except RemoteWorkerError as error:
                        pool.note_failover()
                        with counters_lock:
                            batch_counters["failovers"] += 1
                        self._failovers_total.inc()
                        if batch_span is not None and batch_span.trace_id:
                            self.tracer.record_span(
                                "failover",
                                batch_span.trace_id,
                                attempt_start,
                                time.monotonic() - attempt_start,
                                parent=batch_span,
                                attrs={
                                    "shard": shard_index,
                                    "worker": worker.url,
                                    "error": str(error),
                                    "worker_dead": bool(
                                        error.worker_dead
                                        or worker.alive is False
                                    ),
                                },
                            )
                        if error.worker_dead or worker.alive is False:
                            # Fatal failure — or the worker was marked dead
                            # externally (another batch, the supervisor)
                            # and evaluate_shard refuses it.  Either way
                            # this dispatcher retires instead of draining
                            # the whole queue into the local fallback.
                            pool.mark_dead(worker, error)
                            # Hand the shard to the next free executor.
                            queue.push_front(shard_index)
                            return
                        # 4xx: the worker is healthy but rejected this
                        # shard — leave it for the local drain pass to
                        # surface the real error.  A rejection round-trip
                        # is far cheaper than an evaluation, so a worker
                        # that rejects *everything* would race the healthy
                        # executors to the queue and push the whole batch
                        # into the serial drain; retire its dispatcher
                        # (worker stays alive) after a few rejections in a
                        # row.
                        consecutive_rejects += 1
                        if consecutive_rejects >= _MAX_CONSECUTIVE_REJECTS:
                            with admit_lock:
                                retired.add(id(worker))
                            return
                        continue
                    consecutive_rejects = 0
                    pool.note_remote(len(shard))
                    with counters_lock:
                        batch_counters["remote_specs"] += len(shard)
                    results[shard_index] = payloads
                    self._note_shard(
                        batch_span,
                        shard_index,
                        len(shard),
                        "remote",
                        attempt_start,
                        worker=worker.url,
                        queue_wait=queue_wait,
                        serialize_seconds=serialize_seconds,
                        wire=bool(worker.wire_enabled),
                    )
                    record(shard_index, payloads)
            except BaseException as error:  # surfaced after the joins
                worker_errors.append(error)
            finally:
                with admit_lock:
                    dispatching.discard(id(worker))

        def spawn(worker: RemoteWorker) -> None:
            # Only ever called from the calling thread (initial live set,
            # then maybe_admit inside run_local), so `threads` needs no
            # lock.
            thread = threading.Thread(
                target=run_worker,
                args=(worker,),
                name=f"repro-remote-{len(threads)}",
                daemon=True,
            )
            threads.append(thread)
            thread.start()

        def maybe_admit() -> None:
            # Mid-batch rejoin: a worker that flipped back to live gets a
            # dispatcher thread while shards are still waiting.
            if queue.depth() == 0:
                return
            for worker in pool.live_workers():
                with admit_lock:
                    if id(worker) in dispatching or id(worker) in retired:
                        continue
                    dispatching.add(id(worker))
                spawn(worker)

        requested = max_workers if max_workers is not None else (os.cpu_count() or 1)
        # Same serial/parallel decision a per-batch pool used to make: one
        # worker or one shard runs in-process, anything else shares the
        # scheduler's long-lived pool, at most `local_slots` shards at once.
        local_pool = (
            self._local_pool() if requested > 1 and len(shards) > 1 else None
        )
        local_slots = min(requested, self._pool_size) if local_pool is not None else 1
        # Holder rather than a bare nonlocal: once the pool breaks, every
        # later run_local pass (the drain loop reuses it) must go serial
        # instead of re-raising on the same broken pool.
        local_state = {"pool": local_pool}

        def run_serial(admit: bool) -> None:
            while True:
                if admit:
                    maybe_admit()
                index = queue.pop()
                if index is None:
                    return
                shard_start = time.monotonic()
                results[index] = execute_shard(shards[index])
                self._note_shard(
                    batch_span,
                    index,
                    len(shards[index]),
                    "local-serial",
                    shard_start,
                    queue_wait=shard_start - dispatch_start,
                )
                record(index, results[index])

        def run_local(admit: bool) -> None:
            # The local slot keeps one shard in flight per free process
            # slot, refilling as each completes, so it competes with the
            # remote workers for queue items instead of owning a fixed
            # share.
            pool_now = local_state["pool"]
            if pool_now is None:
                run_serial(admit)
                return
            inflight: Dict["Future[tuple]", int] = {}
            submitted_at: Dict["Future[tuple]", float] = {}
            try:
                while True:
                    if admit:
                        maybe_admit()
                    while len(inflight) < local_slots:
                        index = queue.pop()
                        if index is None:
                            break
                        try:
                            future = pool_now.submit(execute_shard_timed, shards[index])
                        except BaseException as error:
                            # The popped index must never be lost: put it
                            # back before the failure propagates to the
                            # serial fallback below.
                            queue.push_front(index)
                            if isinstance(error, RuntimeError):
                                # Broken, or shut down by close() while
                                # this batch ran: degrade the same way.
                                raise BrokenProcessPool(str(error)) from error
                            raise
                        inflight[future] = index
                        submitted_at[future] = time.monotonic()
                    if not inflight:
                        return
                    finished, _pending = wait(inflight, return_when=FIRST_COMPLETED)
                    for future in finished:
                        # Read the result before dropping the future from
                        # inflight: if it raises (broken pool), the
                        # fallback below still knows about this index.
                        payloads, seconds = future.result()
                        index = inflight.pop(future)
                        results[index] = payloads
                        observe_shard_seconds(shards[index], seconds)
                        _count_pool_trials(shards[index], payloads)
                        start = submitted_at.pop(future)
                        self._note_shard(
                            batch_span,
                            index,
                            len(shards[index]),
                            "local-pool",
                            start,
                            queue_wait=start - dispatch_start,
                        )
                        record(index, results[index])
            except (
                pickle.PicklingError,
                AttributeError,
                TypeError,
                BrokenProcessPool,
                OSError,
            ):
                # Same degradation contract as map_rows: a broken pool
                # falls back to serial, never surfaces as an
                # infrastructure error.  Shards the pool may have dropped
                # go back on the queue to be recomputed (deterministic, so
                # at worst repeated work); this batch stays serial and the
                # next one builds a fresh pool.
                local_state["pool"] = None
                self._retire_pool(pool_now)
                for index in inflight.values():
                    queue.push_front(index)
                run_serial(admit)

        admit = pool is not None
        if pool is not None:
            pool.attach_queue_probe(queue.depth)
        try:
            for worker in live:
                with admit_lock:
                    dispatching.add(id(worker))
                spawn(worker)
            # The calling thread works the local slot while remote shards
            # are in flight.
            run_local(admit)
            while True:
                for thread in threads:
                    thread.join()
                if worker_errors:
                    raise worker_errors[0]  # propagate unexpected errors
                # Anything still missing: shards requeued by a worker that
                # died after the local slot finished, plus 4xx-rejected
                # shards.  Drain them locally (no new admissions, so this
                # terminates); payloads are bit-identical to what the
                # worker would have returned.
                missing = [
                    index
                    for index, payloads in enumerate(results)
                    if payloads is None
                ]
                if not missing:
                    break
                # A worker that died after the local slot drained the
                # queue left its requeued shard sitting there — and that
                # same index is in `missing`.  Drop the residue before
                # re-pushing so no shard runs twice (and record() never
                # fires twice for one shard).
                queue.drain()
                for index in reversed(missing):
                    queue.push_front(index)
                run_local(admit=False)
        finally:
            if pool is not None:
                pool.detach_queue_probe(queue.depth)

        return results, {  # type: ignore[return-value]
            "remote_specs": batch_counters["remote_specs"],
            "failovers": batch_counters["failovers"],
            "num_workers": len(live),
        }

    # ------------------------------------------------------------------
    def submit_job(
        self,
        specs: Iterable[ScenarioSpec],
        max_workers: Optional[int] = None,
        shard_size: Optional[int] = None,
        workers: Optional[WorkersLike] = None,
        job_id: Optional[str] = None,
        recovered: bool = False,
    ) -> BatchJob:
        """Start a batch in the background and return a pollable job handle.

        The HTTP layer maps this to ``POST /jobs`` (job id back
        immediately) and ``GET /jobs/<id>`` (state + partial progress, and
        the full results once done), so long grids never block a request
        thread.  Finished jobs are retained up to :data:`MAX_RETAINED_JOBS`;
        a finished job spills its payloads into the scheduler's
        content-addressed cache when the cache can hold them, keeping only
        their keys and spec dicts (see :class:`BatchJob`).

        With a journal attached, the submission (keys, canonical spec
        dicts, options) is journaled *before* the batch thread starts, so
        a coordinator killed a millisecond after ``POST /jobs`` returns
        still resumes the job on restart.  ``job_id``/``recovered`` are
        for :meth:`recover_jobs`, which resubmits an interrupted job under
        its original id — journaling is idempotent per id, and already
        completed shards resolve as disk-cache hits.
        """
        specs = list(specs)
        # Validate executability *before* the 202-style handle exists: an
        # unhandled kind must be a submit-time error, not a background
        # failure discovered by polling.
        ensure_executable(specs)
        keys = [spec.cache_key(self.engine_version) for spec in specs]
        spec_dicts = [spec.to_dict() for spec in specs]
        job = BatchJob(
            job_id if job_id is not None else uuid.uuid4().hex,
            keys,
            spec_dicts,
            cache=self.cache,
            recovered=recovered,
        )
        if self.journal is not None:
            self._journal_write(
                self.journal.record_submission,
                job.job_id,
                keys,
                spec_dicts,
                options={"max_workers": max_workers, "shard_size": shard_size},
                engine_version=self.engine_version,
            )
        self._register_job(job)

        jobs_running = self._jobs_running

        def _run() -> None:
            jobs_running.add(1)
            try:
                batch = self.run_batch(
                    specs,
                    max_workers,
                    shard_size,
                    workers,
                    on_rows=job._publish,
                    _keys=keys,
                    _journal_job_id=job.job_id,
                )
                job._finish(batch)
                if self.journal is not None:
                    self._journal_write(
                        self.journal.record_state,
                        job.job_id,
                        "done",
                        stats=batch.to_dict(),
                    )
            except BaseException as error:
                job._fail(error)
                if self.journal is not None:
                    self._journal_write(
                        self.journal.record_state,
                        job.job_id,
                        "error",
                        error=str(error),
                    )
            finally:
                jobs_running.add(-1)

        thread = threading.Thread(
            target=_run, name=f"repro-job-{job.job_id[:8]}", daemon=True
        )
        thread.start()
        return job

    def _register_job(self, job: BatchJob) -> None:
        with self._jobs_lock:
            self._jobs[job.job_id] = job
            while len(self._jobs) > MAX_RETAINED_JOBS:
                # Prefer evicting finished jobs; never drop a running one
                # unless every retained job is still running.
                for job_id, retained in self._jobs.items():
                    if retained.done:
                        del self._jobs[job_id]
                        break
                else:
                    self._jobs.popitem(last=False)
                self._evicted_jobs += 1

    @property
    def evicted_jobs(self) -> int:
        """How many retained jobs the retention cap has silently dropped."""
        with self._jobs_lock:
            return self._evicted_jobs

    def get_job(self, job_id: str) -> Optional[BatchJob]:
        """Look up a previously submitted job (``None`` when unknown)."""
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[BatchJob]:
        """All retained jobs, oldest first."""
        with self._jobs_lock:
            return list(self._jobs.values())

    # ------------------------------------------------------------------
    def recover_jobs(self) -> Dict[str, int]:
        """Rebuild the job table from the journal after a restart.

        Finished jobs come back as spilled handles (keys + spec dicts;
        payloads are read from the cache, recomputing on eviction exactly
        like a live spilled job).  Jobs journaled as ``running`` — the
        coordinator died mid-batch — are *resumed* under their original
        id and options: shards journaled complete resolve as disk-cache
        hits, only the rest re-run, and embedded seeds make the final
        payload bit-identical to an uninterrupted run.  Jobs journaled
        under a different engine version are skipped (their keys are
        unreachable under current hashing; recomputing under stale keys
        would poison the shared cache).

        Returns a summary: ``{"rehydrated", "resumed", "failed",
        "skipped"}`` counts.
        """
        summary = {"rehydrated": 0, "resumed": 0, "failed": 0, "skipped": 0}
        if self.journal is None:
            return summary
        for record in self.journal.load_jobs():
            if record.engine_version != self.engine_version:
                self.journal.note_skipped(
                    f"job {record.job_id}: engine version "
                    f"{record.engine_version!r} != {self.engine_version!r}"
                )
                summary["skipped"] += 1
                continue
            if record.state == "running":
                try:
                    specs = [spec_from_dict(d) for d in record.spec_dicts]
                except Exception as error:
                    self.journal.note_skipped(
                        f"job {record.job_id}: undecodable spec ({error})"
                    )
                    summary["skipped"] += 1
                    continue
                options = record.options
                max_workers = options.get("max_workers")
                shard_size = options.get("shard_size")
                self.submit_job(
                    specs,
                    max_workers=max_workers if isinstance(max_workers, int) else None,
                    shard_size=shard_size if isinstance(shard_size, int) else None,
                    job_id=record.job_id,
                    recovered=True,
                )
                summary["resumed"] += 1
                continue
            job = BatchJob(
                record.job_id,
                record.keys,
                record.spec_dicts,
                cache=self.cache,
                recovered=True,
            )
            if record.state == "error":
                job._fail(
                    InvalidProblemError(record.error or "failed before shutdown")
                )
                summary["failed"] += 1
            else:  # done
                job._finish(
                    BatchResult.from_stats(
                        record.stats,
                        num_scenarios=record.num_scenarios,
                        num_unique=len(set(record.keys)),
                    )
                )
                summary["rehydrated"] += 1
            self._register_job(job)
        return summary


def _count_pool_trials(
    shard: Sequence[ScenarioSpec], payloads: Sequence[dict]
) -> None:
    """Count a pool-computed shard's Monte-Carlo trials in this process.

    ``execute_spec`` counts ``repro_mc_trials_total`` in whatever process
    runs it, and a pool child's registry never reaches ``/metrics``; the
    serving process counts those shards from their payloads instead, with
    the same budget ``execute_spec`` uses.
    """
    for spec, payload in zip(shard, payloads):
        if isinstance(spec, MonteCarloFaultsSpec):
            fixed = spec.num_trials
        elif isinstance(spec, MonteCarloRandomizedSpec):
            fixed = spec.num_samples
        else:
            continue
        budget = spec.max_trials if spec.max_trials is not None else fixed
        _count_mc_trials(payload["trials_used"], budget)


def _split_shards(
    specs: Sequence[ScenarioSpec],
    shard_size: Optional[int],
    max_workers: Optional[int],
    num_executors: int = 1,
) -> List[tuple]:
    if not specs:
        return []
    if shard_size is None:
        local_workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        # Executors beyond the local pool (remote workers) each count once:
        # a remote shard is one HTTP round-trip whatever its size, and the
        # worker parallelises internally.
        shard_size = suggest_shard_size(
            len(specs), max(1, local_workers) + max(0, num_executors - 1)
        )
    if shard_size < 1:
        raise InvalidProblemError(f"shard_size must be positive, got {shard_size}")
    return [
        tuple(specs[lo : lo + shard_size]) for lo in range(0, len(specs), shard_size)
    ]


# ----------------------------------------------------------------------
# Grid helpers: canonical spec lists matching the serial sweeps
# ----------------------------------------------------------------------
def simulate_grid_specs(
    parameters: Iterable[Tuple[int, int, int]],
    horizon: float = 1e4,
    engine: str = DEFAULT_ENGINE,
) -> List[SimulateSpec]:
    """One :class:`SimulateSpec` per ``(m, k, f)`` triple.

    A batch of these evaluates to exactly the rows of
    :func:`repro.analysis.sweep.sweep_optimal_strategies` for the same
    grid, horizon and engine.
    """
    return [
        SimulateSpec(
            num_rays=m, num_robots=k, num_faulty=f, horizon=horizon, engine=engine
        )
        for m, k, f in parameters
    ]


def montecarlo_grid_specs(
    parameters: Iterable[Tuple[int, int, int]],
    horizon: float = 1e3,
    num_trials: int = 256,
    seed: SeedLike = 0,
    engine: str = DEFAULT_ENGINE,
) -> List[MonteCarloFaultsSpec]:
    """One seeded :class:`MonteCarloFaultsSpec` per ``(m, k, f)`` triple.

    Per-scenario seeds are spawned from ``seed`` with the same
    ``SeedSequence`` derivation as
    :func:`repro.analysis.sweep.sweep_random_faults`, so the scheduled
    batch is bit-identical to the serial sweep row for row.
    """
    parameters = list(parameters)
    seeds = spawn_seeds(seed, len(parameters))
    return [
        MonteCarloFaultsSpec(
            num_rays=m,
            num_robots=k,
            num_faulty=f,
            num_trials=num_trials,
            seed=row_seed,
            horizon=horizon,
            engine=engine,
        )
        for (m, k, f), row_seed in zip(parameters, seeds)
    ]
