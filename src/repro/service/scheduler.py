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
4. **Pull dispatch** — shards go into one ledger and every executor slot
   *pulls* the next shard when it is free: the local slot (the
   scheduler's one process pool — :func:`repro.analysis.sweep.make_row_pool`
   — built on the first batch that needs it and reused by every later
   batch; serial when one worker suffices or the pool breaks) plus, given
   a :class:`~repro.service.remote.RemoteWorkerPool` (or worker URLs,
   which the scheduler builds into a pool it closes itself), one thread
   per live remote ``repro serve`` worker.  A local-only batch is the
   same loop with zero remote slots.  A slow or loaded worker naturally
   takes fewer shards (backpressure-aware placement).  A slot that fails
   hands its shard back — a dead worker or a broken pool to the queue, a
   rejecting worker to the local slot — so the batch always completes,
   and a worker revived mid-batch (by the pool's
   :class:`~repro.service.remote.WorkerSupervisor` or a concurrent batch's
   refresh) gets a slot again while shards remain.

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
from concurrent.futures import Future
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
    ensure_executable,
    execute_shard,
    execute_shard_timed,
    execute_spec,
    observe_pool_shard,
)
from .journal import JobJournal
from .remote import RemoteWorker, RemoteWorkerError, RemoteWorkerPool
from .telemetry import _NULL_SPAN, MetricsRegistry, Tracer
from .spec import (
    ENGINE_VERSION,
    MonteCarloFaultsSpec,
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
#: retires a worker's slot for the rest of the batch.  The
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

        The read counts no cache request (the row was stored when the job
        finished), so streamed and plain runs report the same cache stats.
        A miss means the entry was evicted from the local tiers; its spec
        dict recomputes it bit-identically (seeded determinism), and the
        put saves the next reader the work.
        """
        assert self._cache is not None
        payload = self._cache.peek(key)
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
    """The one shard ledger of a batch: each shard is waiting, held,
    local-only or done.

    :meth:`take` hands the next waiting shard to whichever slot asks first
    — that is the whole backpressure mechanism — and the slot holds it
    until :meth:`complete` or :meth:`hand_back` (its executor failed: the
    shard goes to the front of the queue or, rejected by a worker, to the
    local slot alone).  :meth:`fail` ends the batch early.  Every change
    to the shared queue moves ``gauge`` (``repro_shard_queue_depth``), so
    concurrent batches sum to the cluster-visible depth and a finished
    batch nets to zero.
    """

    def __init__(self, num_shards: int, gauge: telemetry.Gauge) -> None:
        self._waiting = deque(range(num_shards))
        self._local_only: List[int] = []
        self._undone = num_shards
        self.error: Optional[BaseException] = None
        # Plain critical sections take the lock itself; the condition over
        # it is only for the local slot's wait and its wake-ups.
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._gauge = gauge
        gauge.add(num_shards)

    def depth(self) -> int:
        """Shards waiting on the shared queue (local-only ones excluded)."""
        return len(self._waiting)

    def take(self, local: bool) -> Optional[int]:
        """Hold the next shard for a slot; ``None`` when none is for it."""
        with self._lock:
            if self.error is not None:
                return None
            if local and self._local_only:
                return self._local_only.pop()
            if not self._waiting:
                return None
            index = self._waiting.popleft()
        self._gauge.add(-1)
        return index

    def complete(self) -> None:
        with self._lock:
            self._undone -= 1
            if not self._undone:  # all the local slot waits for here
                self._cond.notify_all()

    def hand_back(self, index: int, local_only: bool = False) -> None:
        with self._lock:
            if local_only:
                self._local_only.append(index)
            else:
                self._waiting.appendleft(index)
            self._cond.notify_all()
        if not local_only:
            self._gauge.add(1)

    def fail(self, error: BaseException) -> None:
        with self._lock:
            if self.error is None:
                self.error = error
            self._cond.notify_all()

    def wake(self, _future: object = None) -> None:
        """Done-callback of local futures: re-check :meth:`wait_local`."""
        with self._lock:
            self._cond.notify_all()

    def wait_local(self, can_take: bool, inflight: Iterable[Future]) -> bool:
        """Block the local slot until a shard is there for it to take
        (when ``can_take``), one of its ``inflight`` futures is done, or
        the batch is over.  True once every shard is done; raises the
        error of a failed batch."""
        with self._cond:
            self._cond.wait_for(
                lambda: self.error is not None
                or not self._undone
                or (can_take and bool(self._waiting or self._local_only))
                or any(future.done() for future in inflight)
            )
        if self.error is not None:
            raise self.error
        return not self._undone


@dataclass(eq=False)
class _RemoteSlot:
    """One remote worker's slot: a thread pulling shards while any wait.

    The thread exits when the queue is empty or the worker fails; the
    local slot starts a fresh one if the worker is live while shards
    wait.  Only that thread writes the counters.
    """

    worker: RemoteWorker
    thread: Optional[threading.Thread] = None
    rejects: int = 0  # 4xx in a row; the maximum retires it for the batch
    specs: int = 0
    failovers: int = 0


class _SerialSlot:
    """The local slot run in-process: each shard inline, on the calling
    thread.  With one shard in flight at a time, the slot is itself the
    (already done) future ``submit`` returns."""

    executor = "local-serial"
    capacity = 1
    #: Nothing is a slot failure: an error in a shard is the batch's error.
    failures: Tuple[type, ...] = ()

    def submit(self, shard: Sequence[ScenarioSpec]) -> "_SerialSlot":
        self.payloads = execute_shard(shard)
        return self

    @staticmethod
    def done() -> bool:
        return True

    def result(self) -> list:
        return self.payloads

    @staticmethod
    def collect(shard: Sequence[ScenarioSpec], payloads: list) -> list:
        return payloads


class _PoolSlot:
    """The local slot over the scheduler's process pool: up to
    ``capacity`` shards in flight."""

    executor = "local-pool"
    #: What a broken pool raises from ``submit`` or a future's result.
    failures = (
        pickle.PicklingError, AttributeError, TypeError, BrokenProcessPool, OSError
    )

    def __init__(self, pool: ProcessPoolExecutor, capacity: int) -> None:
        self.pool = pool
        self.capacity = capacity

    def submit(self, shard: Sequence[ScenarioSpec]) -> "Future[tuple]":
        try:
            return self.pool.submit(execute_shard_timed, shard)
        except RuntimeError as error:
            # Broken, or shut down by close() while this batch ran:
            # degrade the same way.
            raise BrokenProcessPool(str(error)) from error

    #: The shard's payloads, its timings and trial counts observed here.
    collect = staticmethod(observe_pool_shard)


class _Dispatch:
    """One batch's shards, pulled through its slots until the ledger is done.

    Each live remote worker has a slot whose thread runs :meth:`run_remote`;
    the local slot — the scheduler's process pool or serial — runs
    :meth:`run_local` on the thread that called ``run_batch``.  A local-only
    batch is the same loop with no remote slots.  A slot failure follows
    one rule: a dead worker or a broken pool hands its shards back to the
    queue and the slot retires (the serial slot takes over from a pool),
    while a worker's 4xx hands the shard to the local slot and retires
    the worker's slot only after ``_MAX_CONSECUTIVE_REJECTS`` in a row.
    """

    def __init__(
        self,
        scheduler: "ScenarioScheduler",
        shards: List[tuple],
        workers: Optional[RemoteWorkerPool],
        record: Callable[[int, Sequence[dict]], None],
        batch_span,
    ) -> None:
        self.scheduler = scheduler
        self.shards = shards
        self.workers = workers
        self.record = record
        self.batch_span = batch_span
        self.ledger = _ShardQueue(len(shards), scheduler._queue_depth)
        self.remote: Dict[RemoteWorker, _RemoteSlot] = {}
        self.start = time.monotonic()

    def run(self, local: Union[_SerialSlot, _PoolSlot]) -> None:
        workers = self.workers
        if workers is not None:
            workers.attach_queue_probe(self.ledger.depth)
        try:
            self.run_local(local)
            for slot in self.remote.values():
                slot.thread.join()
        except BaseException as error:
            self.ledger.fail(error)  # the remote slots stop pulling
            raise
        finally:
            if workers is not None:
                workers.detach_queue_probe(self.ledger.depth)

    def admit(self) -> None:
        """Start a puller for each live worker that has none, while shards
        wait — the batch's first workers and any revived mid-batch alike.
        A slot retired for rejecting shards stays retired."""
        if self.workers is None or not self.ledger.depth():
            return
        for worker in self.workers.live_workers():
            slot = self.remote.setdefault(worker, _RemoteSlot(worker))
            running = slot.thread is not None and slot.thread.is_alive()
            if running or slot.rejects >= _MAX_CONSECUTIVE_REJECTS:
                continue
            slot.thread = threading.Thread(
                target=self.run_remote, args=(slot,), name="repro-remote", daemon=True
            )
            slot.thread.start()

    def complete(
        self,
        index: int,
        payloads: list,
        executor: str,
        start: float,
        taken: float,
        worker: Optional[str] = None,
    ) -> None:
        """Shard ``index``, taken off the ledger at ``taken`` and run from
        ``start``, landed: observe it, record it, mark it done.

        Exactly one ``shard`` span per *successful* execution, parented
        explicitly to the batch span (most land off the batch's thread);
        failed remote attempts are ``failover`` spans, so a healthy
        batch's shard-span count equals its shard count.
        """
        scheduler, span = self.scheduler, self.batch_span
        duration = time.monotonic() - start
        scheduler._shard_seconds[executor].observe(duration)
        if span is not None and span.trace_id:
            attrs = {
                "shard": index,
                "num_specs": len(self.shards[index]),
                "executor": executor,
            }
            if worker is not None:
                attrs["worker"] = worker
            attrs["queue_wait_seconds"] = taken - self.start
            if worker is not None:
                attrs["serialize_seconds"] = start - taken
            scheduler.tracer.record_span(
                "shard", span.trace_id, start, duration, parent=span, attrs=attrs
            )
        self.record(index, payloads)
        self.ledger.complete()

    def run_remote(self, slot: _RemoteSlot) -> None:
        """Pull shards for one worker until none wait or its slot retires."""
        try:
            while True:
                index = self.ledger.take(local=False)
                if index is None:
                    return
                shard = self.shards[index]
                taken = time.monotonic()
                shard_dicts = [spec.to_dict() for spec in shard]
                start = time.monotonic()
                try:
                    payloads = slot.worker.evaluate_shard(shard_dicts)
                except RemoteWorkerError as error:
                    if self.fail_over(slot, index, error, start):
                        return
                    continue
                slot.rejects = 0
                slot.specs += len(shard)
                self.workers.note_remote(len(shard))
                self.complete(
                    index, payloads, "remote", start, taken, worker=slot.worker.url
                )
        except BaseException as error:  # raised on the calling thread
            self.ledger.fail(error)

    def fail_over(
        self, slot: _RemoteSlot, index: int, error: RemoteWorkerError, start: float
    ) -> bool:
        """The failure rule for a remote attempt; True retires the slot.

        A worker that died — or was marked dead elsewhere, which
        ``evaluate_shard`` refuses — hands the shard back to the queue.  A
        4xx hands it to the local slot, which surfaces the real error if
        there is one; since a rejection is far cheaper than an evaluation,
        a worker rejecting *everything* would otherwise race the healthy
        slots to the whole queue.
        """
        worker, scheduler, span = slot.worker, self.scheduler, self.batch_span
        dead = bool(error.worker_dead or worker.alive is False)
        self.workers.note_failover()
        slot.failovers += 1
        scheduler._failovers_total.inc()
        if span is not None and span.trace_id:
            scheduler.tracer.record_span(
                "failover",
                span.trace_id,
                start,
                time.monotonic() - start,
                parent=span,
                attrs={
                    "shard": index,
                    "worker": worker.url,
                    "error": str(error),
                    "worker_dead": dead,
                },
            )
        if dead:
            self.workers.mark_dead(worker, error)
        else:
            slot.rejects += 1
        self.ledger.hand_back(index, local_only=not dead)
        return dead or slot.rejects >= _MAX_CONSECUTIVE_REJECTS

    def run_local(self, slot: Union[_SerialSlot, _PoolSlot]) -> None:
        """Work the local slot until the ledger says every shard is done.

        Up to ``capacity`` shards in flight, refilled as each lands, so
        the slot competes with the remote slots instead of owning a fixed
        share; with nothing to take it waits on the ledger, so a shard a
        worker hands back late is still its to run.
        """
        ledger = self.ledger
        inflight: Dict[Future, Tuple[int, float]] = {}
        while True:
            self.admit()
            while len(inflight) < slot.capacity:
                index = ledger.take(local=True)
                if index is None:
                    break
                taken = time.monotonic()
                try:
                    future = slot.submit(self.shards[index])
                except slot.failures:
                    slot = self.retire(slot, inflight, index)
                    continue
                if not future.done():
                    future.add_done_callback(ledger.wake)
                inflight[future] = (index, taken)
            landed = [future for future in inflight if future.done()]
            if not landed:
                if ledger.wait_local(len(inflight) < slot.capacity, inflight):
                    return
                continue
            for future in landed:
                index, taken = inflight.pop(future)
                try:
                    payloads = slot.collect(self.shards[index], future.result())
                except slot.failures:
                    slot = self.retire(slot, inflight, index)
                    break
                self.complete(index, payloads, slot.executor, taken, taken)

    def retire(
        self, slot: _PoolSlot, inflight: Dict[Future, Tuple[int, float]], index: int
    ) -> _SerialSlot:
        """A broken pool is never a batch error: shard ``index`` and the
        others in flight go back on the queue (at worst repeated work), the
        serial slot takes over, and the next batch builds a fresh pool."""
        for held in [index] + [held for held, _taken in inflight.values()]:
            self.ledger.hand_back(held)
        inflight.clear()
        self.scheduler._retire_pool(slot.pool)
        return _SerialSlot()


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

        num_unique, payload_by_key, hit_keys, pending = self._consult_cache(
            keys, specs, trace_phases
        )

        journal_id = _journal_job_id if self.journal is not None else None
        if journal_id is not None and hit_keys:
            # Cache hits are durably resolved for this job too: journaling
            # them keeps the completion set equal to the job's key set at
            # the end of an uninterrupted run.
            self._journal_write(self.journal.record_completed, journal_id, hit_keys)

        rows_lock = threading.Lock()

        def publish(pairs: List[Tuple[str, dict]]) -> None:
            # Serialised: concurrent remote slots never interleave
            # inside the callback.
            if on_rows is not None and pairs:
                with rows_lock:
                    on_rows(pairs)

        publish([(key, payload_by_key[key]) for key in hit_keys])

        num_executors = 1 + (len(pool) if pool is not None else 0)
        with self.tracer.span("shard_build") if trace_phases else _NULL_SPAN as span:
            # Key lists aligned shard-for-shard with ``shards``, so a
            # completed shard can be cached + journaled immediately.
            shards, shard_keys = _split_shards(
                pending, shard_size, max_workers, num_executors
            )
            span.set_attr("num_shards", len(shards))

        def record(index: int, payloads: Sequence[dict]) -> None:
            # Called (possibly from a remote slot's thread) the moment shard
            # ``index`` completes: its payloads join the batch's results and
            # become durable — cache first, then the journal row that
            # declares them recoverable — before they are published, so a
            # crash can under-journal but never journal a key whose payload
            # was not stored.
            pairs = list(zip(shard_keys[index], payloads))
            for key, payload in pairs:
                self.cache.put(key, payload)
                payload_by_key[key] = payload
            if journal_id is not None:
                self._journal_write(
                    self.journal.record_completed, journal_id, shard_keys[index]
                )
            publish(pairs)

        dispatch = self._dispatch(shards, pool, max_workers, record, batch_span)

        return BatchResult(
            results=tuple(payload_by_key[key] for key in keys),
            num_scenarios=len(specs),
            num_unique=num_unique,
            cache_hits=len(hit_keys),
            evaluated=len(pending),
            num_shards=len(shards),
            remote_evaluated=dispatch["remote_specs"],
            failovers=dispatch["failovers"],
            num_remote_workers=dispatch["num_workers"],
        )

    def _consult_cache(
        self, keys: List[str], specs: List[ScenarioSpec], trace_phases: bool
    ) -> Tuple[int, Dict[str, dict], List[str], List[Tuple[str, ScenarioSpec]]]:
        """Dedup, then one cache lookup per unique key.

        Returns ``(num_unique, payload_by_key, hit_keys, pending)``:
        ``pending`` is the ``(key, spec)`` of every unique miss, in first
        occurrence order.
        """
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

        payload_by_key: Dict[str, dict] = {}
        pending: List[Tuple[str, ScenarioSpec]] = []
        hit_keys: List[str] = []
        with self.tracer.span("cache_consult") if trace_phases else _NULL_SPAN as span:
            for key, spec in zip(unique_keys, unique_specs):
                payload = self.cache.get(key)
                if payload is not None:
                    payload_by_key[key] = payload
                    hit_keys.append(key)
                else:
                    pending.append((key, spec))
            span.set_attr("cache_hits", len(hit_keys))
        return len(unique_keys), payload_by_key, hit_keys, pending

    # ------------------------------------------------------------------
    def _dispatch(
        self,
        shards: List[tuple],
        pool: Optional[RemoteWorkerPool],
        max_workers: Optional[int],
        record: Callable[[int, Sequence[dict]], None],
        batch_span=None,
    ) -> Dict[str, int]:
        """Pull-based dispatch of ``shards`` over the local slot and ``pool``
        (see :class:`_Dispatch`); returns the batch's remote counters.

        ``record(index, payloads)`` fires once per completed shard, from
        whichever thread finished it — the caller uses it for cache and
        journal writes and row publication.  Placement follows each slot's
        actual throughput (a slow or loaded worker simply pulls less
        often), while results stay bit-identical because placement never
        changes what a seeded spec computes.
        """
        if not shards:
            return {"remote_specs": 0, "failovers": 0, "num_workers": 0}
        live = pool.refresh() if pool is not None else []
        # One worker or one shard runs in-process; anything else shares the
        # scheduler's long-lived pool, at most `max_workers` shards at once
        # (serial too when the pool cannot be built).
        requested = max_workers if max_workers is not None else (os.cpu_count() or 1)
        local_pool = self._local_pool() if requested > 1 and len(shards) > 1 else None
        dispatch = _Dispatch(self, shards, pool, record, batch_span)
        dispatch.run(
            _SerialSlot()
            if local_pool is None
            else _PoolSlot(local_pool, min(requested, self._pool_size))
        )
        remote = dispatch.remote.values()
        return {
            "remote_specs": sum(slot.specs for slot in remote),
            "failovers": sum(slot.failovers for slot in remote),
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


def _split_shards(
    pending: Sequence[Tuple[str, ScenarioSpec]],
    shard_size: Optional[int],
    max_workers: Optional[int],
    num_executors: int = 1,
) -> Tuple[List[tuple], List[List[str]]]:
    """Cut the ``(key, spec)`` misses into shards: the spec tuples, and
    the key lists aligned with them."""
    if not pending:
        return [], []
    if shard_size is None:
        local_workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        # Executors beyond the local pool (remote workers) each count once:
        # a remote shard is one HTTP round-trip whatever its size, and the
        # worker parallelises internally.
        shard_size = suggest_shard_size(
            len(pending), max(1, local_workers) + max(0, num_executors - 1)
        )
    if shard_size < 1:
        raise InvalidProblemError(f"shard_size must be positive, got {shard_size}")
    chunks = [
        pending[lo : lo + shard_size] for lo in range(0, len(pending), shard_size)
    ]
    return (
        [tuple(spec for _key, spec in chunk) for chunk in chunks],
        [[key for key, _spec in chunk] for chunk in chunks],
    )


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
