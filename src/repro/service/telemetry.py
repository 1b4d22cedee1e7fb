"""Cluster-wide telemetry: metrics registry, trace spans and exporters.

Dependency-free (stdlib only) observability for the serving layer.  Three
pieces, composable but independently usable:

* :class:`MetricsRegistry` — named :class:`Counter`\\ s, :class:`Gauge`\\ s
  and :class:`Histogram`\\ s with optional labels.  Histograms use **fixed
  log-scale buckets** (:data:`BUCKET_BOUNDS`, four per decade from 1 µs to
  ~56 s), so two histograms taken on different machines merge
  bucket-for-bucket — cluster-wide percentiles are just an elementwise sum
  (:func:`merge_histograms`) followed by :func:`histogram_percentile`.
  :meth:`MetricsRegistry.render_prometheus` emits the Prometheus text
  exposition format (served at ``GET /metrics``);
  :meth:`MetricsRegistry.snapshot` the JSON form (``GET /metrics.json``)
  that coordinators fetch from workers to merge.

* :class:`Tracer` — context-manager :class:`Span`\\ s with monotonic-clock
  durations, parent ids and per-span attributes, recorded per trace into a
  bounded ring buffer.  Spans nest implicitly within a thread (a span
  opened inside another becomes its child) and explicitly across threads
  (``parent=``), which is how per-shard spans in dispatcher threads attach
  to the batch span.  Exporters: :meth:`Tracer.span_tree` (the JSON served
  by ``GET /trace/<job_id>``) and :meth:`Tracer.chrome_trace` (Chrome
  ``trace_event`` JSON, loadable in ``chrome://tracing`` / Perfetto —
  ``repro trace <job_id> --chrome out.json``).

* Module-level defaults :data:`METRICS` and :data:`TRACER` — the
  process-wide registry/tracer every instrumented module (cache, remote,
  journal, execute) records into, so one ``repro serve`` process exposes
  everything it did at its own ``/metrics``.  The remote pool's transport
  series live here too: ``repro_remote_connections_total`` (labels
  ``worker``/``event`` ∈ dial, reuse, redial — the keep-alive pool's hit
  rate and stale-socket recoveries) and ``repro_remote_wire_bytes_total``
  (labels ``worker``/``direction`` ∈ sent, received — the JSON request
  and response bodies of shard ``POST /batch`` traffic).  The server adds
  ``repro_http_errors_total`` (same templated path/method labels as
  ``repro_http_requests_total``) for unhandled handler exceptions turned
  into structured 500s.  The scheduler and server
  accept private instances for in-process test isolation.  A global kill
  switch (:func:`set_enabled`) turns every ``observe``/``inc``/``span``
  into a no-op so the overhead itself is measurable
  (``benchmarks/bench_remote.py`` records it in ``extra_info``).

Counter/gauge/histogram writes are thread-safe (one small lock per
instrument); reads are consistent snapshots.  Nothing here ever raises
into an instrumented hot path.
"""

from __future__ import annotations

import bisect
import itertools
import json
import threading
import time
import uuid
from collections import OrderedDict
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "METRICS",
    "TRACER",
    "set_enabled",
    "enabled",
    "merge_histograms",
    "histogram_percentile",
    "summarize_histogram",
    "flag_stragglers",
    "render_span_tree",
    "parse_prometheus",
    "STRAGGLER_FACTOR",
    "STRAGGLER_MIN_SECONDS",
]

#: Fixed log-scale histogram bucket upper bounds, in seconds: four per
#: decade from 1 µs to 10^1.75 ≈ 56 s (an implicit +Inf bucket catches the
#: rest).  Fixed — never derived from data — so histograms recorded by any
#: two processes in the cluster merge bucket-for-bucket.
BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    round(10.0 ** (decade + step / 4.0), 12)
    for decade in range(-6, 2)
    for step in range(4)
)

_NUM_BUCKETS = len(BUCKET_BOUNDS) + 1  # +Inf overflow bucket

#: A worker is flagged as a straggler when its p95 shard latency exceeds
#: ``STRAGGLER_FACTOR`` times the cluster-merged median (and an absolute
#: floor, so microsecond jitter on an idle cluster never flags anyone).
STRAGGLER_FACTOR = 4.0
STRAGGLER_MIN_SECONDS = 1e-3

_enabled = True


def set_enabled(flag: bool) -> None:
    """Globally enable/disable recording (rendering always works).

    The kill switch exists so telemetry overhead is itself measurable:
    ``bench_remote`` runs the same batch with recording on and off and
    reports the delta.  Disabling drops new observations and spans; data
    already recorded stays readable.
    """
    global _enabled
    _enabled = bool(flag)


def enabled() -> bool:
    """True while recording is globally enabled (the default)."""
    return _enabled


def _label_key(labels: Optional[Mapping[str, str]]) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (thread-safe)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (>= 0) to the counter; no-op when disabled."""
        if not _enabled or amount <= 0:
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (thread-safe)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        if not _enabled:
            return
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        if not _enabled:
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Log-scale bucketed histogram over :data:`BUCKET_BOUNDS` (seconds).

    Mergeable by construction: every histogram in the fleet shares the
    same fixed bounds, so :func:`merge_histograms` can sum snapshots from
    any number of processes and :func:`histogram_percentile` reads
    cluster-wide p50/p95/p99 off the merged counts.  Usable standalone
    (``Histogram()``) or through a :class:`MetricsRegistry`.
    """

    __slots__ = ("name", "labels", "_counts", "_sum", "_count", "_lock")

    def __init__(self, name: str = "", labels: Tuple[Tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self._counts = [0] * _NUM_BUCKETS
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (seconds); no-op when disabled."""
        if not _enabled:
            return
        index = bisect.bisect_left(BUCKET_BOUNDS, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self) -> dict:
        """``{"buckets": [...], "sum": float, "count": int}`` (consistent)."""
        with self._lock:
            return {
                "buckets": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }

    def percentile(self, quantile: float) -> float:
        """Estimated value at ``quantile`` (0..1); 0.0 when empty."""
        return histogram_percentile(self.snapshot(), quantile)


def merge_histograms(snapshots: Iterable[Optional[dict]]) -> dict:
    """Elementwise sum of histogram snapshots (malformed ones skipped).

    This is the cluster-merge primitive: snapshots fetched from any number
    of workers' ``GET /metrics.json`` add bucket-for-bucket because every
    process shares :data:`BUCKET_BOUNDS`.
    """
    merged = {"buckets": [0] * _NUM_BUCKETS, "sum": 0.0, "count": 0}
    for snapshot in snapshots:
        if not isinstance(snapshot, dict):
            continue
        buckets = snapshot.get("buckets")
        if not isinstance(buckets, list) or len(buckets) != _NUM_BUCKETS:
            continue
        try:
            for index, value in enumerate(buckets):
                merged["buckets"][index] += int(value)
            merged["sum"] += float(snapshot.get("sum", 0.0))
            merged["count"] += int(snapshot.get("count", 0))
        except (TypeError, ValueError):
            continue
    return merged


def histogram_percentile(snapshot: Optional[dict], quantile: float) -> float:
    """Value at ``quantile`` from a snapshot: the matched bucket's upper bound.

    Conservative (never underestimates within bucket resolution); the
    overflow bucket reports the larger of the top finite bound and the
    mean, so a histogram dominated by huge values still reads sensibly.
    Empty or malformed snapshots read 0.0.
    """
    if not isinstance(snapshot, dict):
        return 0.0
    buckets = snapshot.get("buckets")
    total = snapshot.get("count", 0)
    if not isinstance(buckets, list) or len(buckets) != _NUM_BUCKETS or not total:
        return 0.0
    quantile = min(max(quantile, 0.0), 1.0)
    threshold = quantile * total
    cumulative = 0
    for index, count in enumerate(buckets):
        cumulative += count
        if cumulative >= threshold and cumulative > 0:
            if index < len(BUCKET_BOUNDS):
                return BUCKET_BOUNDS[index]
            break
    mean = float(snapshot.get("sum", 0.0)) / total
    return max(BUCKET_BOUNDS[-1], mean)


def summarize_histogram(snapshot: Optional[dict]) -> dict:
    """Count + p50/p95/p99 block used by ``GET /workers`` and ``repro top``."""
    count = snapshot.get("count", 0) if isinstance(snapshot, dict) else 0
    return {
        "count": int(count) if isinstance(count, (int, float)) else 0,
        "p50_seconds": histogram_percentile(snapshot, 0.50),
        "p95_seconds": histogram_percentile(snapshot, 0.95),
        "p99_seconds": histogram_percentile(snapshot, 0.99),
    }


def flag_stragglers(entries: Sequence[dict], cluster_p50: float) -> None:
    """Set ``entry["straggler"]`` in place on per-worker latency entries.

    A worker straggles when its p95 exceeds :data:`STRAGGLER_FACTOR` times
    the cluster-merged median shard latency (floored at
    :data:`STRAGGLER_MIN_SECONDS`).  Comparing p95 against the *merged*
    p50 — not the per-worker median — means one slow node among fast ones
    is flagged even in a two-node cluster, where a median over per-worker
    p95s would be dragged up by the straggler itself.
    """
    threshold = max(cluster_p50 * STRAGGLER_FACTOR, STRAGGLER_MIN_SECONDS)
    for entry in entries:
        entry["straggler"] = bool(
            entry.get("count", 0) > 0 and entry.get("p95_seconds", 0.0) > threshold
        )


class MetricsRegistry:
    """Thread-safe registry of named counters, gauges and histograms.

    Instruments are created on first access and shared thereafter —
    ``registry.counter("repro_batches_total").inc()`` is the whole usage
    pattern.  A name is bound to exactly one instrument kind; labels
    (sorted key/value pairs) distinguish series under one name.  ``help``
    text is kept from the first registration and emitted in the
    Prometheus exposition.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: "OrderedDict[Tuple[str, Tuple[Tuple[str, str], ...]], object]" = (
            OrderedDict()
        )
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}
        self._since = time.time()

    @property
    def since(self) -> float:
        """Unix timestamp of registry creation (scrapers detect restarts)."""
        return self._since

    def _instrument(self, kind: str, cls, name: str, labels, help: str):
        key = (name, _label_key(labels))
        with self._lock:
            existing_kind = self._kinds.get(name)
            if existing_kind is None:
                self._kinds[name] = kind
                if help:
                    self._help[name] = help
            elif existing_kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {existing_kind}, "
                    f"not {kind}"
                )
            instrument = self._series.get(key)
            if instrument is None:
                instrument = cls(name, key[1])
                self._series[key] = instrument
            return instrument

    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None, help: str = ""
    ) -> Counter:
        """The counter series for ``name``/``labels`` (created on first use)."""
        return self._instrument("counter", Counter, name, labels, help)

    def gauge(
        self, name: str, labels: Optional[Mapping[str, str]] = None, help: str = ""
    ) -> Gauge:
        """The gauge series for ``name``/``labels`` (created on first use)."""
        return self._instrument("gauge", Gauge, name, labels, help)

    def histogram(
        self, name: str, labels: Optional[Mapping[str, str]] = None, help: str = ""
    ) -> Histogram:
        """The histogram series for ``name``/``labels`` (created on first use)."""
        return self._instrument("histogram", Histogram, name, labels, help)

    # -- exporters ------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON form of every series (served at ``GET /metrics.json``).

        ``since`` is the registry's creation timestamp: a scraper seeing
        it move backwards-in-value knows the process restarted and its
        process-lifetime counters reset.
        """
        with self._lock:
            series = list(self._series.items())
            kinds = dict(self._kinds)
        counters: List[dict] = []
        gauges: List[dict] = []
        histograms: List[dict] = []
        for (name, labels), instrument in series:
            entry: Dict[str, object] = {"name": name, "labels": dict(labels)}
            kind = kinds.get(name)
            if kind == "counter":
                entry["value"] = instrument.value
                counters.append(entry)
            elif kind == "gauge":
                entry["value"] = instrument.value
                gauges.append(entry)
            else:
                entry.update(instrument.snapshot())
                histograms.append(entry)
        return {
            "since": self._since,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def find_histogram(self, name: str) -> dict:
        """Merged snapshot of every histogram series under ``name``."""
        with self._lock:
            series = [
                instrument
                for (series_name, _labels), instrument in self._series.items()
                if series_name == name and isinstance(instrument, Histogram)
            ]
        return merge_histograms([instrument.snapshot() for instrument in series])

    def render_prometheus(self) -> str:
        """The Prometheus/OpenMetrics text exposition (``GET /metrics``).

        Histograms render as cumulative ``_bucket{le=...}`` series plus
        ``_sum``/``_count``, exactly the shape ``prometheus`` scrapes.
        """
        snapshot = self.snapshot()
        lines: List[str] = []
        emitted_header: set = set()

        def header(name: str, kind: str) -> None:
            if name in emitted_header:
                return
            emitted_header.add(name)
            help_text = self._help.get(name)
            if help_text:
                lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {kind}")

        for entry in snapshot["counters"]:
            header(entry["name"], "counter")
            lines.append(
                f"{entry['name']}{_format_labels(entry['labels'])} "
                f"{_format_number(entry['value'])}"
            )
        for entry in snapshot["gauges"]:
            header(entry["name"], "gauge")
            lines.append(
                f"{entry['name']}{_format_labels(entry['labels'])} "
                f"{_format_number(entry['value'])}"
            )
        for entry in snapshot["histograms"]:
            name = entry["name"]
            header(name, "histogram")
            cumulative = 0
            for index, bucket_count in enumerate(entry["buckets"]):
                cumulative += bucket_count
                bound = (
                    _format_number(BUCKET_BOUNDS[index])
                    if index < len(BUCKET_BOUNDS)
                    else "+Inf"
                )
                labels = dict(entry["labels"], le=bound)
                lines.append(f"{name}_bucket{_format_labels(labels)} {cumulative}")
            lines.append(
                f"{name}_sum{_format_labels(entry['labels'])} "
                f"{_format_number(entry['sum'])}"
            )
            lines.append(
                f"{name}_count{_format_labels(entry['labels'])} {entry['count']}"
            )
        lines.append(
            f"repro_telemetry_since_seconds {_format_number(snapshot['since'])}"
        )
        return "\n".join(lines) + "\n"


def _format_number(value: float) -> str:
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(str(value))}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class Span:
    """One timed operation inside a trace (use as a context manager).

    Created by :meth:`Tracer.span`; entering starts the monotonic clock
    and pushes the span onto the thread's implicit-parent stack, exiting
    records the finished span into the tracer's ring buffer.  ``set_attr``
    attaches JSON-safe attributes (worker URL, shard index, queue wait).
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attrs",
        "start",
        "duration_seconds",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        attrs: Optional[dict],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = dict(attrs) if attrs else {}
        self.start = 0.0
        self.duration_seconds = 0.0

    def set_attr(self, key: str, value) -> None:
        """Attach one JSON-safe attribute to the span."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        self.start = time.monotonic()
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration_seconds = time.monotonic() - self.start
        if exc_type is not None:
            self.attrs.setdefault("error", str(exc) or exc_type.__name__)
        self._tracer._pop(self)
        self._tracer._record(self)


class _NullSpan:
    """Do-nothing span returned while telemetry is disabled."""

    name = ""
    trace_id = ""
    span_id = None
    parent_id = None
    attrs: dict = {}

    def set_attr(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Bounded ring buffer of per-trace span records.

    A *trace* (keyed by job id for scheduled jobs) collects every span
    recorded under its id, capped at ``max_spans_per_trace`` (excess spans
    are counted in ``dropped_spans``, never stored); the tracer retains
    the ``max_traces`` most recently started traces and evicts the oldest
    beyond that.  All clocks are monotonic; exporters normalise starts to
    the trace's earliest span.
    """

    def __init__(self, max_traces: int = 256, max_spans_per_trace: int = 4096) -> None:
        if max_traces < 1 or max_spans_per_trace < 1:
            raise ValueError("tracer bounds must be positive")
        self.max_traces = int(max_traces)
        self.max_spans_per_trace = int(max_spans_per_trace)
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, dict]" = OrderedDict()
        self._next_span = itertools.count(1)
        self._local = threading.local()

    # -- span creation --------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _next_span_id(self) -> str:
        # itertools.count.__next__ is atomic under the GIL, so span-id
        # allocation needs no lock — spans are created on every dispatcher
        # thread and this sits on the per-shard hot path.
        return f"{next(self._next_span):x}"

    def span(
        self,
        name: str,
        trace_id: Optional[str] = None,
        parent: Optional[Span] = None,
        attrs: Optional[dict] = None,
    ):
        """A new context-manager span.

        With no explicit ``trace_id``/``parent``, both are inherited from
        the innermost span open on *this thread* (implicit nesting); pass
        ``parent=`` to attach a span created on another thread — the
        dispatcher threads do this to parent shard spans to the batch
        span.  Returns a shared no-op span while telemetry is disabled.
        """
        if not _enabled:
            return _NULL_SPAN
        parent_id: Optional[str] = None
        if parent is not None:
            parent_id = parent.span_id
            if trace_id is None:
                trace_id = parent.trace_id
        else:
            stack = self._stack()
            if stack:
                top = stack[-1]
                parent_id = top.span_id
                if trace_id is None:
                    trace_id = top.trace_id
        if trace_id is None:
            trace_id = uuid.uuid4().hex
        return Span(self, name, trace_id, self._next_span_id(), parent_id, attrs)

    def current_span(self) -> Optional[Span]:
        """The innermost span open on *this thread*, or ``None``.

        Lets already-timed sub-operations (e.g. per-chunk Monte-Carlo
        estimation inside an executor call) attach themselves to whatever
        span happens to be open, without threading span objects through
        telemetry-free engine code.
        """
        stack = self._stack()
        return stack[-1] if stack else None

    def record_span(
        self,
        name: str,
        trace_id: str,
        start: float,
        duration_seconds: float,
        parent: Optional[Span] = None,
        attrs: Optional[dict] = None,
    ) -> None:
        """Record an already-timed span (start on the monotonic clock).

        For operations whose start/end are observed outside a ``with``
        block — e.g. local process-pool shards, timed from queue pop to
        future completion.
        """
        if not _enabled:
            return
        span = Span(
            self,
            name,
            trace_id,
            self._next_span_id(),
            parent.span_id if parent is not None else None,
            attrs,
        )
        span.start = start
        span.duration_seconds = duration_seconds
        self._record(span)

    # -- internals ------------------------------------------------------
    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - defensive (exotic exits)
            stack.remove(span)

    def _record(self, span: Span) -> None:
        record = {
            "name": span.name,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "start": span.start,
            "duration_seconds": span.duration_seconds,
            "thread": threading.current_thread().name,
            "attrs": span.attrs,
        }
        with self._lock:
            trace = self._traces.get(span.trace_id)
            if trace is None:
                trace = {"spans": [], "dropped": 0}
                self._traces[span.trace_id] = trace
                while len(self._traces) > self.max_traces:
                    self._traces.popitem(last=False)
            if len(trace["spans"]) >= self.max_spans_per_trace:
                trace["dropped"] += 1
            else:
                trace["spans"].append(record)

    # -- readers / exporters -------------------------------------------
    def trace_ids(self) -> List[str]:
        """Retained trace ids, oldest first."""
        with self._lock:
            return list(self._traces)

    def get_trace(self, trace_id: str) -> Optional[List[dict]]:
        """The raw span records of one trace (copies), or ``None``."""
        with self._lock:
            trace = self._traces.get(trace_id)
            if trace is None:
                return None
            return [dict(span, attrs=dict(span["attrs"])) for span in trace["spans"]]

    def _dropped(self, trace_id: str) -> int:
        with self._lock:
            trace = self._traces.get(trace_id)
            return trace["dropped"] if trace else 0

    def span_tree(self, trace_id: str) -> Optional[dict]:
        """The span tree as JSON (what ``GET /trace/<job_id>`` serves).

        Spans nest under their parents; starts are seconds relative to the
        trace's earliest span, so the payload is stable across process
        restarts (monotonic clocks never leave the process).
        """
        spans = self.get_trace(trace_id)
        if spans is None:
            return None
        base = min((span["start"] for span in spans), default=0.0)
        nodes: Dict[str, dict] = {}
        for span in spans:
            nodes[span["span_id"]] = {
                "name": span["name"],
                "span_id": span["span_id"],
                "parent_id": span["parent_id"],
                "start_seconds": span["start"] - base,
                "duration_seconds": span["duration_seconds"],
                "thread": span["thread"],
                "attrs": span["attrs"],
                "children": [],
            }
        roots: List[dict] = []
        for node in nodes.values():
            parent = nodes.get(node["parent_id"]) if node["parent_id"] else None
            if parent is not None and parent is not node:
                parent["children"].append(node)
            else:
                roots.append(node)
        for node in nodes.values():
            node["children"].sort(key=lambda child: child["start_seconds"])
        roots.sort(key=lambda node: node["start_seconds"])
        return {
            "trace_id": trace_id,
            "num_spans": len(spans),
            "dropped_spans": self._dropped(trace_id),
            "roots": roots,
        }

    def chrome_trace(self, trace_id: str) -> Optional[dict]:
        """Chrome ``trace_event`` JSON for one trace, or ``None``.

        Complete events (``ph: "X"``, microsecond ``ts``/``dur``) on one
        pid, with a thread lane per recording thread (named via ``M``
        metadata events) — drop the file onto ``chrome://tracing`` or
        Perfetto and the batch/shard waterfall renders directly.
        """
        spans = self.get_trace(trace_id)
        if spans is None:
            return None
        base = min((span["start"] for span in spans), default=0.0)
        thread_ids: Dict[str, int] = {}
        events: List[dict] = []
        for span in spans:
            thread = span["thread"]
            if thread not in thread_ids:
                thread_ids[thread] = len(thread_ids) + 1
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": 1,
                        "tid": thread_ids[thread],
                        "args": {"name": thread},
                    }
                )
            events.append(
                {
                    "name": span["name"],
                    "cat": "repro",
                    "ph": "X",
                    "ts": (span["start"] - base) * 1e6,
                    "dur": span["duration_seconds"] * 1e6,
                    "pid": 1,
                    "tid": thread_ids[thread],
                    "args": dict(span["attrs"], span_id=span["span_id"]),
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"trace_id": trace_id},
        }


def render_span_tree(tree: dict) -> str:
    """Human-readable indented rendering of a span tree (``repro trace``)."""
    lines = [
        f"trace {tree.get('trace_id')} — {tree.get('num_spans')} spans"
        + (
            f" ({tree.get('dropped_spans')} dropped)"
            if tree.get("dropped_spans")
            else ""
        )
    ]

    def walk(node: dict, depth: int) -> None:
        duration_ms = node["duration_seconds"] * 1e3
        start_ms = node["start_seconds"] * 1e3
        attrs = node.get("attrs") or {}
        suffix = ""
        if attrs:
            inner = ", ".join(f"{key}={value}" for key, value in sorted(attrs.items()))
            suffix = f"  [{inner}]"
        lines.append(
            f"{'  ' * depth}{node['name']}  +{start_ms:.2f}ms  "
            f"{duration_ms:.2f}ms{suffix}"
        )
        for child in node.get("children", []):
            walk(child, depth + 1)

    for root in tree.get("roots", []):
        walk(root, 1)
    return "\n".join(lines)


def parse_prometheus(text: str) -> Dict[str, float]:
    """Strict parse of a Prometheus text exposition into ``{series: value}``.

    Minimal by design (no third-party client): the smoke test and
    ``repro top`` only need "does every line parse, and what are the
    values".  Raises :class:`ValueError` on any malformed line, which is
    exactly what the CI smoke asserts never happens.
    """
    values: Dict[str, float] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _space, value_text = line.rpartition(" ")
        if not head:
            raise ValueError(f"line {line_number}: no metric name: {line!r}")
        name = head.split("{", 1)[0]
        if not name or not all(
            ch.isalnum() or ch in "_:" for ch in name
        ) or name[0].isdigit():
            raise ValueError(f"line {line_number}: bad metric name: {line!r}")
        if "{" in head and not head.endswith("}"):
            raise ValueError(f"line {line_number}: unterminated labels: {line!r}")
        try:
            value = float(value_text.replace("+Inf", "inf"))
        except ValueError as error:
            raise ValueError(f"line {line_number}: bad value: {line!r}") from error
        values[head] = value
    return values


#: Process-wide default registry: every instrumented module (cache,
#: remote, journal, execute, scheduler, server) records here unless handed
#: a private instance, so one ``repro serve`` process exposes everything
#: it did at its own ``GET /metrics``.
METRICS = MetricsRegistry()

#: Process-wide default tracer (same sharing contract as :data:`METRICS`).
TRACER = Tracer()
