"""Span tracing from inside the benchmark process, with no edits to ``src/``.

:class:`SpanTracer` wraps public functions and methods of the layers (by
replacing the module or class attribute the callers look up) so that each
call records a span: name, start, end, parent span and operation id.  The
wrappers are installed only around traced operations and removed for
untraced ones, so the same run measures the tracing overhead.

Only calls made in the benchmark process are seen: for the cluster
workload the engines run in other processes, and their layers are read
from the servers' own telemetry instead.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import repro.faults.injection as injection
import repro.service.execute as execute
from repro.service import ResultCache, ScenarioScheduler, ScenarioSpec
from repro.strategies.base import Strategy

from .inputs import slot_kind

NameFn = Callable[[tuple, Any], str]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanTracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: Union[str, NameFn],
        attrs: Optional[Callable[[tuple, Any], Dict[str, Any]]] = None,
    ) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(Span("", 0.0, 0.0, parent, tracer.op))
            tracer._stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                span = tracer.spans[index]
                span.start, span.end = start, end
                span.name = name if isinstance(name, str) else name(args, result)
                if attrs is not None and result is not None:
                    span.attrs = attrs(args, result)

        self._patches.append((owner, attr, original, traced))

    def install(self) -> None:
        for owner, attr, _original, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _traced in self._patches:
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def self_times(self) -> List[float]:
        """Each span's duration minus that of its direct children."""
        times = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                times[span.parent] -= span.duration
        return times


def engine_tracer() -> SpanTracer:
    """Spans around the in-process layers: spec, cache, scheduler, engines."""
    tracer = SpanTracer()
    tracer.wrap(ScenarioSpec, "cache_key", "spec.cache_key")
    tracer.wrap(
        ResultCache,
        "get",
        lambda _args, result: "cache.get_hit" if result is not None else "cache.get_miss",
    )
    tracer.wrap(ResultCache, "put", "cache.put")
    tracer.wrap(
        ScenarioScheduler,
        "run_batch",
        "scheduler.run_batch",
        attrs=lambda _args, batch: {
            "num_scenarios": batch.num_scenarios,
            "num_unique": batch.num_unique,
        },
    )
    tracer.wrap(
        execute,
        "execute_spec",
        lambda args, _result: f"execute.{slot_kind(args[0])}",
        attrs=lambda _args, payload: {"trials_used": payload.get("trials_used")},
    )
    tracer.wrap(Strategy, "materialise", "strategies.materialise")
    tracer.wrap(execute, "evaluate_strategy", "simulation.evaluate_strategy")
    tracer.wrap(injection, "simulate_random_faults", "faults.simulate_random_faults")
    tracer.wrap(injection, "sample_fault_trials", "mc.sample_fault_trials")
    tracer.wrap(injection, "fault_detection_times", "mc.fault_detection_times")
    return tracer


EXECUTE_KINDS = (
    "simulate",
    "family",
    "montecarlo_faults",
    "montecarlo_faults_adaptive",
    "montecarlo_randomized",
)


def _median(values: Sequence[float], scale: float) -> float:
    return statistics.median(values) * scale if values else 0.0


def engine_layer_metrics(
    tracer: SpanTracer, factors: Dict[int, float], traced_ops: int
) -> Dict[str, float]:
    """Per-layer metrics of the in-process layers, in reference-host units.

    ``factors`` maps an operation id to its normalisation factor.  A layer
    the workload does not cross reads 0.
    """
    spans = tracer.spans
    self_times = tracer.self_times()

    def norm(span: Span) -> float:
        return span.duration * factors.get(span.op, 1.0)

    def median_of(name: str, scale: float) -> float:
        return _median([norm(span) for span in tracer.by_name(name)], scale)

    metrics: Dict[str, float] = {
        "spec.cache_key_us": median_of("spec.cache_key", 1e6),
        "cache.get_hit_us": median_of("cache.get_hit", 1e6),
        "cache.get_miss_us": median_of("cache.get_miss", 1e6),
        "cache.put_us": median_of("cache.put", 1e6),
    }

    batches = [i for i, span in enumerate(spans) if span.name == "scheduler.run_batch"]
    scenarios = sum(spans[i].attrs.get("num_scenarios", 0) for i in batches)
    unique = sum(spans[i].attrs.get("num_unique", 0) for i in batches)
    metrics["scheduler.dedup_ratio"] = scenarios / unique if unique else 0.0
    metrics["scheduler.overhead_us"] = _median(
        [
            self_times[i] * factors.get(spans[i].op, 1.0)
            / max(1, spans[i].attrs.get("num_scenarios", 1))
            for i in batches
        ],
        1e6,
    )

    executes = [span for span in spans if span.name.startswith("execute.")]
    for kind in EXECUTE_KINDS:
        metrics[f"execute.{kind}_ms"] = median_of(f"execute.{kind}", 1e3)
    metrics["execute.calls"] = len(executes) / traced_ops if traced_ops else 0.0

    materialise = tracer.by_name("strategies.materialise")
    metrics["strategies.materialise_ms"] = median_of("strategies.materialise", 1e3)
    execute_total = sum(span.duration for span in executes)
    metrics["strategies.materialise_share"] = (
        sum(span.duration for span in materialise) / execute_total
        if execute_total
        else 0.0
    )
    metrics["simulation.evaluate_strategy_ms"] = median_of(
        "simulation.evaluate_strategy", 1e3
    )
    metrics["faults.simulate_random_faults_ms"] = median_of(
        "faults.simulate_random_faults", 1e3
    )
    metrics["mc.sample_fault_trials_ms"] = median_of("mc.sample_fault_trials", 1e3)
    metrics["mc.fault_detection_times_ms"] = median_of(
        "mc.fault_detection_times", 1e3
    )
    # What simulate_random_faults spends outside its traced children
    # (materialise, sampling, detection) is building the report records.
    metrics["faults.records_ms"] = _median(
        [
            self_times[i] * factors.get(spans[i].op, 1.0)
            for i, span in enumerate(spans)
            if span.name == "faults.simulate_random_faults"
        ],
        1e3,
    )
    trials = [span.attrs.get("trials_used") or 0 for span in executes]
    metrics["mc.trials_used"] = sum(trials) / traced_ops if traced_ops else 0.0
    return metrics
