#!/usr/bin/env python3
"""Host-normalised benchmark of the scenario service, end to end and per layer.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload grid_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` with the
benchmark's tracing off; ``--trace 1`` reports the per-layer metrics, from
operations that alternate between traced and untraced so the tracing
overhead is measured in the same run.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every operation was correct.

Every time is given in reference-host units: it is scaled by
``PROBE_REF_S / probe``, where ``probe`` is a fixed ~1 ms piece of work
timed between operations while every serving process is idle (see
``probe.py``).  Raw wall-clock values are printed alongside, ungated.
Timings are reported as medians and percentiles, never means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

END_TO_END_UNITS = {
    "setup_s": "s",
    "scenarios_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "first_row_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics and their units.  A workload reports 0 for a layer it
#: does not cross (the in-process workloads have no server; the cluster
#: workload's engines run in other processes).
LAYER_UNITS = {
    "spec.cache_key_us": "us",
    "cache.get_hit_us": "us",
    "cache.get_miss_us": "us",
    "cache.put_us": "us",
    "scheduler.dedup_ratio": "ratio",
    "scheduler.overhead_us": "us",
    "execute.simulate_ms": "ms",
    "execute.family_ms": "ms",
    "execute.montecarlo_faults_ms": "ms",
    "execute.montecarlo_faults_adaptive_ms": "ms",
    "execute.montecarlo_randomized_ms": "ms",
    "execute.calls": "count",
    "strategies.materialise_ms": "ms",
    "strategies.materialise_share": "ratio",
    "simulation.evaluate_strategy_ms": "ms",
    "faults.simulate_random_faults_ms": "ms",
    "mc.sample_fault_trials_ms": "ms",
    "mc.fault_detection_times_ms": "ms",
    "faults.records_ms": "ms",
    "mc.trials_used": "count",
    "server.submit_ms": "ms",
    "remote.shard_rtt_ms": "ms",
    "remote.worker_shard_ms": "ms",
    "remote.shards_per_op": "count",
    "remote.reuse_fraction": "ratio",
    "remote.wire_bytes_per_scenario": "B",
    "stream.done_state_running": "count",
    "sweep.pool_start_ms": "ms",
    "wire.encode_us": "us",
    "wire.decode_us": "us",
    "json.codec_us": "us",
    "trace.overhead_pct": "%",
    "host.probe_ms": "ms",
    "probe.rejected": "count",
}

SETUP_REPEATS = 3
SMOKE_OPS = 3
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def _bootstrap() -> None:
    """Make the checkout's ``src`` importable; keep temporary files inside it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no src/repro under {ROOT}; nothing to benchmark",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [src, ROOT]
    os.chdir(ROOT)
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch


def _tail(values: List[float]) -> Tuple[float, float]:
    """The value with :data:`TAIL_BEYOND` samples above it, and its percentile."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    position = len(ordered) - TAIL_BEYOND - 1
    return ordered[position], 100.0 * (position + 1) / len(ordered)


def _throughput(records, factors, window: int) -> float:
    """Median over windows of ``window`` operations of scenarios per second."""
    rates = []
    for lo in range(0, len(records) - window + 1, window):
        chunk = records[lo : lo + window]
        seconds = sum(op.latency * factors[index] for index, op in chunk)
        rates.append(sum(op.scenarios for _index, op in chunk) / seconds)
    if not rates:  # fewer operations than one window (smoke runs)
        seconds = sum(op.latency * factors[index] for index, op in records)
        rates.append(sum(op.scenarios for _index, op in records) / seconds)
    return statistics.median(rates)


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    from perfbench.probe import PROBE_REF_S, IdleGuard
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    guard = IdleGuard(spread=workload.multi_process)
    attempted = failed = 0
    problems: List[str] = []
    setups: List[Tuple[float, float]] = []  # (raw seconds, factor)
    records: List[tuple] = []  # (op id, traced, OpResult, probe before, probe after)
    tracer = workload.tracer() if trace else None
    rss = 0.0

    def attempt(index: int, traced: bool):
        nonlocal attempted, failed
        attempted += 1
        if traced:
            tracer.op = index
            tracer.install()
        try:
            op, verify = workload.op(index)
        except Exception as error:  # an operation that raised is a failed one
            failed += 1
            problems.append(f"op {index}: {error!r}")
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            if traced:
                tracer.uninstall()
        op_problems = verify()
        if op_problems:
            failed += 1
            problems.extend(f"op {index}: {p}" for p in op_problems[:3])
        return op

    try:
        for repeat in range(1 if smoke else SETUP_REPEATS):
            if repeat:
                workload.teardown()
                guard.pids = []
            before = guard.probe(3)
            start = time.perf_counter()
            workload.setup()
            elapsed = time.perf_counter() - start
            guard.pids = workload.serving_pids
            after = guard.probe(3)
            setups.append((elapsed, PROBE_REF_S / statistics.median([before, after])))

        index = 0
        for _ in range(workload.warmup_ops):
            attempt(index, False)
            index += 1
        workload.start_layer_window()
        probe = guard.probe(workload.probes_per_gap)
        deadline = time.perf_counter() + seconds
        measured = 0
        while time.perf_counter() < deadline and not (smoke and measured >= SMOKE_OPS):
            traced = trace and measured % 2 == 0
            op = attempt(index, traced)
            before, probe = probe, guard.probe(workload.probes_per_gap)
            if op is not None:
                records.append((index, traced, op, before, probe))
            index += 1
            measured += 1
        rss = workload.peak_rss_mb()
        if not records:
            raise RuntimeError("no operation completed")
        # Each operation is scaled by the probes on either side of it: host
        # hiccups last a few operations, and a wider window of probes left
        # them in the tail (grid_cold's tail spread 18-26% across seeds on a
        # noisy host with windows of 3-9 operations, 4-7% with the pair).
        factors = {
            r[0]: PROBE_REF_S / statistics.median([r[3], r[4]]) for r in records
        }
        layers = (
            workload.layer_metrics(
                tracer, factors, [r[0] for r in records if r[1]], len(records)
            )
            if trace
            else {}
        )
    finally:
        workload.teardown()

    untraced = [(r[0], r[2]) for r in records if not r[1]]
    raw = [op.latency for _i, op in untraced]
    latencies = [op.latency * factors[i] for i, op in untraced]
    first_rows = [op.first_row * factors[i] for i, op in untraced]
    tail, tail_pct = _tail(latencies)
    metrics: Dict[str, float] = {
        "setup_s": statistics.median(raw_s * factor for raw_s, factor in setups),
        "scenarios_per_s": _throughput(untraced, factors, workload.window),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "first_row_ms": statistics.median(first_rows) * 1e3,
        "peak_rss_mb": rss,
    }
    probes = [r[4] for r in records]
    ones = {i: 1.0 for i in factors}
    info = {
        "workload": name,
        "seed": seed,
        "inputs_sha256": workload.digest,
        "measured_ops": len(records),
        "tail_percentile": tail_pct,
        "tail_samples": len(latencies),
        "raw": {
            "setup_s": statistics.median(raw_s for raw_s, _f in setups),
            "scenarios_per_s": _throughput(untraced, ones, workload.window),
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_tail_ms": _tail(raw)[0] * 1e3,
            "first_row_ms": statistics.median(op.first_row for _i, op in untraced) * 1e3,
        },
        "probe_ms": statistics.median(probes) * 1e3,
        "probes_rejected": guard.rejected,
        "done_state_running": getattr(workload, "done_state_running", None),
        "problems": problems[:20],
    }
    if trace:
        traced_lat = [r[2].latency * factors[r[0]] for r in records if r[1]]
        layers["trace.overhead_pct"] = (
            (statistics.median(traced_lat) / statistics.median(latencies) - 1.0) * 100.0
            if traced_lat and latencies
            else 0.0
        )
        layers["host.probe_ms"] = info["probe_ms"]
        layers["probe.rejected"] = float(guard.rejected)
        reported = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
    else:
        reported = {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    info["end_to_end"] = metrics
    return {
        "info": info,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": reported,
        },
    }


def _print_report(outcome: dict) -> None:
    info, result = outcome["info"], outcome["result"]
    print(
        f"perfbench {info['workload']} seed={info['seed']} "
        f"inputs_sha256={info['inputs_sha256']}"
    )
    print(
        f"  operations: {result['attempted']} attempted, {result['failed']} failed, "
        f"{info['measured_ops']} measured"
    )
    for name, value in info["end_to_end"].items():
        raw = info["raw"].get(name)
        raw_text = f"   (raw {raw:.6g})" if raw is not None else ""
        print(f"  {name:<16} {value:14.6g} {END_TO_END_UNITS[name]:<4}{raw_text}")
    print(
        f"  op_tail_ms is p{info['tail_percentile']:.2f} of {info['tail_samples']} "
        f"untraced operations ({TAIL_BEYOND} beyond it)"
    )
    print(
        f"  host probe median {info['probe_ms']:.4f} ms, "
        f"{info['probes_rejected']} probes rejected"
    )
    for problem in info["problems"]:
        print(f"  FAILED {problem}")
    if info["done_state_running"] is not None:
        print(
            f"  {info['done_state_running']} of {result['attempted']} terminal stream "
            "events reported state 'running'"
        )
    if set(result["metrics"]) == set(LAYER_UNITS):
        for name, entry in result["metrics"].items():
            print(f"  {name:<38} {entry['value']:14.6g} {entry['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("grid_cold", "grid_warm", "cluster_stream"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"set up once and measure {SMOKE_OPS} operations")
    parser.add_argument("--selftest", action="store_true",
                        help="check input hashing and metric names, then exit")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    _bootstrap()
    from perfbench.procs import become_subreaper, stop_descendants

    become_subreaper()
    try:
        if args.selftest:
            from perfbench.selftest import selftest

            return selftest()
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    finally:
        # Before the result line: a run that leaves a process behind fails.
        stop_descendants()
    _print_report(outcome)
    print(json.dumps(outcome["result"], sort_keys=True))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
