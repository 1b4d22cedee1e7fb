"""Self-tests of the benchmark, run with ``python3 perfbench/run.py --selftest``.

* The same seed gives the same input hash; another seed gives another hash
  with the same per-batch kind mix.
* A smoke run of every workload, traced and untraced, is correct and
  reports exactly the metric names and units listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
from typing import List

from perfbench.inputs import kind_mix
from perfbench.workloads import WORKLOADS


def _batches(workload) -> List[list]:
    """The workload's generated batches (the warm working set in 16s)."""
    if hasattr(workload, "working"):
        return [workload.working[lo : lo + 16] for lo in range(0, len(workload.working), 16)]
    return workload.prefix


def _check_inputs(name: str) -> List[str]:
    problems = []
    first, again, other = (WORKLOADS[name](seed) for seed in (1, 1, 2))
    for workload in (first, again, other):
        workload.make_inputs()
    if first.digest != again.digest:
        problems.append(f"{name}: seed 1 gave two input hashes")
    if first.digest == other.digest:
        problems.append(f"{name}: seeds 1 and 2 gave the same input hash")
    mixes = {
        json.dumps(kind_mix(batch), sort_keys=True)
        for workload in (first, other)
        for batch in _batches(workload)
    }
    if len(mixes) != 1:
        problems.append(f"{name}: per-batch kind mix differs: {sorted(mixes)}")
    return problems


def _check_smoke(name: str, benchmark: dict) -> List[str]:
    from perfbench.run import run

    problems = []
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run(name, seed=3, seconds=60.0, trace=trace, smoke=True)["result"]
        if not result["correct"]:
            problems.append(f"{name} trace={int(trace)}: incorrect run {result}")
        expected = {entry["name"]: entry["unit"] for entry in benchmark[section]}
        reported = {key: entry["unit"] for key, entry in result["metrics"].items()}
        if reported != expected:
            problems.append(
                f"{name} trace={int(trace)}: metrics {sorted(reported.items())} "
                f"do not match BENCHMARK.json {section} {sorted(expected.items())}"
            )
    return problems


def selftest() -> int:
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    problems = []
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    if sorted(workloads) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {workloads} != {sorted(WORKLOADS)}")
    for name in WORKLOADS:
        problems += _check_inputs(name)
        problems += _check_smoke(name, benchmark)
        print(f"selftest {name}: {'ok' if not problems else 'FAILED'}", flush=True)
    for problem in problems:
        print(f"FAILED {problem}")
    print("selftest", "passed" if not problems else "failed")
    return 1 if problems else 0
