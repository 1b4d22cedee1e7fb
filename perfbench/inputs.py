"""Seeded, stratified scenario generator for the benchmark workloads.

Every operation of a workload draws its scenarios from a fixed table of
*slots*.  A slot pins the scenario kind, the horizon decade and the class
of problem; the seed only picks values inside the slot (the exact horizon
within its decade, the problem within its class, Monte-Carlo seeds).  So
two seeds give different scenarios with the same per-batch kind mix and
roughly the same engine cost, and throughput does not move with the seed.

Only combinations the executors accept are produced.  In particular
``FamilySpec(family="partition")`` is only generated with ``num_faulty=0``:
with faulty robots it passes spec validation but raises inside
``ScenarioScheduler.run_batch``, failing the whole batch (a known defect).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.service import (
    FamilySpec,
    MonteCarloFaultsSpec,
    MonteCarloRandomizedSpec,
    ScenarioSpec,
    SimulateSpec,
)

#: Problems ``(m, k, f)`` in the interesting regime, where the optimal
#: strategy and its closed form exist.
INTERESTING = ((2, 1, 0), (2, 3, 1), (3, 2, 0), (3, 4, 1), (4, 3, 0), (2, 5, 2))
#: Problems in the trivial regime (``k >= m (f + 1)``).
TRIVIAL = ((2, 2, 0), (3, 3, 0), (2, 4, 1), (4, 4, 0))
#: Problems the partition family accepts: no faulty robot, ``k <= m``.
PARTITION = ((2, 1, 0), (3, 2, 0), (4, 3, 0), (3, 3, 0))

#: The golden scenarios' problems: the line (ratio 9) and A(2, 3, 1), the
#: paper's B(3, 1) ~ 5.2331.
LINE = (2, 1, 0)
B31 = (2, 3, 1)

#: One operation's slots: ``(kind, horizon decade, problem class)``.  The
#: first three slots carry the goldens: line ratio 9, B(3, 1) ~ 5.2331 and,
#: on two rays, the randomized ratio 4.5911.
BATCH_SLOTS: Tuple[Tuple[str, int, str], ...] = (
    ("simulate", 2, "line"),
    ("simulate", 3, "b31"),
    ("montecarlo_randomized", 2, "line"),
    ("simulate", 4, "interesting"),
    ("simulate", 5, "interesting"),
    ("family", 2, "optimal"),
    ("family", 3, "replication"),
    ("family", 4, "partition"),
    ("family", 3, "trivial"),
    ("montecarlo_faults", 2, "interesting"),
    ("montecarlo_faults", 3, "interesting"),
    ("montecarlo_faults_adaptive", 2, "interesting"),
    ("montecarlo_faults_adaptive", 3, "interesting"),
    ("montecarlo_faults_adaptive", 4, "interesting"),
    ("montecarlo_randomized", 3, "rays3"),
    ("montecarlo_randomized", 4, "rays4"),
)


@dataclass(frozen=True)
class Budget:
    """Monte-Carlo sample sizes of the generated scenarios."""

    mc_trials: int
    target_se: float
    max_trials: int
    randomized_samples: int


#: In-process batches: about 1 ms of engine time per scenario.
LIGHT = Budget(mc_trials=64, target_se=0.25, max_trials=256, randomized_samples=200)
#: Cluster jobs: Monte-Carlo scenarios of 10-40 ms.  With light scenarios
#: the coordinator's local pool drained a job's queue within a few ms of
#: starting, so whether the remote worker pulled a second shard (and the
#: job took ~1.3 s instead of ~0.85 s) was a coin flip on 40% of jobs; the
#: job latency was bimodal and its median unstable.  With these the local
#: pool is still busy when the worker's first shard returns, and the
#: second remote shard is part of nearly every job.
HEAVY = Budget(mc_trials=4096, target_se=0.02, max_trials=4096, randomized_samples=20000)

#: Operations fingerprinted by a workload's input hash: a fixed prefix of the
#: workload's deterministic input stream, so the digest does not depend on
#: how many operations a run had time for.
DIGEST_OPS = 64


def _problem(rng: np.random.Generator, problem_class: str) -> Tuple[int, int, int]:
    if problem_class in ("line", "rays3", "rays4"):
        return LINE
    if problem_class == "b31":
        return B31
    if problem_class in ("interesting", "optimal"):
        pool = INTERESTING
    elif problem_class == "replication":
        pool = INTERESTING + TRIVIAL
    elif problem_class == "partition":
        pool = PARTITION
    elif problem_class == "trivial":
        pool = TRIVIAL
    else:
        raise ValueError(f"unknown problem class {problem_class!r}")
    return pool[int(rng.integers(len(pool)))]


def make_spec(
    slot: Tuple[str, int, str], rng: np.random.Generator, serial: int, budget: Budget
) -> ScenarioSpec:
    """One scenario for ``slot``; ``serial`` makes Monte-Carlo seeds unique."""
    kind, decade, problem_class = slot
    horizon = float(10.0 ** (decade + rng.random()))
    m, k, f = _problem(rng, problem_class)
    if kind == "simulate":
        return SimulateSpec(num_rays=m, num_robots=k, num_faulty=f, horizon=horizon)
    if kind == "family":
        return FamilySpec(
            family=problem_class, num_rays=m, num_robots=k, num_faulty=f,
            horizon=horizon,
        )
    if kind.startswith("montecarlo_faults"):
        extra = {}
        if kind.endswith("adaptive"):
            extra = {
                "target_se": budget.target_se,
                "max_trials": budget.max_trials,
                "chunk_trials": budget.max_trials // 8,
            }
        return MonteCarloFaultsSpec(
            num_rays=m, num_robots=k, num_faulty=f, num_trials=budget.mc_trials,
            seed=serial, horizon=horizon, **extra,
        )
    if kind == "montecarlo_randomized":
        rays = {"line": 2, "rays3": 3, "rays4": 4}[problem_class]
        return MonteCarloRandomizedSpec(
            num_rays=rays, num_samples=budget.randomized_samples, seed=serial,
            horizon=horizon,
        )
    raise ValueError(f"unknown slot kind {kind!r}")


def batch_stream(
    seed: int, stream: str, size: int, budget: Budget = LIGHT
) -> Iterator[List[ScenarioSpec]]:
    """Endless deterministic batches of ``size`` new scenarios.

    ``size`` slots are taken cyclically from :data:`BATCH_SLOTS`.  The
    scenarios of a stream do not repeat: Monte-Carlo ones carry a serial
    seed, the others a horizon drawn from a continuous range.  (The
    workloads check it: a cold batch with a cache hit fails.)  ``stream``
    separates independent streams of one seed.
    """
    rng = np.random.default_rng(
        [seed, int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "big")]
    )
    serial = 0
    while True:
        batch = []
        for index in range(size):
            serial += 1
            slot = BATCH_SLOTS[index % len(BATCH_SLOTS)]
            batch.append(make_spec(slot, rng, serial, budget))
        yield batch


def slot_kind(spec: ScenarioSpec) -> str:
    """The slot kind a spec was generated for (adaptive MC told apart)."""
    if spec.kind == "montecarlo_faults" and spec.target_se is not None:
        return "montecarlo_faults_adaptive"
    return spec.kind


def kind_mix(batch: Sequence[ScenarioSpec]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for spec in batch:
        counts[slot_kind(spec)] = counts.get(slot_kind(spec), 0) + 1
    return counts


def digest(parts: Sequence[object]) -> str:
    """SHA-256 of the canonical JSON of ``parts``."""
    return hashlib.sha256(
        json.dumps(parts, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
