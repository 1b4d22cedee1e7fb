"""Payload bytes pinned by digest: a guard for "no ENGINE_VERSION bump".

A change that only makes the engines faster must leave every payload byte
where it was.  This test runs :func:`repro.service.execute.execute_spec`
over a fixed seeded corpus and compares the SHA-256 of the payloads'
canonical JSON with a pinned digest.  The digest was last regenerated
with the ``+engine.4`` bump, which moved two kinds of payloads: the
randomized offset kernel sums its prefix times in closed form (last-bit
changes in ``montecarlo_randomized``), and ``sample_spread_targets``
draws its exponents and rays as two vectors (a new seeded target pool
for every default ``montecarlo_faults`` spec).  ``simulate``, ``family``
and the scalar randomized payloads kept their bytes.

The corpus covers every kind of a cold scenario stream — ``simulate``,
the four ``family`` strategies, fixed-count and adaptive
``montecarlo_faults`` and ``montecarlo_randomized`` — under both engines
and both crash models.

If the digest moves, payloads moved: either bump ``ENGINE_VERSION`` and
update the digest with the reason, or find the change that altered the
bytes.  A different NumPy or libm build can also move the last bits of
a transcendental; confirm by running this test on the parent commit with
the same toolchain.
"""

from __future__ import annotations

import hashlib
import json

from repro.service.execute import execute_spec
from repro.service.spec import (
    FamilySpec,
    MonteCarloFaultsSpec,
    MonteCarloRandomizedSpec,
    SimulateSpec,
)

CORPUS_DIGEST = "3a8ce27fbf085fa7277bbd29e5ca9767abdf2defc112d470cd00afb7c16d3d4b"


def _corpus():
    specs = []
    for (m, k, f), horizon in [
        ((2, 1, 0), 150.0),
        ((2, 3, 1), 2500.0),
        ((3, 4, 1), 4.2e4),
        ((2, 5, 2), 800.0),
    ]:
        for engine in ("vectorized", "scalar"):
            specs.append(
                SimulateSpec(
                    num_rays=m, num_robots=k, num_faulty=f, horizon=horizon,
                    engine=engine,
                )
            )
    for family, (m, k, f), horizon in [
        ("optimal", (3, 2, 0), 300.0),
        ("replication", (2, 3, 1), 1200.0),
        ("partition", (4, 3, 0), 9e3),
        ("trivial", (2, 4, 1), 450.0),
    ]:
        specs.append(
            FamilySpec(
                family=family, num_rays=m, num_robots=k, num_faulty=f,
                horizon=horizon,
            )
        )
    for seed, ((m, k, f), horizon) in enumerate(
        [((2, 3, 1), 300.0), ((3, 4, 1), 5e3), ((4, 3, 0), 700.0)]
    ):
        for engine in ("vectorized", "scalar"):
            for crash_model in ("silent", "uniform"):
                common = dict(
                    num_rays=m, num_robots=k, num_faulty=f, num_trials=64,
                    seed=seed, horizon=horizon, engine=engine,
                    crash_model=crash_model,
                )
                specs.append(MonteCarloFaultsSpec(**common))
                specs.append(
                    MonteCarloFaultsSpec(
                        **common, target_se=0.25, max_trials=256, chunk_trials=32
                    )
                )
    for m, horizon in [(2, 200.0), (3, 2e3)]:
        for engine in ("vectorized", "scalar"):
            specs.append(
                MonteCarloRandomizedSpec(
                    num_rays=m, num_samples=200, seed=m, horizon=horizon,
                    engine=engine,
                )
            )
    return specs


def test_corpus_covers_every_cold_kind():
    corpus = _corpus()
    assert {spec.kind for spec in corpus} == {
        "simulate", "family", "montecarlo_faults", "montecarlo_randomized",
    }
    assert {spec.family for spec in corpus if spec.kind == "family"} == {
        "optimal", "replication", "partition", "trivial",
    }
    faults = [spec for spec in corpus if spec.kind == "montecarlo_faults"]
    assert {(s.engine, s.crash_model, s.target_se is None) for s in faults} == {
        (engine, model, fixed)
        for engine in ("vectorized", "scalar")
        for model in ("silent", "uniform")
        for fixed in (True, False)
    }


def test_payload_digest_unchanged():
    payloads = [execute_spec(spec) for spec in _corpus()]
    canonical = json.dumps(
        payloads, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    assert hashlib.sha256(canonical.encode()).hexdigest() == CORPUS_DIGEST


# The large-sample path: the randomized kernel and the statistics over
# 20000-sample columns, an adaptive randomized campaign, and 4096-trial
# fault campaigns, fixed and adaptive.  ``CORPUS_DIGEST`` only holds
# 200-sample randomized specs and no adaptive randomized one.
HEAVY_CORPUS_DIGEST = "a11428bc156f92310cc2ffbe729c3d4022649532efded1712b1ed55065cffcad"


def _heavy_corpus():
    specs = [
        MonteCarloRandomizedSpec(
            num_rays=m, num_samples=20000, seed=10 + m, horizon=horizon
        )
        for m, horizon in [(2, 1e3), (3, 5e3), (4, 2e4)]
    ]
    specs.append(
        MonteCarloRandomizedSpec(
            num_rays=3, num_samples=256, seed=5, horizon=3e3,
            target_se=0.04, max_trials=20000, chunk_trials=512,
        )
    )
    common = dict(
        num_rays=3, num_robots=4, num_faulty=1, num_trials=4096, seed=9,
        horizon=8e3,
    )
    specs.append(MonteCarloFaultsSpec(**common))
    specs.append(
        MonteCarloFaultsSpec(
            **common, target_se=0.02, max_trials=4096, chunk_trials=512
        )
    )
    return specs


def test_heavy_corpus_digest_unchanged():
    payloads = [execute_spec(spec) for spec in _heavy_corpus()]
    canonical = json.dumps(
        payloads, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    assert hashlib.sha256(canonical.encode()).hexdigest() == HEAVY_CORPUS_DIGEST
