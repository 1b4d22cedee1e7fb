"""Tests for :mod:`repro.service.scheduler`: dedup, cache, bit-identity."""

from __future__ import annotations

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.analysis.sweep import (
    interesting_grid,
    sweep_optimal_strategies,
    sweep_random_faults,
)
from repro.service import scheduler as scheduler_module
from repro.service.cache import ResultCache
from repro.service.scheduler import (
    ScenarioScheduler,
    montecarlo_grid_specs,
    simulate_grid_specs,
)
from repro.service.spec import BoundsSpec, SimulateSpec
from repro.service.telemetry import MetricsRegistry, Tracer


class TestEvaluate:
    def test_second_evaluation_is_cached(self):
        scheduler = ScenarioScheduler()
        payload, cached = scheduler.evaluate(SimulateSpec(num_robots=1, horizon=50.0))
        assert not cached
        again, cached = scheduler.evaluate(SimulateSpec(num_robots=1, horizon=50.0))
        assert cached
        assert again == payload

    def test_engine_version_isolates_results(self):
        cache = ResultCache()
        old = ScenarioScheduler(cache=cache, engine_version="repro/test+engine.1")
        new = ScenarioScheduler(cache=cache, engine_version="repro/test+engine.2")
        spec = BoundsSpec(num_robots=3, num_faulty=1)
        old.evaluate(spec)
        _payload, cached = new.evaluate(spec)
        assert not cached  # the engine bump invalidated the old entry


class TestBatchDedupAndCache:
    def test_200_scenario_grid_with_half_duplicates(self):
        # The acceptance grid: 200 scenarios, 50% duplicate specs, at most
        # 100 engine evaluations (here: exactly 100).
        unique = [
            SimulateSpec(num_rays=m, num_robots=k, num_faulty=f,
                         horizon=float(horizon))
            for m, k, f in [(2, 1, 0), (2, 3, 1)]
            for horizon in range(10, 60)
        ]
        assert len(unique) == 100
        scenarios = unique + list(reversed(unique))  # 50% duplicates
        scheduler = ScenarioScheduler()
        batch = scheduler.run_batch(scenarios, max_workers=2)
        assert batch.num_scenarios == 200
        assert batch.num_unique == 100
        assert batch.evaluated <= 100
        stats = scheduler.cache.stats()
        assert stats.stores == batch.evaluated

        # Duplicates share the payload of their first occurrence, in order.
        assert list(batch.results) == (
            list(batch.results[:100]) + list(reversed(batch.results[:100]))
        )

        # A warm re-run performs zero engine evaluations.
        warm = scheduler.run_batch(scenarios, max_workers=2)
        assert warm.evaluated == 0
        assert warm.cache_hits == 100
        assert list(warm.results) == list(batch.results)

    def test_sharding_does_not_change_results(self):
        specs = simulate_grid_specs(interesting_grid(3, 4, 1), horizon=80.0)
        by_one = ScenarioScheduler().run_batch(specs, max_workers=1, shard_size=1)
        by_three = ScenarioScheduler().run_batch(specs, max_workers=2, shard_size=3)
        assert list(by_one.results) == list(by_three.results)
        assert by_three.num_shards == -(-len(specs) // 3)


class TestBitIdenticalToSerialSweeps:
    def test_simulate_batch_matches_sweep_optimal_strategies(self):
        grid = interesting_grid(3, 4, 1)
        rows = sweep_optimal_strategies(grid, horizon=150.0, max_workers=1)
        batch = ScenarioScheduler().run_batch(
            simulate_grid_specs(grid, horizon=150.0), max_workers=2
        )
        assert len(batch.results) == len(rows)
        for payload, row in zip(batch.results, rows):
            assert payload["theoretical"] == row.theoretical  # bit-identical
            assert payload["measured"] == row.measured
            assert payload["strategy_name"] == row.strategy_name
            assert payload["horizon"] == row.horizon

    def test_montecarlo_batch_matches_sweep_random_faults(self):
        grid = [(2, 1, 0), (2, 3, 1), (3, 2, 0)]
        rows = sweep_random_faults(
            grid, horizon=100.0, num_trials=64, seed=11, max_workers=1
        )
        batch = ScenarioScheduler().run_batch(
            montecarlo_grid_specs(grid, horizon=100.0, num_trials=64, seed=11),
            max_workers=2,
        )
        for payload, row in zip(batch.results, rows):
            assert payload["spec"]["seed"] == row.seed  # same spawned seeds
            assert payload["adversarial_ratio"] == row.adversarial
            assert payload["mean_ratio"] == row.mean_ratio  # bit-identical
            assert payload["std_error"] == row.std_error
            assert payload["quantile_95"] == row.quantile_95
            assert payload["max_ratio"] == row.max_ratio
            assert payload["num_trials"] == row.num_trials


class _BreakingPool:
    """Local process-pool stand-in: runs ``good`` shards inline, then breaks.

    The break comes either from ``submit`` itself or from the returned
    future's ``result()`` — the two places a real broken
    ``ProcessPoolExecutor`` raises :class:`BrokenProcessPool`.
    """

    def __init__(self, good: int, raise_from: str):
        self.good = good
        self.raise_from = raise_from
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        future: Future = Future()
        if self.submitted <= self.good:
            future.set_result(fn(*args))
        elif self.raise_from == "submit":
            raise BrokenProcessPool("pool broke on submit")
        else:
            future.set_exception(BrokenProcessPool("pool process died"))
        return future

    def shutdown(self, wait: bool = True) -> None:
        pass


class TestBrokenPoolFallback:
    @pytest.mark.parametrize("raise_from", ["submit", "result"])
    @pytest.mark.parametrize("good", [0, 1, 3])
    def test_broken_pool_falls_back_to_serial(self, monkeypatch, good, raise_from):
        specs = [SimulateSpec(num_robots=1, horizon=20.0 + i) for i in range(8)]
        serial = ScenarioScheduler().run_batch(specs, max_workers=1)
        broken = _BreakingPool(good, raise_from)
        monkeypatch.setattr(
            scheduler_module, "make_row_pool", lambda *_args: broken
        )
        metrics, tracer = MetricsRegistry(), Tracer()
        rows = []
        batch = ScenarioScheduler(metrics=metrics, tracer=tracer).run_batch(
            specs, max_workers=2, shard_size=1, on_rows=rows.extend
        )
        assert broken.submitted > good  # the pool really broke mid-batch
        assert list(batch.results) == list(serial.results)  # bit-identical
        assert sorted(index for index, _key, _payload in rows) == list(
            range(len(specs))
        )
        shard_spans = [
            child
            for child in tracer.span_tree(batch.trace_id)["roots"][0]["children"]
            if child["name"] == "shard"
        ]
        assert len(shard_spans) == batch.num_shards == len(specs)
        assert sorted(span["attrs"]["shard"] for span in shard_spans) == list(
            range(len(specs))
        )
        assert metrics.gauge("repro_shard_queue_depth").value == 0
