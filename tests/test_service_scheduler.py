"""Tests for :mod:`repro.service.scheduler`: dedup, cache, bit-identity."""

from __future__ import annotations

import json
import multiprocessing
import threading
import urllib.request
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
from repro.service.remote import RemoteWorker, RemoteWorkerPool
from repro.service.scheduler import (
    ScenarioScheduler,
    montecarlo_grid_specs,
    simulate_grid_specs,
)
from repro.service import telemetry
from repro.service.server import create_server
from repro.service.spec import (
    BoundsSpec,
    MonteCarloFaultsSpec,
    MonteCarloRandomizedSpec,
    SimulateSpec,
)
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
        rows = sweep_optimal_strategies(grid, horizon=150.0)
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
        rows = sweep_random_faults(grid, horizon=100.0, num_trials=64, seed=11)
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
    ``ProcessPoolExecutor`` raises :class:`BrokenProcessPool` — or, with
    ``raise_from="closed"``, from a ``submit`` refused because
    :meth:`ScenarioScheduler.close` shut the pool down mid-batch.
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
        elif self.raise_from == "closed":
            raise RuntimeError("cannot schedule new futures after shutdown")
        else:
            future.set_exception(BrokenProcessPool("pool process died"))
        return future

    def shutdown(self, wait: bool = True) -> None:
        pass


class TestBrokenPoolFallback:
    @pytest.mark.parametrize("raise_from", ["submit", "result", "closed"])
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
        assert sorted(key for key, _payload in rows) == sorted(
            spec.cache_key() for spec in specs
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


def _specs(first_horizon: float, count: int = 6):
    return [SimulateSpec(num_robots=1, horizon=first_horizon + i) for i in range(count)]


def _serial_results(specs):
    return list(ScenarioScheduler().run_batch(specs, max_workers=1).results)


def _pool_children():
    return {child.pid for child in multiprocessing.active_children()}


def _post_batch(url: str, body: dict) -> dict:
    request = urllib.request.Request(
        url + "/batch",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.loads(response.read())


@pytest.fixture
def serving():
    """An in-process ``repro serve`` with private telemetry: ``(server, url)``."""
    server = create_server(port=0, metrics=MetricsRegistry(), tracer=Tracer())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, server.url
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@pytest.fixture
def pool_builds(monkeypatch):
    """Record every call to the scheduler's pool factory (real pools)."""
    calls = []
    real = scheduler_module.make_row_pool

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(scheduler_module, "make_row_pool", counting)
    return calls


class TestLongLivedPool:
    def test_sequential_batches_build_one_pool(self, pool_builds):
        tracer = Tracer()
        scheduler = ScenarioScheduler(metrics=MetricsRegistry(), tracer=tracer)
        try:
            batches = [
                scheduler.run_batch(specs, max_workers=2, shard_size=1)
                for specs in (_specs(20.0), _specs(40.0))
            ]
        finally:
            scheduler.close()
        assert len(pool_builds) == 1
        for specs, batch in zip((_specs(20.0), _specs(40.0)), batches):
            assert batch.evaluated == len(specs)
            assert list(batch.results) == _serial_results(specs)
            executors = {
                child["attrs"]["executor"]
                for child in tracer.span_tree(batch.trace_id)["roots"][0]["children"]
                if child["name"] == "shard"
            }
            assert executors == {"local-pool"}

    def test_concurrent_batches_share_one_pool(self, pool_builds):
        scheduler = ScenarioScheduler()
        inputs = (_specs(60.0, 8), _specs(80.0, 8))
        start = threading.Barrier(len(inputs))
        batches = [None] * len(inputs)

        def run(slot: int) -> None:
            start.wait(timeout=30)
            batches[slot] = scheduler.run_batch(
                inputs[slot], max_workers=2, shard_size=1
            )

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            scheduler.close()
        assert len(pool_builds) == 1
        for specs, batch in zip(inputs, batches):
            assert batch is not None
            assert list(batch.results) == _serial_results(specs)

    def test_serial_batches_never_build_a_pool(self, pool_builds):
        scheduler = ScenarioScheduler()
        scheduler.run_batch(_specs(100.0), max_workers=1, shard_size=1)
        scheduler.run_batch(_specs(120.0, 1), max_workers=2)
        scheduler.close()
        assert pool_builds == []

    def test_close_is_idempotent_and_reaps_the_workers(self):
        scheduler = ScenarioScheduler()
        scheduler.close()  # nothing built yet
        before = _pool_children()
        scheduler.run_batch(_specs(140.0), max_workers=2, shard_size=1)
        started = _pool_children() - before
        assert started  # the pool's workers outlive the batch
        scheduler.close()
        scheduler.close()
        assert not started & _pool_children()

    def test_server_close_reaps_its_pool_workers(self, serving):
        server, url = serving
        before = _pool_children()
        body = _post_batch(
            url,
            {
                "scenarios": [spec.to_dict() for spec in _specs(160.0)],
                "max_workers": 2,
                "shard_size": 1,
            },
        )
        assert body["results"] == _serial_results(_specs(160.0))
        started = _pool_children() - before
        assert started
        server.shutdown()
        server.server_close()
        assert not started & _pool_children()

    def test_next_batch_builds_a_fresh_pool_after_a_break(self, monkeypatch):
        first, second = _specs(180.0, 8), _specs(200.0, 8)
        pools = [_BreakingPool(1, "result"), _BreakingPool(len(second), "result")]
        calls = []

        def factory(*args):
            calls.append(args)
            return pools[len(calls) - 1]

        monkeypatch.setattr(scheduler_module, "make_row_pool", factory)
        scheduler = ScenarioScheduler()
        broken = scheduler.run_batch(first, max_workers=2, shard_size=1)
        fresh = scheduler.run_batch(second, max_workers=2, shard_size=1)
        assert pools[0].submitted > 1  # the first pool really broke
        assert len(calls) == 2
        assert pools[1].submitted == len(second)  # all on the fresh pool
        assert list(broken.results) == _serial_results(first)
        assert list(fresh.results) == _serial_results(second)


@pytest.fixture
def built_workers(monkeypatch):
    """Record every :class:`RemoteWorker` constructed (real workers)."""
    built = []
    real_init = RemoteWorker.__init__

    def recording_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(RemoteWorker, "__init__", recording_init)
    return built


class TestWorkerPoolOwnership:
    """A worker pool the scheduler builds from URLs is closed by the
    scheduler; a pool the caller passes in is left open for the caller."""

    def test_per_batch_url_pools_are_closed(self, serving, built_workers):
        _server, url = serving
        scheduler = ScenarioScheduler()
        for offset in (220.0, 240.0, 260.0):
            specs = _specs(offset, 3)
            batch = scheduler.run_batch(
                specs, max_workers=1, shard_size=1, workers=[url]
            )
            assert list(batch.results) == _serial_results(specs)
        assert len(built_workers) == 3  # one fresh pool per batch
        assert all(worker.dials > 0 for worker in built_workers)
        assert all(worker._idle == [] for worker in built_workers)
        scheduler.close()

    def test_constructor_url_pool_closed_by_close(self, serving):
        _server, url = serving
        scheduler = ScenarioScheduler(workers=[url])
        scheduler.run_batch(_specs(280.0, 3), max_workers=1, shard_size=1)
        (worker,) = scheduler.worker_pool.workers
        assert worker._idle  # kept alive between batches
        scheduler.close()
        assert worker._idle == []

    def test_caller_pool_is_never_closed(self, serving):
        _server, url = serving
        pool = RemoteWorkerPool([url])
        try:
            for scheduler in (ScenarioScheduler(workers=pool), ScenarioScheduler()):
                scheduler.run_batch(
                    _specs(300.0, 3), max_workers=1, shard_size=1, workers=pool
                )
                scheduler.close()
                assert pool.workers[0]._idle
        finally:
            pool.close()


def _mc_specs():
    """Eight Monte-Carlo specs: fixed-count, adaptive and randomized."""
    return [
        MonteCarloFaultsSpec(num_rays=2, num_robots=3, num_faulty=1,
                             num_trials=64, seed=seed, horizon=100.0)
        for seed in range(3)
    ] + [
        MonteCarloFaultsSpec(num_rays=3, num_robots=2, num_faulty=0,
                             num_trials=32, seed=seed, horizon=100.0,
                             target_se=0.25, max_trials=256, chunk_trials=32)
        for seed in range(3)
    ] + [
        MonteCarloRandomizedSpec(num_rays=2, num_samples=200, seed=seed,
                                 horizon=100.0)
        for seed in range(2)
    ]


def _trial_counters():
    return {
        outcome: telemetry.METRICS.counter(
            "repro_mc_trials_total", {"outcome": outcome}
        ).value
        for outcome in ("used", "saved")
    }


def _expected_trials(specs, payloads):
    used = sum(payload["trials_used"] for payload in payloads)
    budget = 0
    for spec in specs:
        fixed = getattr(spec, "num_trials", None) or spec.num_samples
        budget += spec.max_trials if spec.max_trials is not None else fixed
    return {"used": used, "saved": budget - used}


class TestPoolTrialAccounting:
    """``repro_mc_trials_total`` counts trials wherever the shard ran."""

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_in_process_batch(self, max_workers):
        specs = _mc_specs()
        scheduler = ScenarioScheduler(metrics=MetricsRegistry(), tracer=Tracer())
        before = _trial_counters()
        try:
            batch = scheduler.run_batch(specs, max_workers=max_workers, shard_size=1)
        finally:
            scheduler.close()
        after = _trial_counters()
        expected = _expected_trials(specs, batch.results)
        assert expected["saved"] > 0  # the adaptive specs stopped early
        assert {k: after[k] - before[k] for k in after} == expected

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_post_batch(self, serving, max_workers):
        _server, url = serving
        specs = _mc_specs()
        before = _trial_counters()
        body = _post_batch(
            url,
            {
                "scenarios": [spec.to_dict() for spec in specs],
                "max_workers": max_workers,
                "shard_size": 1,
            },
        )
        after = _trial_counters()
        assert {k: after[k] - before[k] for k in after} == _expected_trials(
            specs, body["results"]
        )


class TestPoolExecuteSeconds:
    """``repro_execute_seconds{kind}`` observes every spec wherever it ran."""

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_one_observation_per_spec(self, max_workers):
        specs = [
            SimulateSpec(num_rays=2, num_robots=3, num_faulty=1, horizon=100.0 + i)
            for i in range(8)
        ]
        histogram = telemetry.METRICS.histogram(
            "repro_execute_seconds", {"kind": "simulate"}
        )
        before = histogram.count
        scheduler = ScenarioScheduler(metrics=MetricsRegistry(), tracer=Tracer())
        try:
            batch = scheduler.run_batch(specs, max_workers=max_workers, shard_size=1)
        finally:
            scheduler.close()
        assert batch.evaluated == batch.num_shards == len(specs)
        assert histogram.count - before == len(specs)
