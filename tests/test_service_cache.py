"""Tests for :mod:`repro.service.cache` (LRU front + disk backend)."""

from __future__ import annotations

import json
import math
import struct
import threading

import numpy as np
import pytest

from repro.exceptions import InvalidProblemError
from repro.service.cache import ResultCache
from repro.service.server import create_server
from repro.simulation.monte_carlo import TrialStatistics

KEY_A = "a" * 64
KEY_B = "b" * 64
KEY_C = "c" * 64


def _assert_same_tree(left, right):
    """Equal *and* of identical types, floats compared bit for bit."""
    assert type(left) is type(right), (left, right)
    if isinstance(left, dict):
        assert list(left) == list(right)
        for key in left:
            _assert_same_tree(left[key], right[key])
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            _assert_same_tree(a, b)
    elif isinstance(left, float):
        assert struct.pack("<d", left) == struct.pack("<d", right)
    else:
        assert left == right


def _assert_independent(left, right):
    """No mutable container is shared between two payload trees."""
    if isinstance(left, (dict, list)):
        assert left is not right
    if isinstance(left, dict):
        for key in left:
            _assert_independent(left[key], right[key])
    elif isinstance(left, (list, tuple)):
        for a, b in zip(left, right):
            _assert_independent(a, b)


def _nested_payload():
    return {"ratio": 4.5, "rows": [[1, 2], [3, [4.0]]], "meta": {"tags": ["a"]}}


class TestMemoryCache:
    def test_get_miss_then_hit(self):
        cache = ResultCache(max_entries=4)
        assert cache.get(KEY_A) is None
        cache.put(KEY_A, {"x": 1})
        assert cache.get(KEY_A) == {"x": 1}
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put(KEY_A, {"v": "a"})
        cache.put(KEY_B, {"v": "b"})
        assert cache.get(KEY_A) is not None  # A is now most recently used
        cache.put(KEY_C, {"v": "c"})  # evicts B, the least recently used
        assert KEY_B not in cache
        assert KEY_A in cache and KEY_C in cache
        assert cache.stats().evictions == 1

    def test_payloads_are_isolated_copies(self):
        # Mutating what was stored, or what a get returned, never changes
        # the next get, and two gets share no mutable container.
        cache = ResultCache()
        payload = _nested_payload()
        cache.put(KEY_A, payload)
        payload["ratio"] = -1.0
        payload["rows"][1][1].append(99)
        payload["meta"]["tags"].clear()
        first = cache.get(KEY_A)
        assert first == _nested_payload()
        first["rows"][0][0] = "changed"
        first["meta"]["tags"].append("b")
        del first["ratio"]
        second = cache.get(KEY_A)
        assert second == _nested_payload()
        _assert_independent(first, second)

    def test_clear_resets_counters(self):
        cache = ResultCache()
        cache.put(KEY_A, {})
        cache.get(KEY_A)
        cache.clear()
        stats = cache.stats()
        assert stats.requests == 0 and stats.entries == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(InvalidProblemError):
            ResultCache(max_entries=0)


class TestMemorySnapshots:
    def test_memory_tier_round_trips_types_bit_exactly(self):
        payload = {
            "quantile": "inf",
            "minimum": "-inf",
            "raw": math.inf,
            "negative_zero": -0.0,
            "tiny": 5e-324,
            "point": (0, 7.25, ("ray", 1)),
            "nested": [[1, [2.5, [-0.0, []]]], [], [[["deep"]]]],
            "numpy": [np.float64(0.1), np.int64(7)],
            "flags": [True, False, None],
        }
        cache = ResultCache()
        cache.put(KEY_A, payload)
        fetched = cache.get(KEY_A)
        _assert_same_tree(fetched, payload)
        assert math.copysign(1.0, fetched["negative_zero"]) == -1.0
        _assert_same_tree(cache.get(KEY_A), payload)

    def test_ensure_snapshots_like_put(self):
        cache = ResultCache()
        payload = _nested_payload()
        assert cache.ensure(KEY_A, payload) is True
        payload["rows"].clear()
        assert cache.ensure(KEY_A, payload) is False  # already present
        assert cache.get(KEY_A) == _nested_payload()


class TestPromotion:
    def test_disk_promotion_returns_equal_independent_objects(self, tmp_path):
        ResultCache(disk_path=str(tmp_path)).put(KEY_A, _nested_payload())
        cache = ResultCache(disk_path=str(tmp_path))
        from_disk = cache.get(KEY_A)
        assert cache.stats().disk_hits == 1
        from_memory = cache.get(KEY_A)
        assert cache.stats().disk_hits == 1  # promoted: memory served it
        assert from_disk == from_memory == _nested_payload()
        _assert_independent(from_disk, from_memory)
        from_disk["rows"][1][1].append("mutated")
        from_memory["meta"]["tags"].append("mutated")
        assert cache.get(KEY_A) == _nested_payload()

    def test_peer_promotion_returns_equal_independent_objects(self):
        remote = ResultCache()
        remote.put(KEY_A, _nested_payload())
        server = create_server(host="127.0.0.1", port=0, cache=remote)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            cache = ResultCache(peers=[server.url])
            from_peer = cache.get(KEY_A)
            assert cache.stats().peer_hits == 1
            from_memory = cache.get(KEY_A)
            stats = cache.stats()
            assert stats.peer_hits == 1 and stats.hits == 2  # promoted
            assert from_peer == from_memory == _nested_payload()
            _assert_independent(from_peer, from_memory)
            from_peer["rows"].clear()
            from_memory["meta"]["tags"].append("mutated")
            assert cache.get(KEY_A) == _nested_payload()
            assert remote.get(KEY_A) == _nested_payload()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


class TestDiskBackend:
    def test_round_trip_through_fresh_instance(self, tmp_path):
        first = ResultCache(disk_path=str(tmp_path))
        first.put(KEY_A, {"answer": 42})
        assert first.stats().disk_stores == 1

        second = ResultCache(disk_path=str(tmp_path))
        assert second.get(KEY_A) == {"answer": 42}
        stats = second.stats()
        assert stats.disk_hits == 1 and stats.hits == 1
        # Promoted into memory: the next get does not touch the disk again.
        assert second.get(KEY_A) == {"answer": 42}
        assert second.stats().disk_hits == 1

    def test_eviction_keeps_disk_copy(self, tmp_path):
        cache = ResultCache(max_entries=1, disk_path=str(tmp_path))
        cache.put(KEY_A, {"v": "a"})
        cache.put(KEY_B, {"v": "b"})  # evicts A from memory only
        assert cache.stats().evictions == 1
        assert cache.get(KEY_A) == {"v": "a"}  # served from disk
        assert cache.stats().disk_hits == 1

    def test_disk_files_are_strict_json(self, tmp_path):
        cache = ResultCache(disk_path=str(tmp_path))
        cache.put(KEY_A, {"quantile": "inf", "mean": 3.5})
        record = json.loads((tmp_path / f"{KEY_A}.json").read_text())
        assert record["key"] == KEY_A
        assert record["payload"] == {"quantile": "inf", "mean": 3.5}

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        (tmp_path / f"{KEY_A}.json").write_text("{not json")
        cache = ResultCache(disk_path=str(tmp_path))
        with pytest.warns(UserWarning, match="unreadable disk cache entry"):
            assert cache.get(KEY_A) is None
        assert cache.stats().disk_corrupt == 1

    def test_malformed_key_rejected(self, tmp_path):
        cache = ResultCache(disk_path=str(tmp_path))
        with pytest.raises(InvalidProblemError, match="malformed cache key"):
            cache.put("../escape", {})

    def test_unencodable_payload_degrades_to_memory_only(self, tmp_path):
        # Raw non-finite floats are not strict JSON; the disk write must
        # fail softly (no exception, no counted store, no leaked temp
        # file) while the memory copy still serves.
        cache = ResultCache(disk_path=str(tmp_path))
        cache.put(KEY_A, {"ratio": math.inf})
        assert cache.stats().disk_stores == 0
        assert cache.get(KEY_A) == {"ratio": math.inf}
        assert list(tmp_path.iterdir()) == []

    def test_trial_statistics_round_trip_with_inf_quantiles(self, tmp_path):
        # A heavy-tailed sample: undetected trials have infinite ratios, so
        # the upper quantiles and the maximum are inf; the store must
        # round-trip them exactly (satellite: on-disk TrialStatistics).
        sample = [1.0, 2.0, 3.0, 4.0] * 4 + [math.inf] * 4
        statistics = TrialStatistics.from_sample(sample)
        assert math.isinf(statistics.maximum)
        assert math.isinf(statistics.quantile(0.99))
        assert math.isnan(statistics.std_error)

        cache = ResultCache(disk_path=str(tmp_path))
        cache.put(KEY_A, {"statistics": statistics.to_dict()})
        fresh = ResultCache(disk_path=str(tmp_path))
        restored = TrialStatistics.from_dict(fresh.get(KEY_A)["statistics"])
        assert restored.num_trials == statistics.num_trials
        assert restored.mean == statistics.mean or (
            math.isinf(restored.mean) and math.isinf(statistics.mean)
        )
        assert math.isnan(restored.std_error)
        assert restored.quantiles == statistics.quantiles
        assert restored.minimum == statistics.minimum
        assert math.isinf(restored.maximum)
        assert restored.batch_means == statistics.batch_means


class TestDiskGarbageCollection:
    """Regression tests for ``repro cache gc`` (engine-version GC)."""

    @staticmethod
    def _populate(tmp_path, engine_version, horizons):
        from repro.service.cache import ResultCache
        from repro.service.scheduler import ScenarioScheduler
        from repro.service.spec import SimulateSpec

        scheduler = ScenarioScheduler(
            cache=ResultCache(disk_path=str(tmp_path)),
            engine_version=engine_version,
        )
        for horizon in horizons:
            scheduler.evaluate(SimulateSpec(num_robots=1, horizon=float(horizon)))

    def test_gc_drops_stale_engine_versions_and_keeps_current(self, tmp_path):
        from repro.service.cache import ResultCache, gc_disk_cache
        from repro.service.spec import ENGINE_VERSION, SimulateSpec

        self._populate(tmp_path, "repro/old+engine.0", [50, 60, 70])
        self._populate(tmp_path, ENGINE_VERSION, [50, 80])
        assert len(list(tmp_path.glob("*.json"))) == 5

        report = gc_disk_cache(str(tmp_path))
        assert report.scanned == 5
        assert report.dropped == 3  # exactly the stale engine's entries
        assert report.kept == 2
        assert report.freed_bytes > 0
        assert not report.dry_run
        assert len(list(tmp_path.glob("*.json"))) == 2

        # The surviving entries are still servable under the current engine.
        fresh = ResultCache(disk_path=str(tmp_path))
        for horizon in (50.0, 80.0):
            key = SimulateSpec(num_robots=1, horizon=horizon).cache_key()
            assert fresh.get(key) is not None

    @pytest.mark.parametrize("entry_point", ["gc_disk_cache", "repro cache gc"])
    def test_gc_drops_entries_of_the_previous_engine(self, tmp_path, capsys, entry_point):
        # Entries written before the closed-form offset prefix and the
        # batched spread targets hold payloads the engine no longer computes.
        from repro import __version__
        from repro.cli import main
        from repro.service.cache import ResultCache, gc_disk_cache
        from repro.service.spec import ENGINE_VERSION, SimulateSpec

        previous = f"repro/{__version__}+engine.3"
        assert previous != ENGINE_VERSION
        self._populate(tmp_path, previous, [50, 60])
        self._populate(tmp_path, ENGINE_VERSION, [50])
        if entry_point == "gc_disk_cache":
            dropped = gc_disk_cache(str(tmp_path)).dropped
        else:
            assert main(["cache", "gc", "--cache-dir", str(tmp_path), "--json"]) == 0
            dropped = json.loads(capsys.readouterr().out)["dropped"]
        assert dropped == 2
        assert len(list(tmp_path.glob("*.json"))) == 1
        key = SimulateSpec(num_robots=1, horizon=50.0).cache_key()
        assert ResultCache(disk_path=str(tmp_path)).get(key) is not None

    def test_gc_dry_run_deletes_nothing(self, tmp_path):
        from repro.service.cache import gc_disk_cache

        self._populate(tmp_path, "repro/old+engine.0", [50])
        report = gc_disk_cache(str(tmp_path), dry_run=True)
        assert report.dropped == 1 and report.dry_run
        assert len(list(tmp_path.glob("*.json"))) == 1  # still on disk

    def test_gc_drops_corrupt_records_and_ignores_foreign_files(self, tmp_path):
        from repro.service.cache import gc_disk_cache

        (tmp_path / f"{KEY_A}.json").write_text("{not json")
        (tmp_path / f"{KEY_B}.json").write_text(json.dumps({"key": KEY_B}))
        (tmp_path / "README.txt").write_text("not a cache entry")
        (tmp_path / "short.json").write_text("{}")

        report = gc_disk_cache(str(tmp_path))
        assert report.scanned == 2  # only the two well-named cache files
        assert report.dropped == 2
        remaining = {path.name for path in tmp_path.iterdir()}
        assert remaining == {"README.txt", "short.json"}

    def test_gc_on_missing_directory_is_a_noop(self, tmp_path):
        from repro.service.cache import gc_disk_cache

        report = gc_disk_cache(str(tmp_path / "nope"))
        assert report.scanned == 0 and report.dropped == 0

    def test_gc_cli_subcommand(self, tmp_path, capsys):
        from repro.cli import main
        from repro.service.spec import ENGINE_VERSION

        self._populate(tmp_path, "repro/old+engine.0", [50, 60])
        self._populate(tmp_path, ENGINE_VERSION, [50])
        assert main(["cache", "gc", "--cache-dir", str(tmp_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dropped"] == 2 and report["kept"] == 1
        assert report["engine_version"] == ENGINE_VERSION
        assert len(list(tmp_path.glob("*.json"))) == 1

        # The table form runs too (and a second gc has nothing to drop).
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        assert "dropped" in capsys.readouterr().out
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_gc_drops_non_dict_records_without_crashing(self, tmp_path):
        # Regression: a cache-named file whose top-level JSON is not an
        # object (truncated/foreign write) must be dropped, not raise.
        from repro.service.cache import gc_disk_cache

        (tmp_path / f"{KEY_A}.json").write_text("[1, 2, 3]")
        (tmp_path / f"{KEY_B}.json").write_text('"just a string"')
        report = gc_disk_cache(str(tmp_path))
        assert report.scanned == 2 and report.dropped == 2
        assert list(tmp_path.glob("*.json")) == []
