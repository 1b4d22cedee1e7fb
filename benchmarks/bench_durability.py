"""Perf — durability: journal overhead, recovery replay and peer fetches.

Three measurements behind the PERFORMANCE.md "Durability" section:

1. **Journal write overhead** — the acceptance grid (100 unique specs)
   run through a plain in-memory scheduler vs one journaling every shard
   to SQLite and spilling to a disk cache.  The per-shard delta is the
   price of crash-safety; the results must stay bit-identical.
2. **Recovery replay** — a fresh scheduler pointed at the finished
   journal + disk cache: ``recover_jobs`` must rehydrate the job without
   a single engine evaluation, and the journal replay (``load_jobs``)
   is the benchmarked hot loop.
3. **Peer fetch vs recompute** — one ``GET /cache/<key>`` round-trip to
   an in-process server against recomputing a seeded Monte-Carlo spec
   locally.  The fetch must win, otherwise ``--cache-peers`` would be a
   pessimisation.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time

from repro.service.cache import ResultCache
from repro.service.execute import execute_spec
from repro.service.journal import JobJournal
from repro.service.remote import CachePeer
from repro.service.scheduler import ScenarioScheduler
from repro.service.server import create_server
from repro.service.spec import ENGINE_VERSION, MonteCarloFaultsSpec, SimulateSpec

TRIPLES = [(2, 1, 0), (2, 3, 1)]
HORIZONS = range(10, 60)
SHARD_SIZE = 10


def _acceptance_grid():
    return [
        SimulateSpec(num_rays=m, num_robots=k, num_faulty=f, horizon=float(horizon))
        for m, k, f in TRIPLES
        for horizon in HORIZONS
    ]


def _wait_for_journaled_done(path, job_id, timeout=30.0):
    # record_state("done") lands just after the job's done-event fires, so
    # poll the journal rather than racing the writer thread.
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        journal = JobJournal(path)
        try:
            records = {record.job_id: record for record in journal.load_jobs()}
        finally:
            journal.close()
        record = records.get(job_id)
        if record is not None and record.state == "done":
            return record
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never reached state=done in the journal")


def test_perf_durability_journal_and_recovery(benchmark):
    grid = _acceptance_grid()
    assert len(grid) == 100

    with tempfile.TemporaryDirectory(prefix="repro-bench-journal-") as tmp:
        journal_path = os.path.join(tmp, "journal.sqlite")
        cache_dir = os.path.join(tmp, "cache")

        plain = ScenarioScheduler(cache=ResultCache(max_entries=4096))
        start = time.perf_counter()
        plain_batch = plain.run_batch(grid, max_workers=1, shard_size=SHARD_SIZE)
        plain_seconds = time.perf_counter() - start
        assert plain_batch.evaluated == len(grid)

        durable = ScenarioScheduler(
            cache=ResultCache(max_entries=4096, disk_path=cache_dir),
            journal=JobJournal(journal_path),
        )
        start = time.perf_counter()
        job = durable.submit_job(list(grid), max_workers=1, shard_size=SHARD_SIZE)
        assert job.wait(timeout=300.0)
        durable_seconds = time.perf_counter() - start
        durable_batch = job.result()
        assert durable_batch.evaluated == len(grid)
        assert list(durable_batch.results) == list(plain_batch.results)

        num_shards = len(grid) // SHARD_SIZE
        overhead_ms_per_shard = (
            max(0.0, durable_seconds - plain_seconds) * 1e3 / num_shards
        )

        record = _wait_for_journaled_done(journal_path, job.job_id)
        assert len(record.completed_keys) == len(grid)
        durable.journal.close()

        recovered = ScenarioScheduler(
            cache=ResultCache(max_entries=4096, disk_path=cache_dir),
            journal=JobJournal(journal_path),
        )
        start = time.perf_counter()
        summary = recovered.recover_jobs()
        recovery_seconds = time.perf_counter() - start
        assert summary == {"rehydrated": 1, "resumed": 0, "failed": 0, "skipped": 0}
        rehydrated = recovered.get_job(job.job_id)
        assert rehydrated is not None and rehydrated.wait(timeout=30.0)
        assert list(rehydrated.result().results) == list(plain_batch.results)
        recovered.journal.close()

        def replay():
            journal = JobJournal(journal_path)
            try:
                return journal.load_jobs()
            finally:
                journal.close()

        records = benchmark(replay)
        assert len(records) == 1 and records[0].state == "done"

        benchmark.extra_info["experiment"] = "PERF-DURABILITY"
        benchmark.extra_info["num_unique"] = len(grid)
        benchmark.extra_info["num_shards"] = num_shards
        benchmark.extra_info["plain_seconds"] = round(plain_seconds, 4)
        benchmark.extra_info["durable_seconds"] = round(durable_seconds, 4)
        benchmark.extra_info["journal_overhead_ms_per_shard"] = round(
            overhead_ms_per_shard, 3
        )
        benchmark.extra_info["recovery_seconds"] = round(recovery_seconds, 4)
        print(
            f"\ndurable batch @ {len(grid)} specs / {num_shards} shards: "
            f"plain {plain_seconds * 1e3:.0f} ms, "
            f"journaled+disk {durable_seconds * 1e3:.0f} ms "
            f"({overhead_ms_per_shard:.2f} ms/shard overhead)\n"
            f"recovery rehydrated {len(grid)} results in "
            f"{recovery_seconds * 1e3:.1f} ms without re-evaluating"
        )


def test_perf_peer_fetch_vs_recompute(benchmark):
    spec = MonteCarloFaultsSpec(
        num_rays=2,
        num_robots=3,
        num_faulty=1,
        num_trials=20000,
        seed=11,
        horizon=100.0,
    )
    server = create_server(host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        local_payload, _cached = server.scheduler.evaluate(spec)
        key = spec.cache_key(ENGINE_VERSION)
        peer = CachePeer(server.url)

        fetched = benchmark(peer.fetch, key)
        assert fetched == local_payload

        rounds = 25
        start = time.perf_counter()
        for _ in range(rounds):
            assert peer.fetch(key) == local_payload
        fetch_seconds = (time.perf_counter() - start) / rounds

        start = time.perf_counter()
        for _ in range(3):
            recomputed = execute_spec(spec)
        recompute_seconds = (time.perf_counter() - start) / 3
        assert recomputed == local_payload

        speedup = recompute_seconds / fetch_seconds
        benchmark.extra_info["experiment"] = "PERF-PEER-CACHE"
        benchmark.extra_info["num_trials"] = spec.num_trials
        benchmark.extra_info["peer_fetch_ms"] = round(fetch_seconds * 1e3, 3)
        benchmark.extra_info["recompute_ms"] = round(recompute_seconds * 1e3, 3)
        benchmark.extra_info["peer_speedup"] = round(speedup, 1)
        print(
            f"\npeer fetch {fetch_seconds * 1e6:.0f} us vs recompute "
            f"{recompute_seconds * 1e3:.1f} ms "
            f"({spec.num_trials} trials): {speedup:.0f}x"
        )
        assert speedup > 1.0, (
            f"peer fetch ({fetch_seconds * 1e3:.2f} ms) slower than recomputing "
            f"({recompute_seconds * 1e3:.2f} ms) — --cache-peers is a pessimisation"
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
