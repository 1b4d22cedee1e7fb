"""Durable coordinator: job journal, crash recovery, cluster-shared cache.

Covers the durability layer end to end:

* :class:`~repro.service.journal.JobJournal` round-trips submissions,
  per-shard completions and terminal states, tolerates garbled rows and
  quarantines an unreadable database instead of crashing startup;
* :meth:`ScenarioScheduler.recover_jobs` rehydrates finished jobs and
  *resumes* interrupted ones — only unjournaled shards re-run, results
  bit-identical to an uninterrupted run;
* fault injection over HTTP: a coordinator subprocess SIGKILLed mid-job
  and restarted on the same ``--journal`` finishes the job with the
  golden payloads (line ratio 9, randomized 4.5911); SIGTERM shuts a
  server down cleanly, checkpointing the journal;
* the cluster-share endpoint ``GET /cache/<key>`` and ``--cache-peers``:
  a second coordinator serves a previously computed grid with zero local
  evaluations;
* ``repro cache gc --journal`` compacts the journal, and the new
  ``evicted_jobs``/``recovered``/``journal`` fields on ``GET /jobs`` and
  ``GET /healthz``.
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.service.cache import ResultCache
from repro.service.execute import execute_spec
from repro.service.journal import JobJournal, gc_journal
from repro.service.scheduler import (
    BatchResult,
    ScenarioScheduler,
    montecarlo_grid_specs,
)
from repro.service.server import create_server
from repro.service.spec import ENGINE_VERSION

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GOLDEN_SIMULATE = {"kind": "simulate", "num_rays": 2, "num_robots": 1,
                   "num_faulty": 0, "horizon": 200.0}
GOLDEN_RANDOMIZED = {"kind": "montecarlo_randomized", "num_rays": 2,
                     "num_samples": 4000, "seed": 7, "horizon": 1000.0}


# ----------------------------------------------------------------------
# HTTP helpers
# ----------------------------------------------------------------------
def _get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post(url: str, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=300) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _start_inprocess(**kwargs):
    kwargs.setdefault("host", "127.0.0.1")
    kwargs.setdefault("port", 0)
    server = create_server(**kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stop_inprocess(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def _spawn_serve(*extra_args):
    """A ``repro serve`` subprocess; returns ``(process, base_url)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part
        for part in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH"))
        if part
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    banner = process.stdout.readline().strip()
    assert banner.startswith("serving on http://"), f"bad banner: {banner!r}"
    return process, banner.split()[-1]


def _kill_hard(process):
    if process.poll() is None:
        process.kill()
    process.wait(timeout=30)
    if process.stdout is not None:
        process.stdout.close()


# ----------------------------------------------------------------------
# Journal unit behaviour
# ----------------------------------------------------------------------
class TestJobJournal:
    def _sample_specs(self, n=4, trials=16, seed=11):
        specs = montecarlo_grid_specs(
            [(2, 1, 0), (2, 2, 1), (3, 2, 0), (3, 4, 1)][:n],
            num_trials=trials,
            seed=seed,
        )
        keys = [spec.cache_key(ENGINE_VERSION) for spec in specs]
        return specs, keys

    def test_round_trip_submission_completions_state(self, tmp_path):
        path = str(tmp_path / "journal.sqlite")
        specs, keys = self._sample_specs()
        journal = JobJournal(path)
        journal.record_submission(
            "job-a",
            keys,
            [spec.to_dict() for spec in specs],
            options={"max_workers": 1, "shard_size": 2, "spill_results": True},
            engine_version=ENGINE_VERSION,
        )
        journal.record_completed("job-a", keys[:2])
        journal.record_state(
            "job-a", "done", stats={"num_scenarios": 4, "evaluated": 4}
        )
        journal.close()

        reopened = JobJournal(path)
        records = reopened.load_jobs()
        assert len(records) == 1
        record = records[0]
        assert record.job_id == "job-a"
        assert record.state == "done"
        assert record.num_scenarios == 4
        assert record.engine_version == ENGINE_VERSION
        assert record.options == {
            "max_workers": 1, "shard_size": 2, "spill_results": True,
        }
        assert record.keys == tuple(keys)
        assert record.spec_dicts == tuple(spec.to_dict() for spec in specs)
        assert record.completed_keys == frozenset(keys[:2])
        assert record.stats == {"num_scenarios": 4, "evaluated": 4}
        reopened.close()

    def test_resubmission_is_idempotent_and_reopens_running(self, tmp_path):
        path = str(tmp_path / "journal.sqlite")
        specs, keys = self._sample_specs()
        journal = JobJournal(path)
        spec_dicts = [spec.to_dict() for spec in specs]
        journal.record_submission(
            "job-a", keys, spec_dicts, options={}, engine_version=ENGINE_VERSION
        )
        journal.record_state("job-a", "done", stats={})
        # Resume re-records the identical submission: no duplicate rows,
        # and the state flips back to running so a second crash during the
        # resume is itself recoverable.
        journal.record_submission(
            "job-a", keys, spec_dicts, options={}, engine_version=ENGINE_VERSION
        )
        counts = journal.counts()
        assert counts["jobs"] == 1
        assert counts["running_jobs"] == 1
        assert counts["specs"] == len(specs)
        (record,) = journal.load_jobs()
        assert record.state == "running"
        journal.close()

    def test_garbled_options_row_skipped_with_warning(self, tmp_path):
        path = str(tmp_path / "journal.sqlite")
        specs, keys = self._sample_specs(n=2)
        journal = JobJournal(path)
        journal.record_submission(
            "good", keys, [s.to_dict() for s in specs],
            options={}, engine_version=ENGINE_VERSION,
        )
        journal.record_submission(
            "torn", keys, [s.to_dict() for s in specs],
            options={}, engine_version=ENGINE_VERSION,
        )
        journal.close()
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE jobs SET options = '{\"trunc' WHERE job_id = 'torn'"
            )
        reopened = JobJournal(path)
        with pytest.warns(UserWarning, match="torn"):
            records = reopened.load_jobs()
        assert [record.job_id for record in records] == ["good"]
        assert reopened.counts()["corrupt_rows_skipped"] == 1
        reopened.close()

    def test_missing_spec_positions_skipped(self, tmp_path):
        path = str(tmp_path / "journal.sqlite")
        specs, keys = self._sample_specs(n=3)
        journal = JobJournal(path)
        journal.record_submission(
            "holey", keys, [s.to_dict() for s in specs],
            options={}, engine_version=ENGINE_VERSION,
        )
        journal.close()
        with sqlite3.connect(path) as conn:
            conn.execute("DELETE FROM specs WHERE position = 1")
        reopened = JobJournal(path)
        with pytest.warns(UserWarning, match="spec rows"):
            assert reopened.load_jobs() == []
        reopened.close()

    def test_unreadable_database_quarantined_not_fatal(self, tmp_path):
        path = str(tmp_path / "journal.sqlite")
        with open(path, "wb") as handle:
            handle.write(b"this is definitely not a sqlite database\x00\x01")
        with pytest.warns(UserWarning, match="unreadable"):
            journal = JobJournal(path)
        # The damaged file was moved aside, a fresh journal works.
        assert os.path.exists(path + ".corrupt")
        specs, keys = self._sample_specs(n=2)
        journal.record_submission(
            "fresh", keys, [s.to_dict() for s in specs],
            options={}, engine_version=ENGINE_VERSION,
        )
        assert journal.counts()["jobs"] == 1
        assert journal.counts()["corrupt_rows_skipped"] >= 1
        journal.close()

    def test_gc_drops_stale_engine_jobs_and_orphans(self, tmp_path):
        path = str(tmp_path / "journal.sqlite")
        specs, keys = self._sample_specs(n=2)
        spec_dicts = [s.to_dict() for s in specs]
        journal = JobJournal(path)
        journal.record_submission(
            "current", keys, spec_dicts, options={},
            engine_version=ENGINE_VERSION,
        )
        journal.record_completed("current", keys)
        journal.record_submission(
            "stale", keys, spec_dicts, options={},
            engine_version="repro/0.0+engine.0",
        )
        journal.record_completed("stale", keys)
        journal.close()

        dry = gc_journal(path, dry_run=True)
        assert dry.jobs_scanned == 2
        assert dry.jobs_dropped == 1
        assert dry.dry_run is True
        # Dry run left everything in place.
        assert len(JobJournal(path).load_jobs()) == 2

        report = gc_journal(path)
        assert report.jobs_kept == 1
        assert report.jobs_dropped == 1
        assert report.rows_dropped >= 1 + len(keys)
        survivors = JobJournal(path)
        assert [r.job_id for r in survivors.load_jobs()] == ["current"]
        counts = survivors.counts()
        assert counts["specs"] == len(specs)
        assert counts["completions"] == len(set(keys))
        survivors.close()

    def test_gc_unreadable_journal_reports_empty(self, tmp_path):
        path = str(tmp_path / "garbage.sqlite")
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        with pytest.warns(UserWarning, match="unreadable"):
            report = gc_journal(path)
        assert report.jobs_scanned == 0


class TestCorruptDiskCacheEntry:
    def test_unreadable_entry_counted_and_skipped(self, tmp_path):
        cache = ResultCache(max_entries=4, disk_path=str(tmp_path))
        key = "ab" * 32
        with open(tmp_path / f"{key}.json", "w", encoding="utf-8") as handle:
            handle.write('{"key": "truncated')
        with pytest.warns(UserWarning, match="unreadable disk cache entry"):
            assert cache.get(key) is None
        stats = cache.stats()
        assert stats.disk_corrupt == 1
        assert stats.misses == 1


# ----------------------------------------------------------------------
# Scheduler recovery (in-process)
# ----------------------------------------------------------------------
class TestSchedulerRecovery:
    def test_done_job_rehydrates_bit_identically(self, tmp_path):
        journal_path = str(tmp_path / "journal.sqlite")
        disk = str(tmp_path / "cache")
        specs = montecarlo_grid_specs(
            [(2, 1, 0), (2, 3, 1), (3, 2, 0)], num_trials=32, seed=9
        )

        first = ScenarioScheduler(
            cache=ResultCache(disk_path=disk), journal=JobJournal(journal_path)
        )
        job = first.submit_job(specs, max_workers=1)
        assert job.wait(timeout=300)
        reference = job.to_dict()
        first.journal.close()

        second = ScenarioScheduler(
            cache=ResultCache(disk_path=disk), journal=JobJournal(journal_path)
        )
        summary = second.recover_jobs()
        assert summary == {
            "rehydrated": 1, "resumed": 0, "failed": 0, "skipped": 0,
        }
        recovered = second.get_job(job.job_id)
        assert recovered is not None
        assert recovered.state == "done"
        assert recovered.recovered is True
        snapshot = recovered.to_dict()
        assert snapshot["recovered"] is True
        assert snapshot["results"] == reference["results"]
        assert snapshot["stats"] == reference["stats"]
        # Rehydration came from the disk tier: no engine evaluation ran.
        assert second.cache.stats().disk_hits == len(specs)
        second.journal.close()

    def test_interrupted_job_resumes_only_missing_shards(self, tmp_path):
        journal_path = str(tmp_path / "journal.sqlite")
        disk = str(tmp_path / "cache")
        specs = montecarlo_grid_specs(
            [(2, 1, 0), (2, 2, 1), (2, 3, 1), (3, 2, 0), (3, 3, 0), (3, 4, 1)],
            num_trials=32,
            seed=5,
        )
        keys = [spec.cache_key(ENGINE_VERSION) for spec in specs]

        # Craft the exact on-disk state a kill -9 mid-job leaves behind:
        # the submission journaled, two shards completed (payloads in the
        # disk cache, keys journaled), the job still 'running'.
        setup_cache = ResultCache(disk_path=disk)
        journal = JobJournal(journal_path)
        journal.record_submission(
            "interrupted",
            keys,
            [spec.to_dict() for spec in specs],
            options={"max_workers": 1, "shard_size": None,
                     "spill_results": True},
            engine_version=ENGINE_VERSION,
        )
        for key, spec in list(zip(keys, specs))[:2]:
            setup_cache.put(key, execute_spec(spec))
            journal.record_completed("interrupted", [key])
        journal.close()

        scheduler = ScenarioScheduler(
            cache=ResultCache(disk_path=disk), journal=JobJournal(journal_path)
        )
        summary = scheduler.recover_jobs()
        assert summary["resumed"] == 1
        job = scheduler.get_job("interrupted")
        assert job is not None and job.recovered is True
        assert job.wait(timeout=300)
        batch = job.result()
        # Only the four unjournaled scenarios were evaluated; the two
        # completed ones came back as (disk) cache hits.
        assert batch.cache_hits == 2
        assert batch.evaluated == len(specs) - 2

        # Bit-identical to a never-interrupted run of the same specs.
        reference = ScenarioScheduler().run_batch(specs, max_workers=1)
        assert list(batch.results) == list(reference.results)

        # The journal converged to the uninterrupted end state.
        (record,) = scheduler.journal.load_jobs()
        assert record.state == "done"
        assert record.completed_keys == frozenset(keys)
        scheduler.journal.close()

    def test_error_job_recovers_as_failed_handle(self, tmp_path):
        journal_path = str(tmp_path / "journal.sqlite")
        specs = montecarlo_grid_specs([(2, 1, 0)], num_trials=8, seed=1)
        keys = [spec.cache_key(ENGINE_VERSION) for spec in specs]
        journal = JobJournal(journal_path)
        journal.record_submission(
            "boom", keys, [s.to_dict() for s in specs],
            options={}, engine_version=ENGINE_VERSION,
        )
        journal.record_state("boom", "error", error="worker exploded")
        journal.close()

        scheduler = ScenarioScheduler(journal=JobJournal(journal_path))
        assert scheduler.recover_jobs()["failed"] == 1
        job = scheduler.get_job("boom")
        assert job.state == "error"
        snapshot = job.to_dict()
        assert snapshot["recovered"] is True
        assert "worker exploded" in snapshot["error"]
        scheduler.journal.close()

    @pytest.mark.parametrize(
        "cache_kind, spilled", [("small-memory", False), ("disk", True)]
    )
    def test_every_row_reader_matches_run_batch(self, tmp_path, cache_kind, spilled):
        # A batch with duplicate specs, read back every way a job exposes
        # its rows, must be byte-identical to the synchronous batch: a job
        # that keeps its rows (the 2-slot memory cache cannot hold its 4
        # unique results) and one that spills into a disk tier alike.
        specs = montecarlo_grid_specs(
            [(2, 1, 0), (2, 3, 1), (3, 2, 0), (3, 4, 1)], num_trials=16, seed=3
        )
        specs += [specs[0], specs[2]]
        journal_path = str(tmp_path / "journal.sqlite")

        def cache():
            if cache_kind == "disk":
                return ResultCache(disk_path=str(tmp_path / "cache"))
            return ResultCache(max_entries=2)

        def canonical(rows):
            return json.dumps(list(rows), sort_keys=True, separators=(",", ":"))

        expected = canonical(
            ScenarioScheduler().run_batch(specs, max_workers=1).results
        )
        first = ScenarioScheduler(cache=cache(), journal=JobJournal(journal_path))
        job = first.submit_job(specs, max_workers=1, shard_size=2)
        assert job.wait(timeout=300)
        assert job.spilled is spilled
        assert job.to_dict()["spilled"] is spilled
        assert canonical(row for _i, _k, row in job.iter_rows()) == expected
        assert canonical(job.result().results) == expected
        assert canonical(job.to_dict()["results"]) == expected
        first.journal.close()

        second = ScenarioScheduler(cache=cache(), journal=JobJournal(journal_path))
        assert second.recover_jobs()["rehydrated"] == 1
        recovered = second.get_job(job.job_id)
        assert recovered.spilled is True  # a recovered job holds no payloads
        assert canonical(row for _i, _k, row in recovered.iter_rows()) == expected
        assert canonical(recovered.result().results) == expected
        second.journal.close()

    def test_engine_version_mismatch_skipped(self, tmp_path):
        journal_path = str(tmp_path / "journal.sqlite")
        specs = montecarlo_grid_specs([(2, 1, 0)], num_trials=8, seed=1)
        keys = [spec.cache_key("repro/0.0+engine.0") for spec in specs]
        journal = JobJournal(journal_path)
        journal.record_submission(
            "old", keys, [s.to_dict() for s in specs],
            options={}, engine_version="repro/0.0+engine.0",
        )
        journal.close()

        scheduler = ScenarioScheduler(journal=JobJournal(journal_path))
        with pytest.warns(UserWarning, match="engine version"):
            summary = scheduler.recover_jobs()
        assert summary["skipped"] == 1
        assert scheduler.get_job("old") is None
        scheduler.journal.close()

    def test_journal_write_failure_degrades_to_warning(self, tmp_path):
        journal = JobJournal(str(tmp_path / "journal.sqlite"))
        journal.close()  # every later write raises
        scheduler = ScenarioScheduler(journal=journal)
        specs = montecarlo_grid_specs([(2, 1, 0)], num_trials=8, seed=1)
        with pytest.warns(RuntimeWarning, match="journal write failed"):
            job = scheduler.submit_job(specs, max_workers=1)
            assert job.wait(timeout=300)
        assert job.state == "done"

    def test_retention_evictions_are_counted(self, monkeypatch):
        monkeypatch.setattr("repro.service.scheduler.MAX_RETAINED_JOBS", 1)
        scheduler = ScenarioScheduler()
        specs = montecarlo_grid_specs([(2, 1, 0)], num_trials=8, seed=1)
        for _ in range(3):
            job = scheduler.submit_job(specs, max_workers=1)
            assert job.wait(timeout=300)
        assert scheduler.evicted_jobs == 2
        assert len(scheduler.jobs()) == 1

    def test_batch_result_from_stats_round_trip(self):
        batch = BatchResult(
            results=(),
            num_scenarios=10,
            num_unique=7,
            cache_hits=3,
            evaluated=4,
            num_shards=2,
            remote_evaluated=2,
            failovers=1,
            num_remote_workers=2,
        )
        assert BatchResult.from_stats(batch.to_dict()) == batch
        fallback = BatchResult.from_stats(
            {"cache_hits": "bogus"}, num_scenarios=5, num_unique=5
        )
        assert fallback.num_scenarios == 5
        assert fallback.cache_hits == 0


# ----------------------------------------------------------------------
# Cluster-shared cache over HTTP
# ----------------------------------------------------------------------
class TestClusterSharedCache:
    def test_cache_key_endpoint_serves_local_hits(self):
        server, thread = _start_inprocess()
        try:
            status, body = _post(server.url + "/evaluate", GOLDEN_SIMULATE)
            assert status == 200
            key = body["key"]
            status, shared = _get(server.url + f"/cache/{key}")
            assert status == 200
            assert shared["key"] == key
            assert shared["result"] == body["result"]

            status, _missing = _get(server.url + "/cache/" + "0" * 64)
            assert status == 404
            status, _bad = _get(server.url + "/cache/not-a-key")
            assert status == 404
        finally:
            _stop_inprocess(server, thread)

    def test_second_node_serves_grid_with_zero_local_evaluations(self):
        grid = [
            {"kind": "montecarlo_faults", "num_rays": m, "num_robots": k,
             "num_faulty": f, "num_trials": 48, "seed": 3 + i,
             "horizon": 100.0}
            for i, (m, k, f) in enumerate(
                [(2, 1, 0), (2, 3, 1), (3, 2, 0), (3, 4, 1)]
            )
        ]
        node_a, thread_a = _start_inprocess()
        try:
            status, first = _post(
                node_a.url + "/batch", {"scenarios": grid, "max_workers": 1}
            )
            assert status == 200
            assert first["stats"]["evaluated"] == len(grid)

            node_b, thread_b = _start_inprocess(cache_peers=[node_a.url])
            try:
                status, second = _post(
                    node_b.url + "/batch", {"scenarios": grid, "max_workers": 1}
                )
                assert status == 200
                # Every payload came over the wire from node A's cache:
                # zero engine evaluations on node B, bit-identical results.
                assert second["stats"]["evaluated"] == 0
                assert second["stats"]["cache_hits"] == len(grid)
                assert second["results"] == first["results"]
                assert second["cache"]["peer_hits"] == len(grid)
            finally:
                _stop_inprocess(node_b, thread_b)
        finally:
            _stop_inprocess(node_a, thread_a)

    def test_unreachable_peer_is_a_miss_not_an_error(self):
        server, thread = _start_inprocess(
            cache_peers=["http://127.0.0.1:9"]  # discard port: nothing there
        )
        try:
            status, body = _post(server.url + "/evaluate", GOLDEN_SIMULATE)
            assert status == 200
            assert body["result"]["theoretical"] == 9.0
        finally:
            _stop_inprocess(server, thread)


# ----------------------------------------------------------------------
# Server integration: healthz/jobs fields and journal wiring
# ----------------------------------------------------------------------
class TestServerJournalFields:
    def test_healthz_reports_journal_counts(self, tmp_path):
        journal_path = str(tmp_path / "journal.sqlite")
        server, thread = _start_inprocess(journal_path=journal_path)
        try:
            assert server.recovery == {
                "rehydrated": 0, "resumed": 0, "failed": 0, "skipped": 0,
            }
            status, body = _get(server.url + "/healthz")
            assert status == 200
            assert body["journal"]["path"] == journal_path
            assert body["journal"]["jobs"] == 0

            status, jobs = _get(server.url + "/jobs")
            assert status == 200
            assert jobs["evicted_jobs"] == 0
            assert jobs["jobs"] == []

            status, submitted = _post(
                server.url + "/jobs",
                {"scenarios": [GOLDEN_SIMULATE], "max_workers": 1},
            )
            assert status == 202
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                _status, job = _get(server.url + "/jobs/" + submitted["job_id"])
                if job["state"] == "done":
                    break
                time.sleep(0.05)
            assert job["state"] == "done"
            assert "recovered" not in job  # submitted live, not rehydrated

            status, body = _get(server.url + "/healthz")
            assert body["journal"]["jobs"] == 1
            assert body["journal"]["running_jobs"] == 0
            assert body["journal"]["completions"] == 1
        finally:
            _stop_inprocess(server, thread)


# ----------------------------------------------------------------------
# Fault injection over subprocess boundaries
# ----------------------------------------------------------------------
class TestCrashRecoveryEndToEnd:
    def _job_body(self):
        heavy = [
            {"kind": "montecarlo_faults", "num_rays": m, "num_robots": k,
             "num_faulty": f, "num_trials": 30000, "seed": 100 + i,
             "horizon": 100.0}
            for i, (m, k, f) in enumerate(
                [(2, 1, 0), (2, 2, 1), (2, 3, 1), (3, 2, 0), (3, 3, 0),
                 (3, 4, 1), (4, 2, 0), (4, 3, 1)]
            )
        ]
        scenarios = [GOLDEN_SIMULATE, GOLDEN_RANDOMIZED] + heavy
        return {"scenarios": scenarios, "max_workers": 1, "shard_size": 1}

    def test_sigkill_mid_job_then_resume_bit_identical(self, tmp_path):
        journal_path = str(tmp_path / "journal.sqlite")
        cache_dir = str(tmp_path / "cache")
        body = self._job_body()
        total = len(body["scenarios"])

        process, url = _spawn_serve(
            "--journal", journal_path, "--cache-dir", cache_dir
        )
        try:
            status, submitted = _post(url + "/jobs", body)
            assert status == 202
            job_id = submitted["job_id"]

            # Wait until at least one shard is journaled, then kill -9
            # while the job is demonstrably mid-flight.
            deadline = time.monotonic() + 120
            progress = None
            while time.monotonic() < deadline:
                _status, snapshot = _get(url + f"/jobs/{job_id}")
                progress = snapshot["progress"]
                if snapshot["state"] != "running":
                    pytest.fail("job finished before the crash was injected")
                if progress["completed"] >= 1:
                    break
                time.sleep(0.02)
            assert progress is not None and progress["completed"] >= 1
            assert progress["completed"] < total
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)
        finally:
            _kill_hard(process)

        # Restart on the same journal + disk cache: the job must resume,
        # re-run only unjournaled shards, and finish with the goldens.
        process, url = _spawn_serve(
            "--journal", journal_path, "--cache-dir", cache_dir
        )
        try:
            status, listing = _get(url + "/jobs")
            assert status == 200
            (entry,) = [
                job for job in listing["jobs"] if job["job_id"] == job_id
            ]
            assert entry["recovered"] is True

            deadline = time.monotonic() + 300
            while time.monotonic() < deadline:
                _status, job = _get(url + f"/jobs/{job_id}")
                if job["state"] != "running":
                    break
                time.sleep(0.1)
            assert job["state"] == "done"
            assert job["recovered"] is True
            # Shards journaled before the kill were NOT re-evaluated.
            assert job["stats"]["cache_hits"] >= 1
            assert job["stats"]["evaluated"] < job["stats"]["num_unique"]
            resumed_results = job["results"]

            _status, health = _get(url + "/healthz")
            assert health["journal"]["path"] == journal_path
            assert health["journal"]["running_jobs"] == 0
        finally:
            _kill_hard(process)

        # Reference: the identical body on a pristine coordinator.
        process, url = _spawn_serve()
        try:
            status, reference = _post(url + "/batch", body)
            assert status == 200
        finally:
            _kill_hard(process)

        assert resumed_results == reference["results"]
        assert resumed_results[0]["theoretical"] == 9.0
        assert resumed_results[1]["closed_form"] == pytest.approx(
            4.5911, abs=5e-5
        )

    def test_sigterm_shuts_down_cleanly_and_checkpoints(self, tmp_path):
        journal_path = str(tmp_path / "journal.sqlite")
        process, url = _spawn_serve("--journal", journal_path)
        try:
            status, _body = _post(url + "/evaluate", GOLDEN_SIMULATE)
            assert status == 200
            process.send_signal(signal.SIGTERM)
            returncode = process.wait(timeout=30)
            assert returncode == 0
            # Clean shutdown checkpointed and closed the journal: no WAL
            # side file remains and the database opens normally.
            assert not os.path.exists(journal_path + "-wal")
            journal = JobJournal(journal_path)
            assert journal.counts()["jobs"] == 0
            journal.close()
        finally:
            _kill_hard(process)


# ----------------------------------------------------------------------
# CLI: cache gc --journal
# ----------------------------------------------------------------------
class TestCacheGCJournalCLI:
    def test_gc_journal_drops_stale_jobs(self, tmp_path, capsys):
        journal_path = str(tmp_path / "journal.sqlite")
        specs = montecarlo_grid_specs([(2, 1, 0)], num_trials=8, seed=2)
        journal = JobJournal(journal_path)
        journal.record_submission(
            "stale",
            [s.cache_key("repro/0.0+engine.0") for s in specs],
            [s.to_dict() for s in specs],
            options={},
            engine_version="repro/0.0+engine.0",
        )
        journal.close()

        assert main(["cache", "gc", "--journal", journal_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["journal"]["jobs_dropped"] == 1
        assert payload["journal"]["path"] == journal_path
        assert "cache_dir" not in payload
        assert JobJournal(journal_path).load_jobs() == []

    def test_gc_sweeps_cache_and_journal_together(self, tmp_path, capsys):
        journal_path = str(tmp_path / "journal.sqlite")
        cache_dir = str(tmp_path / "cache")
        os.makedirs(cache_dir)
        JobJournal(journal_path).close()
        assert main([
            "cache", "gc", "--cache-dir", cache_dir,
            "--journal", journal_path, "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache_dir"] == cache_dir
        assert payload["journal"]["jobs_scanned"] == 0

    def test_gc_without_targets_errors(self, capsys):
        assert main(["cache", "gc"]) == 2
        assert "--journal" in capsys.readouterr().err
