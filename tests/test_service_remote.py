"""End-to-end tests for multi-node dispatch (:mod:`repro.service.remote`).

Two in-process ``repro serve`` workers back a distributed
:class:`~repro.service.scheduler.ScenarioScheduler`; every test asserts the
distributed results are *bit-identical* to serial evaluation — including
when a worker dies mid-batch and its shards fail over to the local pool.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from service_helpers import FlakyWorkerServer, local_shards_wait_for

from repro.analysis.sweep import interesting_grid, sweep_random_faults
from repro.service.remote import RemoteWorker, RemoteWorkerError, RemoteWorkerPool
from repro.service.scheduler import (
    ScenarioScheduler,
    montecarlo_grid_specs,
    simulate_grid_specs,
)
from repro.service.server import create_server
from repro.service.spec import MonteCarloRandomizedSpec, SimulateSpec

GOLDEN_SIMULATE = SimulateSpec(num_rays=2, num_robots=1, num_faulty=0, horizon=200.0)
GOLDEN_RANDOMIZED = MonteCarloRandomizedSpec(
    num_rays=2, num_samples=4000, seed=7, horizon=1000.0
)


def _start_worker():
    server = create_server(host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


@pytest.fixture(scope="module")
def workers():
    started = [_start_worker() for _ in range(2)]
    try:
        yield [server for server, _thread in started]
    finally:
        for server, thread in started:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


def _acceptance_grid():
    """>= 200 scenarios, 50% duplicates, with both golden scenarios inside."""
    unique = [
        SimulateSpec(num_rays=m, num_robots=k, num_faulty=f, horizon=float(horizon))
        for m, k, f in [(2, 1, 0), (2, 3, 1)]
        for horizon in range(10, 60)
    ]
    unique += [GOLDEN_SIMULATE, GOLDEN_RANDOMIZED]
    return unique + list(reversed(unique))


class TestMultiWorkerBitIdentity:
    def test_acceptance_grid_bit_identical_to_serial(self, workers):
        scenarios = _acceptance_grid()
        assert len(scenarios) >= 200
        serial = ScenarioScheduler().run_batch(scenarios, max_workers=1)

        pool = RemoteWorkerPool([server.url for server in workers])
        distributed = ScenarioScheduler(workers=pool).run_batch(
            scenarios, max_workers=1, shard_size=8
        )
        assert distributed.num_remote_workers == 2
        assert distributed.remote_evaluated > 0
        assert distributed.num_scenarios == len(scenarios)
        assert distributed.num_unique == serial.num_unique
        assert list(distributed.results) == list(serial.results)  # bit-identical

        # The goldens rode along: line ratio exactly 9, randomized 4.5911.
        by_key = {
            payload["spec"].get("horizon"): payload
            for payload in distributed.results
            if payload["kind"] == "simulate"
        }
        assert by_key[200.0]["theoretical"] == 9.0
        randomized = next(
            payload
            for payload in distributed.results
            if payload["kind"] == "montecarlo_randomized"
        )
        assert randomized["closed_form"] == pytest.approx(4.5911, abs=5e-5)
        assert randomized["within_3_std_errors"] is True

    def test_wire_bytes_count_the_json_shard_bodies(self, workers):
        # Shard traffic is JSON both ways, and the byte counter reads its
        # exact bodies; health probes are not shard traffic.
        worker = RemoteWorker(workers[0].url)
        sent, received = worker._wire_bytes["sent"], worker._wire_bytes["received"]
        # Labelled by URL in the process-wide registry: other tests' traffic
        # to this worker is in the totals too, so read deltas.
        sent_before, received_before = sent.value, received.value
        assert worker.check_health()
        assert (sent.value, received.value) == (sent_before, received_before)
        results = worker.evaluate_shard([GOLDEN_SIMULATE.to_dict()])
        request = {"scenarios": [GOLDEN_SIMULATE.to_dict()], "results_only": True}
        assert sent.value - sent_before == len(json.dumps(request).encode("utf-8"))
        assert received.value - received_before == len(
            json.dumps({"results": results}, sort_keys=True).encode("utf-8")
        )
        worker.close()

    def test_single_worker_batch_reuses_pooled_json_connections(self, workers):
        scenarios = _acceptance_grid()
        serial = ScenarioScheduler().run_batch(scenarios, max_workers=1)
        pool = RemoteWorkerPool([workers[0].url])
        try:
            remote = ScenarioScheduler(workers=pool).run_batch(
                scenarios, max_workers=1, shard_size=8
            )
            assert remote.remote_evaluated > 0
            assert list(remote.results) == list(serial.results)  # bit-identical
            # Every shard after the first rides a kept-alive connection.
            assert pool.workers[0].connection_stats()["reuses"] > 0
        finally:
            pool.close()

    def test_montecarlo_grid_matches_serial_sweep_over_workers(self, workers):
        grid = [(2, 1, 0), (2, 3, 1), (3, 2, 0)]
        rows = sweep_random_faults(
            grid, horizon=100.0, num_trials=64, seed=11, max_workers=1
        )
        batch = ScenarioScheduler(
            workers=[server.url for server in workers]
        ).run_batch(
            montecarlo_grid_specs(grid, horizon=100.0, num_trials=64, seed=11),
            max_workers=1,
            shard_size=1,
        )
        for payload, row in zip(batch.results, rows):
            assert payload["spec"]["seed"] == row.seed
            assert payload["adversarial_ratio"] == row.adversarial
            assert payload["mean_ratio"] == row.mean_ratio  # bit-identical
            assert payload["std_error"] == row.std_error

    def test_sharding_and_placement_do_not_change_results(self, workers):
        specs = simulate_grid_specs(interesting_grid(3, 4, 1), horizon=80.0)
        serial = ScenarioScheduler().run_batch(specs, max_workers=1, shard_size=1)
        urls = [server.url for server in workers]
        one_worker = ScenarioScheduler(workers=urls[:1]).run_batch(
            specs, max_workers=1, shard_size=3
        )
        two_workers = ScenarioScheduler(workers=urls).run_batch(
            specs, max_workers=1, shard_size=2
        )
        assert list(one_worker.results) == list(serial.results)
        assert list(two_workers.results) == list(serial.results)


class TestFailover:
    def test_worker_dying_mid_batch_fails_over_bit_identically(self, workers):
        # Worker 1 is real; worker 2 passes the handshake, serves one shard
        # correctly, then crashes — the shard it holds goes back on the
        # work queue and the batch completes with identical payloads.  The
        # crash lands mid-batch by construction: in-process shards wait
        # until the flaky worker has replied 500, so the other executors
        # cannot drain the queue before its second pull.
        flaky = FlakyWorkerServer(max_batches=1)
        flaky_thread = threading.Thread(target=flaky.serve_forever, daemon=True)
        flaky_thread.start()
        try:
            specs = [
                SimulateSpec(num_rays=2, num_robots=1, horizon=10.0 + 0.5 * i)
                for i in range(200)
            ]
            serial = ScenarioScheduler().run_batch(specs, max_workers=1)
            pool = RemoteWorkerPool([workers[0].url, flaky.url])
            scheduler = ScenarioScheduler(workers=pool)
            with local_shards_wait_for(flaky.crashed):
                batch = scheduler.run_batch(specs, max_workers=1, shard_size=1)
            assert list(batch.results) == list(serial.results)  # bit-identical
            assert batch.failovers >= 1
            assert batch.remote_evaluated >= 1
            stats = pool.stats()
            assert stats["failovers"] >= 1
            flaky_worker = next(
                worker for worker in pool.workers if worker.url == flaky.url
            )
            assert flaky_worker.alive is False  # marked dead mid-batch
        finally:
            flaky.shutdown()
            flaky.server_close()
            flaky_thread.join(timeout=10)

    def test_worker_dead_after_health_check_fails_over(self, workers):
        # The worker vanishes between the health handshake and dispatch
        # (connection refused) — every one of its shards falls back.
        class _Vanished(RemoteWorker):
            def check_health(self):
                self.alive = True
                return True

        dead = _Vanished("http://127.0.0.1:9")  # port 9: nothing listens
        pool = RemoteWorkerPool([RemoteWorker(workers[0].url), dead])
        specs = simulate_grid_specs(interesting_grid(3, 4, 1), horizon=70.0)
        serial = ScenarioScheduler().run_batch(specs, max_workers=1)
        batch = ScenarioScheduler(workers=pool).run_batch(
            specs, max_workers=1, shard_size=1
        )
        assert list(batch.results) == list(serial.results)
        assert batch.failovers >= 1
        assert dead.alive is False

    def test_all_workers_unreachable_degrades_to_local(self):
        pool = RemoteWorkerPool(["http://127.0.0.1:9"], health_timeout=2.0)
        specs = simulate_grid_specs([(2, 1, 0), (2, 3, 1)], horizon=50.0)
        serial = ScenarioScheduler().run_batch(specs, max_workers=1)
        batch = ScenarioScheduler(workers=pool).run_batch(specs, max_workers=1)
        assert list(batch.results) == list(serial.results)
        assert batch.num_remote_workers == 0
        assert batch.remote_evaluated == 0

    def test_engine_version_mismatch_excludes_worker(self, workers):
        # A version-skewed worker computes in a different cache-key space;
        # the handshake must exclude it rather than mix results.
        pool = RemoteWorkerPool(
            [workers[0].url], engine_version="repro/999+engine.999"
        )
        assert pool.refresh() == []
        worker = pool.workers[0]
        assert worker.alive is False
        assert "engine version" in (worker.last_error or "")

    def test_request_level_rejection_does_not_kill_worker(self, workers):
        # A 4xx response means the worker is healthy and rejected this
        # request — the shard fails over but the worker stays in rotation.
        worker = RemoteWorker(workers[0].url)
        assert worker.check_health()
        with pytest.raises(RemoteWorkerError) as excinfo:
            worker.evaluate_shard([{"kind": "quantum"}])
        assert excinfo.value.worker_dead is False
        assert worker.alive is True


class TestAsyncJobs:
    def _post(self, url, payload):
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())

    def _get(self, url):
        with urllib.request.urlopen(url, timeout=60) as response:
            return response.status, json.loads(response.read())

    def test_jobs_endpoint_completes_grid_without_blocking(self, workers):
        # A coordinator node dispatching to the two workers; the job covers
        # the full acceptance grid and must not block the HTTP thread.
        coordinator = create_server(
            host="127.0.0.1", port=0, workers=[server.url for server in workers]
        )
        thread = threading.Thread(target=coordinator.serve_forever, daemon=True)
        thread.start()
        try:
            scenarios = [spec.to_dict() for spec in _acceptance_grid()]
            status, submitted = self._post(
                coordinator.url + "/jobs",
                {"scenarios": scenarios, "max_workers": 1, "shard_size": 16},
            )
            assert status == 202
            job_path = coordinator.url + submitted["path"]

            # The request thread is free while the job runs: /healthz
            # answers immediately and the poll shows live progress counts.
            status, health = self._get(coordinator.url + "/healthz")
            assert status == 200 and health["status"] == "ok"

            deadline = time.monotonic() + 120
            while True:
                status, body = self._get(job_path)
                assert status == 200
                progress = body["progress"]
                if progress["total"] is not None:
                    assert progress["completed"] <= progress["total"]
                if body["state"] != "running":
                    break
                assert time.monotonic() < deadline, "job did not finish in time"
                time.sleep(0.05)

            assert body["state"] == "done"
            assert body["progress"]["completed"] == body["progress"]["total"]
            serial = ScenarioScheduler().run_batch(
                _acceptance_grid(), max_workers=1
            )
            assert body["results"] == list(serial.results)  # bit-identical
            assert body["stats"]["num_remote_workers"] == 2

            # The job also shows up in the listing, without result payloads.
            status, listing = self._get(coordinator.url + "/jobs")
            assert status == 200
            summaries = {job["job_id"]: job for job in listing["jobs"]}
            assert submitted["job_id"] in summaries
            assert "results" not in summaries[submitted["job_id"]]
        finally:
            coordinator.shutdown()
            coordinator.server_close()
            thread.join(timeout=10)

    def test_submit_job_in_process_progress_monotone(self):
        scheduler = ScenarioScheduler()
        specs = simulate_grid_specs(interesting_grid(3, 4, 1), horizon=60.0)
        observed = []
        job = scheduler.submit_job(specs, max_workers=1, shard_size=1)
        while not job.wait(timeout=0.01):
            observed.append(job.to_dict(include_results=False)["progress"]["completed"])
        batch = job.result(timeout=60)
        assert batch.num_unique == len(specs)
        assert observed == sorted(observed)  # progress never goes backwards
        assert scheduler.get_job(job.job_id) is job
        assert scheduler.get_job("nope") is None

    def test_failed_job_reports_error_state(self):
        # A kind that passes submit-time executability validation but whose
        # executor explodes mid-run; the job must capture the error instead
        # of leaving pollers hanging.  (Unregistered kinds no longer reach
        # the background thread at all — submit_job raises RegistryError.)
        from repro.service import execute as execute_module
        from repro.service import spec as spec_module

        class _Exploding(SimulateSpec):
            kind = "exploding"

        def _explode(spec):
            raise RuntimeError("executor exploded mid-run")

        scheduler = ScenarioScheduler()
        spec_module._SPEC_KINDS["exploding"] = _Exploding
        execute_module._HANDLERS["exploding"] = _explode
        try:
            job = scheduler.submit_job([_Exploding(num_robots=1, horizon=50.0)])
            job.wait(timeout=60)
            assert job.state == "error"
            payload = job.to_dict()
            assert "exploded mid-run" in payload["error"]
            with pytest.raises(Exception, match="failed"):
                job.result(timeout=1)
        finally:
            del spec_module._SPEC_KINDS["exploding"]
            del execute_module._HANDLERS["exploding"]

    def test_submit_job_unexecutable_kind_fails_at_submit_time(self):
        from repro.exceptions import RegistryError
        from repro.service import spec as spec_module

        class _Ghost(SimulateSpec):
            kind = "ghost-job"

        scheduler = ScenarioScheduler()
        spec_module._SPEC_KINDS["ghost-job"] = _Ghost
        try:
            with pytest.raises(RegistryError, match="no registered executor"):
                scheduler.submit_job([_Ghost(num_robots=1, horizon=50.0)])
            assert scheduler.jobs() == []  # no orphan handle was created
        finally:
            del spec_module._SPEC_KINDS["ghost-job"]
