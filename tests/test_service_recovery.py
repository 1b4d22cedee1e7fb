"""Worker auto-recovery, backpressure-aware pull dispatch and job spill.

End-to-end and regression tests for the PR that reworked remote dispatch
from static round-robin placement into a shared-work-queue pull loop:

* a dead worker is re-probed in the background (`WorkerSupervisor`) and
  rejoins the rotation — and takes shards — once its process is back;
* a slow worker pulls fewer shards than a fast one (backpressure), with
  results bit-identical to serial either way;
* finished async jobs spill payloads into the content-addressed cache and
  rehydrate bit-identically (including recompute after cache eviction);
* the four service-layer bugfixes that ride along: `/jobs` vs `/batch`
  type validation, progress emission under the lock, the `0/None` async
  poll line, and the undialable `0.0.0.0` server URL;
* pooled keep-alive connections gone silently stale (a worker restart
  between dispatches) redial exactly once, transparently — no retry, no
  failover, results bit-identical.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from http.server import ThreadingHTTPServer

import pytest

from service_helpers import (
    DroppingWorkerServer,
    FlakyWorkerServer,
    RejectingWorkerServer,
    WorkerDoubleHandler,
)

from repro.cli import main
from repro.service.cache import ResultCache
from repro.service.remote import (
    RemoteWorker,
    RemoteWorkerError,
    RemoteWorkerPool,
    WorkerSupervisor,
)
from repro.service import scheduler as scheduler_module
from repro.service.scheduler import (
    BatchJob,
    ScenarioScheduler,
    montecarlo_grid_specs,
    simulate_grid_specs,
)
from repro.service.server import ScenarioServer, create_server
from repro.service.spec import SimulateSpec


def _start_server(**kwargs):
    kwargs.setdefault("host", "127.0.0.1")
    kwargs.setdefault("port", 0)
    server = create_server(**kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stop_server(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture(scope="module")
def worker():
    server, thread = _start_server()
    try:
        yield server
    finally:
        _stop_server(server, thread)


# ----------------------------------------------------------------------
# Bugfix: /jobs must reject malformed max_workers/shard_size like /batch
# ----------------------------------------------------------------------
class TestBatchBodyValidation:
    SCENARIO = {"kind": "bounds", "num_rays": 2, "num_robots": 1, "num_faulty": 0}

    @pytest.mark.parametrize("endpoint", ["/batch", "/jobs"])
    @pytest.mark.parametrize("field", ["max_workers", "shard_size"])
    @pytest.mark.parametrize("bad", ["two", 2.5, True, 0, -3])
    def test_non_positive_int_tuning_fields_400(self, worker, endpoint, field, bad):
        status, body = _post(
            worker.url + endpoint,
            {"scenarios": [self.SCENARIO], field: bad},
        )
        assert status == 400
        assert field in body["error"]

    @pytest.mark.parametrize("endpoint", ["/batch", "/jobs"])
    def test_valid_integer_tuning_fields_accepted(self, worker, endpoint):
        status, body = _post(
            worker.url + endpoint,
            {"scenarios": [self.SCENARIO], "max_workers": 1, "shard_size": 2},
        )
        assert status in (200, 202)
        assert "error" not in body

    def test_submitted_job_with_valid_body_completes(self, worker):
        status, submitted = _post(
            worker.url + "/jobs",
            {"scenarios": [self.SCENARIO], "max_workers": 1},
        )
        assert status == 202
        deadline = time.monotonic() + 60
        while True:
            _status, body = _get(worker.url + submitted["path"])
            if body["state"] != "running":
                break
            assert time.monotonic() < deadline
            time.sleep(0.02)
        assert body["state"] == "done"


# ----------------------------------------------------------------------
# Bugfix: progress polls must never report a lower count after a higher
# one (rows are published under one lock, counted once per key)
# ----------------------------------------------------------------------
class TestProgressEmissionOrder:
    def test_progress_monotone_under_concurrent_dispatchers(self, worker):
        specs = simulate_grid_specs(
            [(2, 1, 0), (2, 3, 1), (3, 2, 0)], horizon=40.0
        ) + simulate_grid_specs([(2, 1, 0)], horizon=35.0)
        scheduler = ScenarioScheduler(workers=[worker.url, worker.url])
        job = scheduler.submit_job(specs, max_workers=1, shard_size=1)
        events = []
        while True:
            finished = job.done
            progress = job.to_dict(include_results=False)["progress"]
            events.append((progress["completed"], progress["total"]))
            if finished:
                break
            time.sleep(0.001)
        batch = job.result()
        scheduler.close()
        dones = [done for done, _total in events]
        assert dones == sorted(dones)  # monotone across polls
        assert events[-1] == (batch.num_unique, batch.num_unique)
        assert all(total == batch.num_unique for _done, total in events)


# ----------------------------------------------------------------------
# Bugfix: the async poll line must be well-formed before the first row
# lands (no "0/None unique scenarios")
# ----------------------------------------------------------------------
_SEVEN_KEYS_FOUR_UNIQUE = ["a", "b", "a", "c", "d", "b", "a"]


class TestAsyncPollTotals:
    def test_fresh_job_reports_unique_count_not_none(self):
        job = BatchJob(job_id="j", keys=_SEVEN_KEYS_FOUR_UNIQUE)
        progress = job.to_dict(include_results=False)["progress"]
        assert progress == {"completed": 0, "total": 4}

    def test_completed_counts_unique_keys_as_they_land(self):
        job = BatchJob(job_id="j", keys=_SEVEN_KEYS_FOUR_UNIQUE)
        job._publish([("a", {"value": 0}), ("b", {"value": 1})])
        progress = job.to_dict(include_results=False)["progress"]
        assert progress == {"completed": 2, "total": 4}

    def test_cli_async_poll_lines_never_contain_none(self, tmp_path, capsys):
        scenarios = [
            {
                "kind": "montecarlo_faults",
                "num_rays": 2,
                "num_robots": 3,
                "num_faulty": 1,
                "num_trials": 64,
                "seed": seed,
                "horizon": 100.0,
            }
            for seed in range(6)
        ]
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps(scenarios))
        assert main(
            [
                "batch",
                "--file",
                str(path),
                "--max-workers",
                "1",
                "--async",
                "--poll-interval",
                "0.01",
                "--json",
            ]
        ) == 0
        err = capsys.readouterr().err
        assert "submitted" in err
        assert "None" not in err


# ----------------------------------------------------------------------
# Bugfix: the printed URL of a wildcard bind must be dialable
# ----------------------------------------------------------------------
class TestServerUrlDialable:
    def test_wildcard_bind_prints_loopback_and_dials(self):
        server, thread = _start_server(host="0.0.0.0")
        try:
            assert server.url.startswith("http://127.0.0.1:")
            status, body = _get(server.url + "/healthz")
            assert status == 200 and body["status"] == "ok"
        finally:
            _stop_server(server, thread)

    def test_ipv6_wildcard_maps_to_bracketed_loopback(self):
        shell = type("Shell", (), {"server_address": ("::", 8123)})()
        assert ScenarioServer.url.fget(shell) == "http://[::1]:8123"

    def test_explicit_host_is_preserved(self, worker):
        assert worker.url.startswith("http://127.0.0.1:")


# ----------------------------------------------------------------------
# Tentpole: connect-vs-read timeouts and retry backoff
# ----------------------------------------------------------------------
class _StallingHandler(WorkerDoubleHandler):
    """Accepts the dial, passes /healthz, then sleeps on /batch forever
    (longer than any test read timeout) — a hung-but-connected worker."""

    def do_POST(self):
        time.sleep(30.0)
        self._reply(200, {"results": []})


class TestSeparateTimeouts:
    def test_hung_worker_costs_read_timeout_not_shard_budget(self):
        stalling = ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
        stalling.daemon_threads = True
        thread = threading.Thread(target=stalling.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = stalling.server_address[:2]
            remote = RemoteWorker(
                f"http://{host}:{port}",
                timeout=0.3,
                connect_timeout=5.0,
                max_retries=1,
                retry_backoff=0.01,
            )
            assert remote.check_health()
            start = time.monotonic()
            with pytest.raises(RemoteWorkerError) as excinfo:
                remote.evaluate_shard(
                    [{"kind": "bounds", "num_rays": 2, "num_robots": 1}]
                )
            elapsed = time.monotonic() - start
            assert excinfo.value.worker_dead is True
            # Two attempts x 0.3 s read timeout + backoff, nowhere near the
            # 30 s the handler sleeps (never mind a 300 s shard budget).
            assert elapsed < 5.0
            assert remote.retries == 1
        finally:
            stalling.shutdown()
            stalling.server_close()
            thread.join(timeout=10)

    def test_vanished_worker_fails_within_connect_budget(self):
        remote = RemoteWorker(
            "http://127.0.0.1:9",  # nothing listens on the discard port
            timeout=300.0,
            connect_timeout=1.0,
            max_retries=0,
        )
        start = time.monotonic()
        with pytest.raises(RemoteWorkerError):
            remote.evaluate_shard([{"kind": "bounds"}])
        assert time.monotonic() - start < 10.0  # bounded by connect, not read

    def test_malformed_worker_url_marks_dead_instead_of_raising(self):
        # A typo'd port or a scheme-less URL must behave like an
        # unreachable worker (dead + readable last_error), not escape as a
        # raw ValueError that would crash run_batch or silently kill the
        # supervisor thread.
        pool = RemoteWorkerPool(["http://127.0.0.1:80a0", "localhost:8080"])
        assert pool.refresh() == []
        for remote in pool.workers:
            assert remote.alive is False
            assert "unreachable" in (remote.last_error or "")

    def test_retry_backoff_sleeps_between_attempts(self):
        remote = RemoteWorker(
            "http://127.0.0.1:9",
            connect_timeout=0.2,
            max_retries=2,
            retry_backoff=0.05,
        )
        start = time.monotonic()
        with pytest.raises(RemoteWorkerError):
            remote.evaluate_shard([{"kind": "bounds"}])
        # Three attempts with sleeps of 0.05 and 0.10 between them.
        assert time.monotonic() - start >= 0.15
        assert remote.retries == 2


# ----------------------------------------------------------------------
# Tentpole: pooled connections survive silent worker-side drops
# ----------------------------------------------------------------------
class TestStaleConnectionRedial:
    def _serve(self, server):
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return thread

    def _stop(self, server, thread):
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

    def test_stale_pooled_socket_redials_exactly_once(self):
        # The server completes every shard response, then silently closes
        # the parked connection — the client's next request on it must
        # transparently dial a fresh socket and succeed, once, without
        # burning a retry (those are for requests that *failed*).
        dropping = DroppingWorkerServer(drop_every=1)
        thread = self._serve(dropping)
        try:
            remote = RemoteWorker(dropping.url)
            assert remote.check_health()  # dial #1; connection parked
            shard = [
                {"kind": "bounds", "num_rays": 2, "num_robots": 1, "num_faulty": 0}
            ]
            first = remote.evaluate_shard(shard)  # reuse; dropped after reply
            second = remote.evaluate_shard(shard)  # reuse, stale -> redial
            assert first == second  # bit-identical across the redial
            assert dropping.drops >= 1
            stats = remote.connection_stats()
            assert stats["redials"] == 1
            assert stats["dials"] == 2  # healthz + the one redial
            assert stats["reuses"] == 2
            assert remote.retries == 0
            assert remote.alive is True
            remote.close()
        finally:
            self._stop(dropping, thread)

    def test_worker_restart_on_same_port_redials_through_scheduler(self):
        # Full coordinator path: batch 1 parks keep-alive connections in
        # the pool, the worker process is then replaced on the same port,
        # and batch 2 must ride the redial — zero failovers, zero retries,
        # results bit-identical to serial.
        first = DroppingWorkerServer(drop_every=1)
        thread = self._serve(first)
        port = first.server_address[1]
        pool = RemoteWorkerPool([first.url])
        scheduler = ScenarioScheduler(workers=pool)
        remote = pool.workers[0]
        try:
            specs = simulate_grid_specs([(2, 1, 0), (2, 3, 1)], horizon=45.0)
            serial = ScenarioScheduler().run_batch(specs, max_workers=1)
            batch = scheduler.run_batch(specs, max_workers=1, shard_size=1)
            assert list(batch.results) == list(serial.results)
            assert batch.num_remote_workers == 1
            assert remote.connection_stats()["reuses"] >= 1  # pooling in play
        finally:
            self._stop(first, thread)

        # Every parked socket is now genuinely dead.  Bring up the
        # replacement worker at the same address.
        replacement = DroppingWorkerServer(port=port)
        thread = self._serve(replacement)
        try:
            redials_before = remote.redials
            fresh = simulate_grid_specs(
                [(2, 1, 0), (2, 3, 1), (3, 2, 0)], horizon=85.0
            )
            fresh_serial = ScenarioScheduler().run_batch(fresh, max_workers=1)
            batch = scheduler.run_batch(fresh, max_workers=1, shard_size=1)
            assert list(batch.results) == list(fresh_serial.results)
            assert batch.num_remote_workers == 1
            assert batch.failovers == 0  # the redial is not a failover
            assert remote.retries == 0  # ...nor a retry
            assert remote.redials > redials_before  # stale sockets redialed
            stats = pool.stats()["connections"]
            assert stats["redials"] == remote.redials
            assert stats["reuse_fraction"] > 0
            pool.close()
            assert remote.connection_stats()["idle"] == 0
        finally:
            self._stop(replacement, thread)


# ----------------------------------------------------------------------
# Tentpole: pull-based dispatch is backpressure-aware
# ----------------------------------------------------------------------
class _SlowWorker(RemoteWorker):
    """A correct but slow worker: same server, extra latency per shard."""

    def __init__(self, url, delay, **kwargs):
        super().__init__(url, **kwargs)
        self.delay = delay

    def evaluate_shard(self, scenario_dicts):
        time.sleep(self.delay)
        return super().evaluate_shard(scenario_dicts)


class TestPullDispatchBackpressure:
    def test_slow_worker_takes_fewer_shards_and_results_identical(self, worker):
        # Each shard costs ~10 ms of real engine work, so the dispatch
        # window (~30 shards) is long compared to scheduling noise: the
        # fast worker gets many pulls while the slow one (+0.25 s per
        # shard) manages only a couple, whatever the machine load.
        specs = montecarlo_grid_specs(
            [(2, 1, 0), (2, 3, 1), (3, 2, 0)] * 10,
            horizon=400.0,
            num_trials=2000,
            seed=29,
        )
        serial = ScenarioScheduler().run_batch(specs, max_workers=1)

        fast = RemoteWorker(worker.url)
        slow = _SlowWorker(worker.url, delay=0.25)
        pool = RemoteWorkerPool([fast, slow])
        batch = ScenarioScheduler(workers=pool).run_batch(
            specs, max_workers=1, shard_size=1
        )
        assert list(batch.results) == list(serial.results)  # bit-identical
        assert batch.num_remote_workers == 2
        # The slow worker pulled less often than the fast one: placement
        # followed throughput, not a static index mod slots.
        assert slow.shards_completed < fast.shards_completed
        assert fast.shards_completed >= 2

    def test_queue_depth_probe_attaches_only_while_batch_runs(self, worker):
        pool = RemoteWorkerPool([worker.url])
        assert pool.stats()["queue_depth"] == 0
        assert pool.stats()["active_batches"] == 0
        ScenarioScheduler(workers=pool).run_batch(
            simulate_grid_specs([(2, 1, 0)], horizon=30.0), max_workers=1
        )
        stats = pool.stats()
        assert stats["queue_depth"] == 0  # drained and detached
        assert stats["active_batches"] == 0
        assert stats["remote_shards"] + stats["failovers"] >= 1


# ----------------------------------------------------------------------
# Tentpole: worker auto-recovery via the supervisor
# ----------------------------------------------------------------------
class TestWorkerAutoRecovery:
    def test_dead_worker_rejoins_after_reprobe_and_takes_shards(self):
        # Bind a worker, remember its port, and kill it.
        first, first_thread = _start_server()
        port = first.server_address[1]
        url = first.url
        _stop_server(first, first_thread)

        pool = RemoteWorkerPool([url], health_timeout=2.0)
        scheduler = ScenarioScheduler(workers=pool)
        specs = simulate_grid_specs([(2, 1, 0), (2, 3, 1)], horizon=50.0)
        serial = ScenarioScheduler().run_batch(specs, max_workers=1)

        # Batch 1: worker is down — local degradation, marked dead.
        batch = scheduler.run_batch(specs, max_workers=1)
        assert list(batch.results) == list(serial.results)
        assert batch.num_remote_workers == 0
        dead_worker = pool.workers[0]
        assert dead_worker.alive is False

        supervisor = pool.start_supervisor(reprobe_interval=0.05)
        try:
            # Restart the worker process on the same port; the supervisor
            # must notice without any batch traffic.
            revived, revived_thread = _start_server(port=port)
            try:
                deadline = time.monotonic() + 30
                while dead_worker.alive is not True:
                    assert time.monotonic() < deadline, (
                        f"supervisor never revived the worker: "
                        f"{supervisor.stats()}"
                    )
                    time.sleep(0.02)
                stats = supervisor.stats()
                assert stats["recoveries"] >= 1
                assert pool.stats()["supervisor"]["recoveries"] >= 1

                # Batch 2 (fresh specs, so the cache cannot satisfy it):
                # the revived worker is back in rotation and actually
                # serves shards, bit-identically.
                fresh = simulate_grid_specs(
                    [(2, 1, 0), (2, 3, 1), (3, 2, 0)], horizon=75.0
                )
                fresh_serial = ScenarioScheduler().run_batch(fresh, max_workers=1)
                batch = scheduler.run_batch(fresh, max_workers=1, shard_size=1)
                assert list(batch.results) == list(fresh_serial.results)
                assert batch.num_remote_workers == 1
                assert dead_worker.shards_completed >= 1
            finally:
                _stop_server(revived, revived_thread)
        finally:
            pool.stop_supervisor()
        assert supervisor.running is False

    def test_supervisor_probes_dead_worker_sharing_url_with_live_sibling(
        self, worker
    ):
        # Two worker objects for one URL (duplicate --workers entries, or
        # tuned subclasses like the backpressure test's): the live sibling
        # must not keep clearing the dead one's re-probe schedule.
        alive = RemoteWorker(worker.url)
        assert alive.check_health()
        dead = RemoteWorker(worker.url)
        dead.alive = False
        dead.last_error = "killed mid-batch"
        pool = RemoteWorkerPool([alive, dead])
        supervisor = WorkerSupervisor(pool, reprobe_interval=0.01)
        supervisor.probe_once()  # schedules the dead sibling's first probe
        deadline = time.monotonic() + 10
        while dead.alive is not True:
            assert time.monotonic() < deadline, supervisor.stats()
            time.sleep(0.02)
            supervisor.probe_once()
        assert supervisor.stats()["recoveries"] == 1

    def test_reprobe_backoff_doubles_while_worker_stays_dead(self):
        pool = RemoteWorkerPool(
            ["http://127.0.0.1:9"], health_timeout=0.2, connect_timeout=0.2
        )
        pool.refresh()
        assert pool.workers[0].alive is False
        supervisor = WorkerSupervisor(pool, reprobe_interval=0.05, max_backoff=10.0)
        # Drive supervision synchronously: schedule, then repeatedly probe.
        supervisor.probe_once()  # schedules the first re-probe
        deadline = time.monotonic() + 10
        while supervisor.stats()["probes"] < 2:
            assert time.monotonic() < deadline
            time.sleep(0.02)
            supervisor.probe_once()
        pending = supervisor.stats()["pending"]
        assert len(pending) == 1
        assert pending[0]["backoff"] >= 0.2  # doubled at least twice
        assert supervisor.stats()["recoveries"] == 0

    def test_worker_revived_mid_batch_is_admitted_and_serves_shards(
        self, worker, monkeypatch
    ):
        # The worker is dead at the batch's refresh; it comes back while
        # the queue still holds work (we flip `alive` exactly the way a
        # supervisor probe would) and the dispatch loop must give it a
        # slot mid-batch.  Scripted rather than timed: the
        # local slot revives the worker during its first shard, then holds
        # its second shard until the admitted worker has completed one.
        remote = RemoteWorker(worker.url)
        remote.alive = False
        remote.last_error = "down at refresh"

        class _StaysDeadAtRefresh(RemoteWorkerPool):
            def refresh(self):
                return self.live_workers()  # do not probe: stays dead

        pool = _StaysDeadAtRefresh([remote])
        # Enough slow-ish seeded work that the queue outlives the revival.
        specs = montecarlo_grid_specs(
            [(2, 1, 0), (2, 3, 1), (3, 2, 0), (3, 4, 1)] * 10,
            horizon=400.0,
            num_trials=2000,
            seed=17,
        )
        serial = ScenarioScheduler().run_batch(specs, max_workers=1)

        local_slot = threading.current_thread()
        original = scheduler_module.execute_shard
        local_shards = []

        def scripted(shard):
            # The in-process worker's own scheduler runs shards through
            # the same function, on its server threads: pass those through.
            if threading.current_thread() is local_slot:
                local_shards.append(shard)
                if len(local_shards) == 1:
                    remote.alive = True  # revived mid-batch
                elif len(local_shards) == 2:
                    deadline = time.monotonic() + 30
                    while remote.shards_completed < 1:
                        assert time.monotonic() < deadline, "worker never served"
                        time.sleep(0.005)
            return original(shard)

        monkeypatch.setattr(scheduler_module, "execute_shard", scripted)
        batch = ScenarioScheduler(workers=pool).run_batch(
            specs, max_workers=1, shard_size=1
        )
        assert list(batch.results) == list(serial.results)  # bit-identical
        assert batch.num_remote_workers == 0  # dead when the batch started
        assert remote.shards_completed >= 1  # ...but admitted mid-batch
        assert batch.remote_evaluated >= 1

    def test_reject_everything_worker_is_retired_not_queue_hog(self, worker):
        # A worker that 400s every shard stays alive (rejections are
        # request-level), but its slot must retire after a few
        # consecutive rejections — rejection round-trips are cheap, so an
        # unretired rejector would race the healthy executors to the queue
        # and push the whole batch onto the local slot.
        rejecting = RejectingWorkerServer()
        thread = threading.Thread(target=rejecting.serve_forever, daemon=True)
        thread.start()
        try:
            specs = [
                SimulateSpec(num_rays=2, num_robots=1, horizon=10.0 + 0.5 * i)
                for i in range(60)
            ]
            serial = ScenarioScheduler().run_batch(specs, max_workers=1)
            pool = RemoteWorkerPool(
                [RemoteWorker(worker.url), RemoteWorker(rejecting.url)]
            )
            batch = ScenarioScheduler(workers=pool).run_batch(
                specs, max_workers=1, shard_size=1
            )
            assert list(batch.results) == list(serial.results)
            rejector = next(
                remote for remote in pool.workers if remote.url == rejecting.url
            )
            assert rejector.alive is True  # 4xx never kills the worker
            from repro.service.scheduler import _MAX_CONSECUTIVE_REJECTS

            assert batch.failovers <= _MAX_CONSECUTIVE_REJECTS
            assert rejecting.batches_seen <= _MAX_CONSECUTIVE_REJECTS
        finally:
            rejecting.shutdown()
            rejecting.server_close()
            thread.join(timeout=10)

    def test_mid_batch_death_requeues_inflight_shard(self, worker):
        # A worker that passes the handshake and 500s its first shard: the
        # in-flight shard goes back on the queue, another executor finishes
        # it, and the batch stays bit-identical.  (The serve-some-then-die
        # variant lives in test_service_remote.py.)
        flaky = FlakyWorkerServer(max_batches=0)
        thread = threading.Thread(target=flaky.serve_forever, daemon=True)
        thread.start()
        try:
            specs = simulate_grid_specs(
                [(2, 1, 0), (2, 3, 1), (3, 2, 0)], horizon=65.0
            ) + [
                SimulateSpec(num_rays=2, num_robots=1, horizon=float(h))
                for h in range(30, 40)
            ]
            serial = ScenarioScheduler().run_batch(specs, max_workers=1)
            pool = RemoteWorkerPool(
                [RemoteWorker(worker.url), RemoteWorker(flaky.url, max_retries=0)]
            )
            batch = ScenarioScheduler(workers=pool).run_batch(
                specs, max_workers=1, shard_size=1
            )
            assert list(batch.results) == list(serial.results)
            assert batch.failovers >= 1
            flaky_worker = next(
                remote for remote in pool.workers if remote.url == flaky.url
            )
            assert flaky_worker.alive is False
            assert flaky_worker.shards_completed == 0
        finally:
            flaky.shutdown()
            flaky.server_close()
            thread.join(timeout=10)


# ----------------------------------------------------------------------
# Tentpole: job result spill + bit-identical rehydration
# ----------------------------------------------------------------------
def _spill_grid():
    """>= 200 scenarios with 50% duplicates, cheap to evaluate."""
    unique = [
        SimulateSpec(num_rays=m, num_robots=k, num_faulty=f, horizon=float(horizon))
        for m, k, f in [(2, 1, 0), (2, 3, 1)]
        for horizon in range(10, 60)
    ]
    return unique + list(reversed(unique))


class TestJobResultSpill:
    def test_cache_ensure_stores_once_and_is_counter_neutral(self):
        cache = ResultCache(max_entries=8)
        key = "ab" * 32
        before = cache.stats()
        assert cache.ensure(key, {"value": 1}) is True
        assert cache.ensure(key, {"value": 1}) is False
        stats = cache.stats()
        assert stats.stores == before.stores + 1
        assert stats.hits == before.hits  # presence checks count nothing
        assert stats.misses == before.misses

    def test_spilled_job_rehydrates_bit_identically(self):
        scenarios = _spill_grid()
        assert len(scenarios) >= 200
        serial = ScenarioScheduler().run_batch(scenarios, max_workers=1)

        scheduler = ScenarioScheduler()
        job = scheduler.submit_job(scenarios, max_workers=1)
        assert job.wait(timeout=300)
        assert job.state == "done"
        assert job.spilled is True

        first = job.to_dict()
        second = job.to_dict()
        assert first["spilled"] is True
        assert first["results"] == list(serial.results)  # bit-identical
        assert first["results"] == second["results"]  # stable across polls
        batch = job.result()
        assert list(batch.results) == list(serial.results)
        assert batch.num_unique == serial.num_unique

    def test_spill_survives_cache_eviction_by_recomputing(self):
        specs = montecarlo_grid_specs(
            [(2, 1, 0), (2, 3, 1), (3, 2, 0), (3, 4, 1)],
            horizon=100.0,
            num_trials=32,
            seed=5,
        )
        serial = ScenarioScheduler().run_batch(specs, max_workers=1)
        scheduler = ScenarioScheduler(cache=ResultCache(max_entries=8))
        job = scheduler.submit_job(specs, max_workers=1)
        assert job.wait(timeout=300)
        assert job.spilled is True
        # Wipe every cached entry: rehydration must recompute all four
        # results from the retained canonical specs, bit-identically.
        scheduler.cache.clear()
        assert job.to_dict()["results"] == list(serial.results)
        assert list(job.result().results) == list(serial.results)

    def test_spill_declined_when_results_exceed_cache_capacity(self):
        # 4 unique results cannot live in a 2-slot memory-only cache:
        # spilling would force a near-full recompute on every poll, so the
        # job keeps its payloads instead.
        specs = montecarlo_grid_specs(
            [(2, 1, 0), (2, 3, 1), (3, 2, 0), (3, 4, 1)],
            horizon=100.0,
            num_trials=32,
            seed=5,
        )
        serial = ScenarioScheduler().run_batch(specs, max_workers=1)
        scheduler = ScenarioScheduler(cache=ResultCache(max_entries=2))
        job = scheduler.submit_job(specs, max_workers=1)
        assert job.wait(timeout=300)
        assert job.spilled is False
        assert job.to_dict()["results"] == list(serial.results)

    def test_spill_accepted_for_oversized_results_with_disk_tier(self, tmp_path):
        # A disk tier never evicts, so the same oversized grid spills and
        # rehydrates from disk.
        specs = montecarlo_grid_specs(
            [(2, 1, 0), (2, 3, 1), (3, 2, 0), (3, 4, 1)],
            horizon=100.0,
            num_trials=32,
            seed=5,
        )
        serial = ScenarioScheduler().run_batch(specs, max_workers=1)
        scheduler = ScenarioScheduler(
            cache=ResultCache(max_entries=2, disk_path=str(tmp_path))
        )
        job = scheduler.submit_job(specs, max_workers=1)
        assert job.wait(timeout=300)
        assert job.spilled is True
        assert job.to_dict()["results"] == list(serial.results)

    def test_spilled_job_over_http_identical_across_polls(self, worker):
        scenarios = [spec.to_dict() for spec in _spill_grid()]
        serial = ScenarioScheduler().run_batch(_spill_grid(), max_workers=1)
        status, submitted = _post(
            worker.url + "/jobs",
            {"scenarios": scenarios, "max_workers": 1, "shard_size": 16},
        )
        assert status == 202
        job_path = worker.url + submitted["path"]
        deadline = time.monotonic() + 300
        while True:
            status, body = _get(job_path)
            assert status == 200
            if body["state"] != "running":
                break
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert body["state"] == "done"
        assert body["spilled"] is True
        status, again = _get(job_path)
        assert body["results"] == again["results"]  # identical across polls
        assert body["results"] == list(serial.results)  # and to serial
        # The listing never carries payloads, spilled or not.
        _status, listing = _get(worker.url + "/jobs")
        for summary in listing["jobs"]:
            assert "results" not in summary


# ----------------------------------------------------------------------
# Coordinator /workers exposes supervisor + queue-depth stats
# ----------------------------------------------------------------------
class TestWorkersEndpointStats:
    def test_workers_endpoint_reports_queue_and_supervisor(self, worker):
        coordinator, thread = _start_server(
            workers=[worker.url], reprobe_interval=5.0
        )
        try:
            status, body = _get(coordinator.url + "/workers")
            assert status == 200
            assert body["queue_depth"] == 0
            assert body["active_batches"] == 0
            assert body["supervisor"]["running"] is True
            assert body["supervisor"]["reprobe_interval"] == 5.0
            assert body["workers"][0]["retries"] == 0
            pool = coordinator.scheduler.worker_pool
            supervisor = pool.supervisor
        finally:
            _stop_server(coordinator, thread)
        # server_close stops the supervisor thread deterministically.
        supervisor._thread.join(timeout=10)
        assert supervisor.running is False
