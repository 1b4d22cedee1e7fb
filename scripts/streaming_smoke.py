#!/usr/bin/env python
"""CI smoke test for adaptive-precision jobs streamed over the row endpoint.

Spins up, as subprocesses on ephemeral ports, one ``repro serve`` **worker**
and one coordinator dispatching to it, then

1. submits a grid of *adaptive* Monte-Carlo scenarios (``target_se`` +
   ``max_trials``, with the two precision-free golden scenarios riding
   along) as an async job and consumes ``GET /jobs/<id>/rows`` as an SSE
   stream — every row must arrive exactly once, in index order, with the
   first row delivered while the job is still ``running`` (the job's last
   scenario is deliberately heavy, so the job is still running when the
   first row lands by design, not by winning a race);
2. asserts the adaptive payloads report ``trials_used``/``converged``, that
   at least one cell stopped early (trials saved), and that the goldens
   came through exact (line ratio 9, randomized closed form 4.5911);
3. re-streams a suffix via ``?start=`` and checks it matches the tail of
   the full stream bit for bit;
4. resubmits the identical grid: the second job must evaluate **nothing**
   (100% cache hits) and its streamed rows must be identical to the first
   job's;
5. checks the telemetry surfaced: the coordinator counted the streamed
   rows (``repro_rows_streamed_total``) and labelled the endpoint
   ``/jobs/:id/rows``; coordinator plus worker
   ``repro_mc_trials_total{outcome=used|saved}`` equal exactly the trials
   the first job's unique Monte-Carlo scenarios used and left unspent,
   wherever each shard ran.

Run from the repository root:  ``python scripts/streaming_smoke.py``
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import urllib.request

GOLDEN_SIMULATE = {"kind": "simulate", "num_rays": 2, "num_robots": 1,
                   "num_faulty": 0, "horizon": 200.0}
GOLDEN_RANDOMIZED = {"kind": "montecarlo_randomized", "num_rays": 2,
                     "num_samples": 4000, "seed": 7, "horizon": 1000.0}
#: ~0.9 s of engine work on a 2-CPU container, far longer than the first
#: row takes to land.  The scalar engine's per-trial loop is what takes the
#: time: the vectorized engine evaluates these trials in a few ms.
HEAVY = {"kind": "montecarlo_faults", "num_rays": 3, "num_robots": 4,
         "num_faulty": 1, "num_trials": 196608, "seed": 99, "horizon": 100.0,
         "engine": "scalar"}
MC_BUDGET = {"montecarlo_faults": "num_trials",
             "montecarlo_randomized": "num_samples"}


def _grid():
    unique = [
        {"kind": "montecarlo_faults", "num_rays": m, "num_robots": k,
         "num_faulty": f, "num_trials": 64, "seed": seed, "horizon": 100.0,
         "target_se": 0.25, "max_trials": 256, "chunk_trials": 32}
        for m, k, f in [(2, 1, 0), (2, 3, 1), (3, 2, 0), (3, 4, 1)]
        for seed in range(12)
    ]
    unique += [GOLDEN_SIMULATE, GOLDEN_RANDOMIZED]
    # 101 scenarios: 50 duplicated, and the heavy one last.
    return unique + list(reversed(unique)) + [HEAVY]


def _expected_trials(scenarios, rows):
    """Trials the unique Monte-Carlo rows used and left in their budgets."""
    expected = {"used": 0, "saved": 0}
    seen = set()
    for row in rows:
        spec = scenarios[row["index"]]
        if spec["kind"] not in MC_BUDGET or row["key"] in seen:
            continue
        seen.add(row["key"])
        used = row["result"]["trials_used"]
        budget = spec.get("max_trials", spec[MC_BUDGET[spec["kind"]]])
        expected["used"] += used
        expected["saved"] += budget - used
    return expected


def _request(base, path, payload=None):
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.loads(response.read())


def _start(extra_args, env, port=0):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         *extra_args],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    banner = process.stdout.readline().strip()
    assert banner.startswith("serving on http://"), f"unexpected banner: {banner!r}"
    return process, banner.split()[-1]


def _stream_rows(base, job_path, start=None, probe_state=None):
    """Consume one SSE stream; returns ``(rows, done, state_at_first_row)``."""
    url = base + job_path + "/rows"
    if start is not None:
        url += f"?start={start}"
    rows, done, first_state = [], None, None
    with urllib.request.urlopen(url, timeout=600) as response:
        content_type = response.headers["Content-Type"]
        assert content_type == "text/event-stream", content_type
        event, data = None, None
        for raw in response:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("event: "):
                event = line[len("event: "):]
            elif line.startswith("data: "):
                data = json.loads(line[len("data: "):])
            elif not line and event is not None:
                if event == "done":
                    done = data
                    break
                rows.append(data)
                if first_state is None and probe_state is not None:
                    first_state = probe_state()
                event, data = None, None
    return rows, done, first_state


def _counter(snapshot, name, labels=None):
    total = 0
    for entry in snapshot["counters"]:
        if entry["name"] != name:
            continue
        if labels and any(entry["labels"].get(k) != v for k, v in labels.items()):
            continue
        total += entry["value"]
    return total


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in ("src", env.get("PYTHONPATH")) if part
    )
    processes = []
    try:
        worker, worker_url = _start([], env)
        processes.append(worker)
        coordinator, url = _start(["--workers", worker_url], env)
        processes.append(coordinator)
        print(f"worker at {worker_url}, coordinator at {url}")

        scenarios = _grid()
        submitted = _request(url, "/jobs", {"scenarios": scenarios,
                                            "shard_size": 4})
        job_path = submitted["path"]
        print(f"adaptive job {submitted['job_id']} submitted "
              f"({len(scenarios)} scenarios)")

        rows, done, first_state = _stream_rows(
            url, job_path,
            probe_state=lambda: _request(url, job_path)["state"],
        )
        assert first_state == "running", (
            f"first row must land mid-run, job was {first_state!r}"
        )
        assert done == {"state": "done", "num_rows": len(scenarios)}, done
        indices = [row["index"] for row in rows]
        assert indices == list(range(len(scenarios))), (
            "rows must arrive exactly once, in index order"
        )

        adaptive = [row["result"] for row in rows
                    if "target_se" in scenarios[row["index"]]]
        assert all(r["trials_used"] <= 256 for r in adaptive)
        assert all(r["converged"] in (True, False) for r in adaptive)
        saved = sum(256 - r["trials_used"] for r in adaptive
                    if r["converged"])
        assert saved > 0, "no adaptive cell converged below its budget"

        simulate = next(row["result"] for row in rows
                        if row["result"]["kind"] == "simulate")
        assert simulate["theoretical"] == 9.0, simulate["theoretical"]
        randomized = next(row["result"] for row in rows
                         if row["result"]["kind"] == "montecarlo_randomized")
        assert abs(randomized["closed_form"] - 4.5911) <= 5e-5
        assert randomized["converged"] is None  # precision-free golden

        # Resume semantics: a suffix stream replays the tail bit for bit.
        tail, tail_done, _state = _stream_rows(url, job_path, start=90)
        assert tail == rows[90:], "resumed stream diverged from the tail"
        assert tail_done == done

        # Identical resubmission: everything is a cache hit, and the
        # streamed rows are bit-identical to the first job's.
        second = _request(url, "/jobs", {"scenarios": scenarios,
                                         "shard_size": 4})
        second_rows, second_done, _state = _stream_rows(url, second["path"])
        assert second_done == done
        assert second_rows == rows, "cached job streamed different rows"
        stats = _request(url, second["path"])["stats"]
        assert stats["evaluated"] == 0, stats
        assert stats["cache_hits"] == stats["num_unique"], stats

        # Telemetry: the coordinator counted streamed rows under the
        # templated path label, and the cluster counted every trial once.
        coordinator_metrics = _request(url, "/metrics.json")
        streamed = _counter(coordinator_metrics, "repro_rows_streamed_total")
        assert streamed >= 2 * len(scenarios) + 10, streamed
        assert _counter(
            coordinator_metrics, "repro_http_requests_total",
            {"path": "/jobs/:id/rows"},
        ) >= 3  # full stream + ?start= tail + second job's stream
        worker_metrics = _request(worker_url, "/metrics.json")
        counted = {
            outcome: sum(
                _counter(snapshot, "repro_mc_trials_total", {"outcome": outcome})
                for snapshot in (coordinator_metrics, worker_metrics)
            )
            for outcome in ("used", "saved")
        }
        expected = _expected_trials(scenarios, rows)
        assert counted == expected, (
            f"cluster counted trials {counted}, payloads report {expected}"
        )

        print(
            f"streaming smoke OK: {len(rows)} rows streamed in order "
            f"(first row mid-run), {saved} trials saved by adaptive "
            f"stopping, resubmission 100% cache hits "
            f"({stats['cache_hits']}/{stats['num_unique']}), cluster "
            f"trials used={counted['used']} saved={counted['saved']}"
        )
        return 0
    finally:
        for process in processes:
            process.terminate()
        for process in processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()


if __name__ == "__main__":
    sys.exit(main())
