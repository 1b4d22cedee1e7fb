"""Command-line interface.

``repro-search`` (or ``python -m repro``) exposes the most common queries
without writing any Python:

* ``bounds`` — print the tight competitive ratio for given ``(m, k, f)``;
* ``simulate`` — measure the optimal strategy for ``(m, k, f)`` on a horizon
  and compare against the closed form;
* ``experiments`` — regenerate one or all experiment tables of
  EXPERIMENTS.md;
* ``timeline`` — print the event timeline of a search execution against a
  chosen target;
* ``montecarlo`` — run a seeded Monte-Carlo campaign (random crash faults,
  or the randomized-offset ray search) through the batched engine and
  report trial statistics;
* ``serve`` — start the HTTP evaluation server (:mod:`repro.service`);
  ``--workers`` turns it into a coordinator that pull-dispatches batch
  shards to remote ``repro serve`` instances, with ``--reprobe-interval``
  controlling the background supervisor that heals dead workers and
  ``--worker-timeout``/``--worker-connect-timeout`` bounding one shard's
  read and the TCP dial separately; ``--journal`` makes the coordinator
  durable (jobs journaled to SQLite, replayed and resumed on restart)
  and ``--cache-peers`` lets cache misses consult other nodes'
  ``GET /cache/<key>`` before recomputing;
* ``batch`` — evaluate a JSON file of scenario specs through the batch
  scheduler (dedup + cache + process-pool shards); ``--workers`` adds
  remote executors (same tuning flags as ``serve``), ``--cache-peers``
  consults a running cluster's caches, and ``--async`` runs the batch as
  a background job with live progress on stderr;
* ``cache gc`` — drop on-disk cache entries whose engine version no
  longer matches the running ``ENGINE_VERSION``, and/or compact a job
  journal (``--journal``), dropping rows no current engine can
  reproduce;
* ``experiment run`` — compile a JSON experiment spec (generators ×
  strategies × metrics, see :mod:`repro.experiment`) into one deduped
  batch, evaluate it, and persist the artifact table (``table.json`` +
  ``table.csv``) under a directory keyed by the experiment's content
  hash; same ``--workers``/``--cache-peers`` fan-out flags as ``batch``;
* ``top`` — live telemetry summary of a running ``repro serve`` node:
  counters, gauges and latency percentiles from ``GET /metrics.json``,
  plus the per-worker straggler view from ``GET /workers`` on
  coordinators; refreshes every ``--interval`` seconds (``--once`` for
  a single frame, scriptable with ``--json``);
* ``trace`` — fetch one job's span tree (``GET /trace/<job_id>``) from
  a running server and render it indented, or export Chrome
  ``trace_event`` JSON with ``--chrome`` for ``chrome://tracing`` /
  Perfetto.

``bounds``, ``simulate``, ``montecarlo`` and ``timeline`` build one
scenario spec from their flags and evaluate it exactly as ``POST
/evaluate`` does.  ``--json`` prints that payload; the default table is
rendered from the same payload's fields, so the two outputs never
disagree.  Bad input — flags a spec rejects, an unreadable or invalid
batch or experiment file, an unreachable server for ``top``/``trace`` —
prints one ``error: …`` line on stderr and exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import List, Optional

from .analysis.tables import EXPERIMENTS, all_experiments
from .exceptions import InvalidProblemError, ReproError
from .reporting import format_value, render_experiment, render_json, render_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-search",
        description=(
            "Faulty-robot search on the line and on m rays — reproduction of "
            "Kupavskii & Welzl, PODC 2018."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_json_flag(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--json",
            action="store_true",
            help="emit the HTTP-service JSON payload instead of a table",
        )

    bounds_parser = subparsers.add_parser(
        "bounds", help="print the tight competitive-ratio bound A(m, k, f)"
    )
    bounds_parser.add_argument("--rays", "-m", type=int, default=2)
    bounds_parser.add_argument("--robots", "-k", type=int, required=True)
    bounds_parser.add_argument("--faulty", "-f", type=int, default=0)
    add_json_flag(bounds_parser)

    simulate_parser = subparsers.add_parser(
        "simulate", help="measure the optimal strategy against the closed form"
    )
    simulate_parser.add_argument("--rays", "-m", type=int, default=2)
    simulate_parser.add_argument("--robots", "-k", type=int, required=True)
    simulate_parser.add_argument("--faulty", "-f", type=int, default=0)
    simulate_parser.add_argument("--horizon", type=float, default=1e4)
    add_json_flag(simulate_parser)

    experiments_parser = subparsers.add_parser(
        "experiments", help="regenerate experiment tables (EXPERIMENTS.md)"
    )
    experiments_parser.add_argument(
        "--only",
        choices=list(EXPERIMENTS),
        default=None,
        help="run a single experiment instead of all of them",
    )
    experiments_parser.add_argument(
        "--full",
        action="store_true",
        help="use the larger horizons reported in EXPERIMENTS.md",
    )
    add_json_flag(experiments_parser)

    montecarlo_parser = subparsers.add_parser(
        "montecarlo",
        help="seeded Monte-Carlo campaign (batched engine) with trial statistics",
    )
    montecarlo_parser.add_argument(
        "--workload",
        choices=["faults", "randomized"],
        default="faults",
        help="random crash-fault injection, or randomized-offset ray search",
    )
    montecarlo_parser.add_argument("--rays", "-m", type=int, default=2)
    montecarlo_parser.add_argument("--robots", "-k", type=int, default=1)
    montecarlo_parser.add_argument("--faulty", "-f", type=int, default=0)
    montecarlo_parser.add_argument("--trials", type=int, default=2000)
    montecarlo_parser.add_argument("--seed", type=int, default=0)
    montecarlo_parser.add_argument("--horizon", type=float, default=1e3)
    montecarlo_parser.add_argument(
        "--engine", choices=["vectorized", "scalar"], default="vectorized"
    )
    add_json_flag(montecarlo_parser)

    timeline_parser = subparsers.add_parser(
        "timeline", help="print the event timeline of one search execution"
    )
    timeline_parser.add_argument("--rays", "-m", type=int, default=2)
    timeline_parser.add_argument("--robots", "-k", type=int, required=True)
    timeline_parser.add_argument("--faulty", "-f", type=int, default=0)
    timeline_parser.add_argument("--target-ray", type=int, default=0)
    timeline_parser.add_argument("--target-distance", type=float, default=10.0)
    timeline_parser.add_argument("--limit", type=int, default=40)
    add_json_flag(timeline_parser)

    serve_parser = subparsers.add_parser(
        "serve", help="start the HTTP evaluation server (repro.service)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8765, help="0 binds an ephemeral port"
    )
    serve_parser.add_argument(
        "--cache-size", type=int, default=1024, help="in-memory LRU capacity"
    )
    serve_parser.add_argument(
        "--cache-dir", default=None, help="optional on-disk cache directory"
    )
    serve_parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="SQLite job journal: jobs are recorded as they run and "
        "replayed on restart (finished jobs rehydrated, interrupted "
        "jobs resumed)",
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log one line per request"
    )
    serve_parser.add_argument(
        "--workers",
        action="append",
        default=None,
        metavar="URL[,URL...]",
        help="remote `repro serve` base URLs to dispatch batch shards to "
        "(repeatable, comma-separated values accepted)",
    )
    _add_cache_peer_flag(serve_parser)
    _add_worker_tuning_flags(serve_parser)

    batch_parser = subparsers.add_parser(
        "batch",
        help="evaluate a JSON scenario list through the batch scheduler",
    )
    batch_parser.add_argument(
        "--file",
        required=True,
        help="JSON file with a list of scenario specs (or '-' for stdin); "
        "a {'scenarios': [...]} object is accepted too",
    )
    batch_parser.add_argument("--max-workers", type=int, default=None)
    batch_parser.add_argument("--shard-size", type=int, default=None)
    batch_parser.add_argument(
        "--cache-dir", default=None, help="optional on-disk cache directory"
    )
    batch_parser.add_argument(
        "--workers",
        action="append",
        default=None,
        metavar="URL[,URL...]",
        help="remote `repro serve` base URLs to dispatch shards to "
        "(repeatable, comma-separated values accepted)",
    )
    _add_cache_peer_flag(batch_parser)
    _add_worker_tuning_flags(batch_parser)
    batch_parser.add_argument(
        "--async",
        dest="async_mode",
        action="store_true",
        help="run the batch as a background job and poll its progress",
    )
    batch_parser.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        help="seconds between progress polls with --async",
    )
    batch_parser.add_argument(
        "--stream",
        action="store_true",
        help="print each result row the moment its shard finishes (one "
        "JSON line per row with --json), then the batch stats",
    )
    add_json_flag(batch_parser)

    cache_parser = subparsers.add_parser(
        "cache", help="result-cache maintenance (see repro.service.cache)"
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    gc_parser = cache_sub.add_parser(
        "gc",
        help="drop on-disk entries whose engine version no longer matches "
        "ENGINE_VERSION; --journal compacts a job journal the same way",
    )
    gc_parser.add_argument(
        "--cache-dir", default=None, help="on-disk cache directory to sweep"
    )
    gc_parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="job journal to compact (drops jobs no current engine version "
        "can reproduce, then VACUUMs the file)",
    )
    gc_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be dropped without deleting anything",
    )
    add_json_flag(gc_parser)

    experiment_parser = subparsers.add_parser(
        "experiment",
        help="experiment grids (generators × strategies × metrics; "
        "see repro.experiment)",
    )
    experiment_sub = experiment_parser.add_subparsers(
        dest="experiment_command", required=True
    )
    run_parser = experiment_sub.add_parser(
        "run",
        help="compile a JSON experiment spec, evaluate it as one deduped "
        "batch and persist the artifact table",
    )
    run_parser.add_argument(
        "spec",
        help="JSON experiment spec file (or '-' for stdin) with "
        "{name, seed, generators, strategies, metrics}",
    )
    run_parser.add_argument(
        "--output-dir",
        default="experiments-out",
        help="artifact root; the table lands in <output-dir>/<name>-<hash12>/",
    )
    run_parser.add_argument("--max-workers", type=int, default=None)
    run_parser.add_argument("--shard-size", type=int, default=None)
    run_parser.add_argument(
        "--cache-dir", default=None, help="optional on-disk cache directory"
    )
    run_parser.add_argument(
        "--workers",
        action="append",
        default=None,
        metavar="URL[,URL...]",
        help="remote `repro serve` base URLs to dispatch shards to "
        "(repeatable, comma-separated values accepted)",
    )
    _add_cache_peer_flag(run_parser)
    _add_worker_tuning_flags(run_parser)
    run_parser.add_argument(
        "--stream",
        action="store_true",
        help="print table rows as their shards finish and write table.csv "
        "incrementally (final artifacts identical to a non-streamed run)",
    )
    add_json_flag(run_parser)

    top_parser = subparsers.add_parser(
        "top",
        help="live telemetry summary of a running `repro serve` node",
    )
    top_parser.add_argument(
        "--url",
        default="http://127.0.0.1:8765",
        help="base URL of the server to watch",
    )
    top_parser.add_argument(
        "--interval",
        type=_refresh_interval,
        default=2.0,
        metavar="SECONDS",
        help="seconds between refreshes (at least 0.1)",
    )
    top_parser.add_argument(
        "--once",
        action="store_true",
        help="print a single frame and exit instead of refreshing",
    )
    top_parser.add_argument(
        "--json",
        action="store_true",
        help="emit one raw {metrics, workers} JSON snapshot and exit",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="fetch a job's trace span tree from a running server",
    )
    trace_parser.add_argument(
        "job_id", help="job id (or any trace id retained by the server)"
    )
    trace_parser.add_argument(
        "--url",
        default="http://127.0.0.1:8765",
        help="base URL of the server that ran the job",
    )
    trace_parser.add_argument(
        "--chrome",
        default=None,
        metavar="PATH",
        help="write Chrome trace_event JSON to PATH ('-' for stdout) "
        "instead of the text tree; load it in chrome://tracing or "
        "https://ui.perfetto.dev",
    )
    add_json_flag(trace_parser)
    return parser


def _refresh_interval(value: str) -> float:
    """Parse ``repro top --interval``, rejecting sub-clamp values loudly.

    The refresh loop used to clamp anything below 0.1 s silently — a user
    asking for ``--interval 0.01`` (or a negative value) got a 0.1 s loop
    with no hint their flag was ignored.  Reject it at parse time instead.
    """
    try:
        interval = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid interval {value!r}")
    if not interval >= 0.1:  # also rejects NaN
        raise argparse.ArgumentTypeError(
            f"refresh interval must be at least 0.1 seconds, got {value}"
        )
    return interval


def _add_cache_peer_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--cache-peers",
        action="append",
        default=None,
        metavar="URL[,URL...]",
        help="base URLs of other `repro serve` nodes whose GET /cache/<key> "
        "is consulted on a local cache miss before recomputing "
        "(repeatable, comma-separated values accepted)",
    )


def _add_worker_tuning_flags(subparser: argparse.ArgumentParser) -> None:
    """Shared ``--workers`` tuning knobs for ``serve`` and ``batch``."""
    subparser.add_argument(
        "--reprobe-interval",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="re-probe dead workers in the background with exponential "
        "backoff starting at this interval (0 disables the supervisor)",
    )
    subparser.add_argument(
        "--worker-timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="budget for reading one shard response from a worker",
    )
    subparser.add_argument(
        "--worker-connect-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="budget for dialing a worker (kept far below --worker-timeout "
        "so a vanished worker fails over in seconds)",
    )


def _parse_worker_urls(values) -> Optional[List[str]]:
    """Flatten repeated/comma-separated ``--workers`` values into URLs."""
    if not values:
        return None
    urls = [url.strip() for value in values for url in value.split(",")]
    return [url for url in urls if url] or None


def _query_spec(args: argparse.Namespace):
    """The scenario spec a query subcommand's flags describe."""
    from .service import spec

    problem = dict(num_rays=args.rays)
    if args.command != "montecarlo" or args.workload == "faults":
        problem.update(num_robots=args.robots, num_faulty=args.faulty)
    if args.command == "bounds":
        return spec.BoundsSpec(**problem)
    if args.command == "simulate":
        return spec.SimulateSpec(**problem, horizon=args.horizon)
    if args.command == "timeline":
        if args.limit < 0:
            raise InvalidProblemError(f"--limit must be non-negative, got {args.limit}")
        return spec.TimelineSpec(
            **problem,
            target_ray=args.target_ray,
            target_distance=args.target_distance,
        )
    campaign = dict(seed=args.seed, horizon=args.horizon, engine=args.engine)
    if args.workload == "randomized":
        return spec.MonteCarloRandomizedSpec(
            **problem, num_samples=args.trials, **campaign
        )
    return spec.MonteCarloFaultsSpec(**problem, num_trials=args.trials, **campaign)


def _bounds_table(payload: dict, args: argparse.Namespace) -> str:
    lines = [
        payload["problem"]["description"],
        f"tight competitive ratio: {format_value(payload['ratio'])}",
    ]
    if "alpha_star" in payload:
        alpha = format_value(payload["alpha_star"], 6)
        lines.append(f"optimal geometric base alpha*: {alpha}")
    return "\n".join(lines)


def _described_table(payload: dict, rows: list) -> str:
    """The payload's problem description over a quantity/value table."""
    table = render_table(["quantity", "value"], rows)
    return f"{payload['problem']['description']}\n{table}"


def _simulate_table(payload: dict, args: argparse.Namespace) -> str:
    worst = payload["worst_case"]["target"]
    rows = [
        ["strategy", payload["strategy_name"]],
        ["horizon", payload["horizon"]],
        ["theoretical ratio", payload["theoretical_ratio"]],
        ["measured ratio", payload["ratio"]],
        ["worst target ray", worst["ray"]],
        ["worst target distance", worst["distance"]],
        ["targets evaluated", payload["num_targets_evaluated"]],
    ]
    return _described_table(payload, rows)


def _randomized_table(payload: dict, args: argparse.Namespace) -> str:
    rows = [
        ["workload", "randomized offset search"],
        ["rays", payload["num_rays"]],
        ["base", format_value(payload["base"], 6)],
        ["samples", payload["num_samples"]],
        ["closed-form expected ratio", format_value(payload["closed_form"], 6)],
        ["monte-carlo estimate", format_value(payload["estimate"], 6)],
        ["std error", format_value(payload["std_error"], 6)],
        ["within 3 std errors", payload["within_3_std_errors"]],
        ["engine", payload["engine"]],
        ["seed", payload["seed"]],
    ]
    return render_table(["quantity", "value"], rows)


def _faults_table(payload: dict, args: argparse.Namespace) -> str:
    quantiles = dict(payload["statistics"]["quantiles"])
    rows = [
        ["workload", "random crash faults"],
        ["strategy", payload["strategy_name"]],
        ["trials", payload["num_trials"]],
        ["adversarial ratio", payload["adversarial_ratio"]],
        ["mean ratio", payload["mean_ratio"]],
        ["std error", format_value(payload["std_error"], 6)],
        ["median ratio", quantiles[0.5]],
        ["95% quantile", quantiles[0.95]],
        ["max ratio", payload["max_ratio"]],
        ["slack vs adversary", payload["slack"]],
        ["engine", payload["engine"]],
        ["seed", payload["seed"]],
    ]
    return _described_table(payload, rows)


def _timeline_table(payload: dict, args: argparse.Namespace) -> str:
    from .simulation.timeline import Event, truncate_rows

    target = payload["target"]
    events = truncate_rows(
        [Event(**event).describe() for event in payload["events"]], args.limit
    )
    return "\n".join(
        [
            payload["problem"]["description"],
            f"target: ray {target['ray']}, distance "
            f"{format_value(target['distance'])}",
            *events,
            f"detection time: {format_value(payload['detection_time'])}",
        ]
    )


#: Payload kind -> its table; ``args`` only supplies ``--limit``.
_QUERY_TABLES = {
    "bounds": _bounds_table,
    "simulate": _simulate_table,
    "montecarlo_faults": _faults_table,
    "montecarlo_randomized": _randomized_table,
    "timeline": _timeline_table,
}


def _command_query(args: argparse.Namespace) -> int:
    """``bounds``/``simulate``/``montecarlo``/``timeline``: one spec, one payload.

    The payload is exactly what ``POST /evaluate`` returns for the spec;
    ``--json`` prints it and the table is rendered from its fields only.
    """
    from .service.execute import execute_spec

    payload = execute_spec(_query_spec(args))
    if args.json:
        print(render_json(payload))
    else:
        print(_QUERY_TABLES[payload["kind"]](payload, args))
    return 0


def _command_experiments(args: argparse.Namespace) -> int:
    tables = all_experiments(fast=not args.full, only=args.only)
    if args.json:
        print(render_json(tables))
        return 0
    for table in tables:
        print(render_experiment(table))
        print()
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from .service.cache import ResultCache
    from .service.server import create_server, run_server

    cache = ResultCache(
        max_entries=args.cache_size,
        disk_path=args.cache_dir,
        peers=_parse_worker_urls(args.cache_peers),
    )
    server = create_server(
        host=args.host,
        port=args.port,
        cache=cache,
        verbose=args.verbose,
        workers=_parse_worker_urls(args.workers),
        reprobe_interval=args.reprobe_interval,
        worker_timeout=args.worker_timeout,
        worker_connect_timeout=args.worker_connect_timeout,
        journal_path=args.journal,
    )
    if server.recovery is not None:
        # Stderr, so the banner below stays the first stdout line the
        # scripted smoke tests wait for.
        summary = ", ".join(
            f"{name}={count}" for name, count in sorted(server.recovery.items())
        )
        print(f"journal {args.journal}: {summary}", file=sys.stderr, flush=True)
    # The exact line scripted smoke tests wait for (port 0 binds ephemerally).
    print(f"serving on {server.url}", flush=True)
    run_server(server)
    return 0


def _read_json(path: str, what: str):
    """Decode the JSON document at ``path`` (``-`` reads stdin)."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        raise ReproError(f"cannot read {what} from {path!r}: {error}") from error


@contextlib.contextmanager
def _scheduler(args: argparse.Namespace):
    """A scheduler over ``--cache-dir``/``--cache-peers`` and ``--workers``.

    The ``--workers`` pool gets the ``--worker-*`` timeouts and, unless
    ``--reprobe-interval`` is 0, a supervisor.  Leaving the block closes
    the scheduler (its process pool), then the worker pool.
    """
    from .service.cache import ResultCache
    from .service.remote import RemoteWorkerPool
    from .service.scheduler import ScenarioScheduler

    with contextlib.ExitStack() as stack:
        urls = _parse_worker_urls(args.workers)
        pool = None
        if urls:
            pool = RemoteWorkerPool(
                urls,
                timeout=args.worker_timeout,
                connect_timeout=args.worker_connect_timeout,
            )
            stack.callback(pool.close)
        scheduler = ScenarioScheduler(
            cache=ResultCache(
                disk_path=args.cache_dir,
                peers=_parse_worker_urls(args.cache_peers),
            ),
            workers=pool,
        )
        stack.callback(scheduler.close)
        if pool is not None and args.reprobe_interval > 0:
            # Long batches heal mid-run restarts: a worker that comes back
            # is re-probed by the supervisor and the dispatch loop gives
            # it a slot again while shards remain queued.
            pool.start_supervisor(reprobe_interval=args.reprobe_interval)
        yield scheduler


def _command_batch(args: argparse.Namespace) -> int:
    from .service.spec import spec_from_dict

    body = _read_json(args.file, "scenarios")
    if isinstance(body, dict):
        body = body.get("scenarios")
    if not isinstance(body, list) or not body:
        raise ReproError("expected a non-empty JSON list of scenario specs")
    try:
        specs = [spec_from_dict(item) for item in body]
        with _scheduler(args) as scheduler:
            if args.stream or args.async_mode:
                job = scheduler.submit_job(
                    specs, max_workers=args.max_workers, shard_size=args.shard_size
                )
            if args.stream:
                for index, key, payload in job.iter_rows():
                    if args.json:
                        row = {"index": index, "key": key, "result": payload}
                        print(render_json(row, indent=None), flush=True)
                    else:
                        print(
                            f"row {index + 1}/{len(specs)} "
                            f"kind {specs[index].kind} key {key[:12]}",
                            flush=True,
                        )
                batch = job.result()
            elif args.async_mode:
                print(f"job {job.job_id} submitted ({len(specs)} scenarios)",
                      file=sys.stderr)
                while not job.wait(timeout=max(0.01, args.poll_interval)):
                    # ``total`` is the unique-scenario count once dedup has
                    # run; until then BatchJob.to_dict reports the submitted
                    # count, so the poll line is well-formed from the first
                    # tick.
                    snapshot = job.to_dict(include_results=False)["progress"]
                    print(
                        f"job {job.job_id}: {snapshot['completed']}/"
                        f"{snapshot['total']} unique scenarios",
                        file=sys.stderr,
                    )
                batch = job.result()
            else:
                batch = scheduler.run_batch(
                    specs, max_workers=args.max_workers, shard_size=args.shard_size
                )
    except ReproError as error:
        raise ReproError(f"invalid scenario or batch parameters: {error}") from error
    summary = {"stats": batch.to_dict(), "cache": scheduler.cache.stats().to_dict()}
    if args.json and args.stream:
        # Rows already went out as NDJSON lines; finish with one compact
        # summary line instead of repeating the result list.
        print(render_json(summary, indent=None))
    elif args.json:
        print(render_json(dict(summary, results=list(batch.results))))
    else:
        stats = dict(summary["stats"], cache_hit_rate=scheduler.cache.stats().hit_rate)
        print(render_table(["quantity", "value"], sorted(stats.items())))
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    from .service.cache import gc_disk_cache
    from .service.journal import gc_journal
    from .service.spec import ENGINE_VERSION

    # The subparser is required=True, so cache_command is always "gc" here;
    # the dispatch keeps room for future maintenance commands.
    if args.cache_dir is None and args.journal is None:
        raise ReproError("nothing to sweep — pass --cache-dir and/or --journal")
    payload = {"engine_version": ENGINE_VERSION}
    if args.cache_dir is not None:
        report = gc_disk_cache(args.cache_dir, dry_run=args.dry_run)
        payload.update(report.to_dict())
        payload["cache_dir"] = args.cache_dir
    if args.journal is not None:
        journal_report = gc_journal(args.journal, dry_run=args.dry_run)
        payload["journal"] = dict(journal_report.to_dict(), path=args.journal)
    if args.json:
        print(render_json(payload))
        return 0
    rows = sorted(
        (name, value) for name, value in payload.items() if name != "journal"
    )
    if "journal" in payload:
        rows.extend(
            (f"journal {name}", value)
            for name, value in sorted(payload["journal"].items())
        )
    print(render_table(["quantity", "value"], rows))
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    from .experiment import CsvRowStream, Experiment

    # experiment_command is required=True and currently only "run"; the
    # dispatch keeps room for future subcommands (diff, render, ...).
    body = _read_json(args.spec, "experiment spec")
    try:
        plan = Experiment.from_spec(body).compile()
        with _scheduler(args) as scheduler, contextlib.ExitStack() as stack:
            on_row = None
            if args.stream:
                directory = plan.artifact_directory(args.output_dir)
                os.makedirs(directory, exist_ok=True)
                stream = stack.enter_context(
                    CsvRowStream(os.path.join(directory, "table.csv"), plan.columns)
                )

                def on_row(row):
                    stream.write(row)
                    if args.json:
                        print(render_json({"row": row}, indent=None), flush=True)
                    else:
                        print(
                            f"cell {row[0] + 1}/{len(plan.cells)} "
                            f"{row[1]} × {row[2]} ({row[3]})",
                            flush=True,
                        )

            result = plan.run(
                scheduler=scheduler,
                max_workers=args.max_workers,
                shard_size=args.shard_size,
                on_row=on_row,
            )
    except ReproError as error:
        raise ReproError(f"invalid experiment spec: {error}") from error
    # persist() rewrites table.csv with the same bytes a streamed run
    # already wrote incrementally, plus table.json.
    paths = result.persist(args.output_dir)
    if args.json:
        payload = dict(result.to_dict(), artifacts=paths)
        if args.stream:
            del payload["rows"]
            print(render_json(payload, indent=None))
        else:
            print(render_json(payload))
        return 0
    print(f"experiment {plan.name} ({len(plan.cells)} cells, "
          f"hash {plan.content_hash()[:12]})")
    if not args.stream:
        print(render_table(result.plan.columns, result.rows))
    stats = dict(result.stats)
    stats.update(cache_hit_rate=scheduler.cache.stats().hit_rate)
    print(render_table(["quantity", "value"], sorted(stats.items())))
    print(f"artifacts: {paths['directory']}")
    return 0


def _http_get_json(url: str, timeout: float = 10.0):
    """GET ``url`` and decode the JSON body (stdlib only, like the service)."""
    from urllib.request import urlopen

    with urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def _series_label(entry: dict) -> str:
    """``name{k=v,...}`` display label for one metrics-snapshot series."""
    name = str(entry.get("name", "?"))
    labels = entry.get("labels") or {}
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in sorted(labels.items()))
    return f"{name}{{{inner}}}"


def _scenario_count(snapshot: dict) -> Optional[float]:
    """Sum of ``repro_scenarios_total`` across its label sets, if present."""
    entries = snapshot.get("counters")
    if not isinstance(entries, list):
        return None
    total = None
    for entry in entries:
        if isinstance(entry, dict) and entry.get("name") == "repro_scenarios_total":
            value = entry.get("value")
            if isinstance(value, (int, float)):
                total = (total or 0.0) + value
    return total


def render_top(
    snapshot: dict,
    workers: Optional[dict] = None,
    previous: Optional[dict] = None,
    elapsed: Optional[float] = None,
) -> str:
    """Render one ``repro top`` frame from a ``GET /metrics.json`` payload.

    Pure (no I/O), so tests can feed it canned snapshots.  ``workers`` is
    the optional ``GET /workers`` payload a coordinator serves; worker-only
    nodes pass ``None`` and just get the counter/latency tables.

    ``previous``/``elapsed`` (the prior frame's snapshot and the seconds
    between scrapes) add a scenarios-per-second throughput line from the
    ``repro_scenarios_total`` delta.  Guarded against a zero-elapsed
    refresh and a counter that moved backwards (server restart): either
    way the line is simply omitted rather than printing ``inf`` or a
    negative rate.
    """
    from .service import telemetry

    lines = []
    since = snapshot.get("since")
    header = "repro top"
    if isinstance(since, (int, float)) and since > 0:
        header += f" — server up {max(0.0, time.time() - since):.0f}s"
    if previous is not None and elapsed is not None and elapsed > 0:
        now_total = _scenario_count(snapshot)
        prev_total = _scenario_count(previous)
        if now_total is not None and prev_total is not None:
            delta = now_total - prev_total
            if delta >= 0:
                header += (
                    f" — {delta / elapsed:.1f} scenarios/s over {elapsed:.1f}s"
                )
    lines.append(header)

    scalar_rows = []
    for kind in ("counters", "gauges"):
        entries = snapshot.get(kind)
        if not isinstance(entries, list):
            continue
        for entry in entries:
            if isinstance(entry, dict):
                scalar_rows.append(
                    [_series_label(entry), format_value(entry.get("value", 0))]
                )
    if scalar_rows:
        lines.append("")
        lines.append(render_table(["series", "value"], sorted(scalar_rows)))

    histogram_rows = []
    entries = snapshot.get("histograms")
    if isinstance(entries, list):
        for entry in entries:
            if not isinstance(entry, dict):
                continue
            summary = telemetry.summarize_histogram(entry)
            histogram_rows.append(
                [
                    _series_label(entry),
                    summary["count"],
                    format_value(summary["p50_seconds"], 6),
                    format_value(summary["p95_seconds"], 6),
                    format_value(summary["p99_seconds"], 6),
                ]
            )
    if histogram_rows:
        lines.append("")
        lines.append(
            render_table(
                ["latency", "count", "p50 (s)", "p95 (s)", "p99 (s)"],
                sorted(histogram_rows),
            )
        )

    if isinstance(workers, dict):
        entries = workers.get("workers")
        worker_rows = [
            [
                entry.get("url"),
                "up" if entry.get("alive") else "DOWN",
                entry.get("shards_completed", 0),
                format_value(entry.get("p50_seconds", 0.0), 6),
                format_value(entry.get("p95_seconds", 0.0), 6),
                "STRAGGLER" if entry.get("straggler") else "",
            ]
            for entry in entries or []
            if isinstance(entry, dict)
        ]
        if worker_rows:
            lines.append("")
            lines.append(
                f"workers: {workers.get('num_live', 0)}/"
                f"{workers.get('num_workers', 0)} live, "
                f"queue depth {workers.get('queue_depth', 0)}, "
                f"failovers {workers.get('failovers', 0)}"
            )
            lines.append(
                render_table(
                    ["worker", "state", "shards", "p50 (s)", "p95 (s)", ""],
                    worker_rows,
                )
            )
    return "\n".join(lines)


def _command_top(args: argparse.Namespace) -> int:
    base = args.url.rstrip("/")

    def fetch():
        snapshot = _http_get_json(f"{base}/metrics.json")
        try:
            workers = _http_get_json(f"{base}/workers")
        except (OSError, ValueError):
            workers = None  # worker-only node: /workers is a 404
        return snapshot, workers

    try:
        snapshot, workers = fetch()
    except (OSError, ValueError) as error:
        raise ReproError(f"cannot scrape {base}: {error}") from error
    if args.json:
        print(render_json({"metrics": snapshot, "workers": workers}))
        return 0
    print(render_top(snapshot, workers))
    if args.once:
        return 0
    # args.interval is validated at parse time (>= 0.1), so the loop
    # sleeps exactly what was asked instead of silently clamping.
    previous, previous_at = snapshot, time.monotonic()
    try:
        while True:
            time.sleep(args.interval)
            try:
                snapshot, workers = fetch()
            except (OSError, ValueError) as error:
                print(f"(scrape failed, retrying: {error})", file=sys.stderr)
                continue
            now = time.monotonic()
            # Clear + home, like watch(1), so the frame repaints in place.
            print("\x1b[2J\x1b[H", end="")
            print(
                render_top(
                    snapshot, workers, previous=previous, elapsed=now - previous_at
                ),
                flush=True,
            )
            previous, previous_at = snapshot, now
    except KeyboardInterrupt:
        return 0


def _command_trace(args: argparse.Namespace) -> int:
    from .service.telemetry import render_span_tree

    base = args.url.rstrip("/")
    try:
        if args.chrome is not None:
            payload = _http_get_json(f"{base}/trace/{args.job_id}/chrome")
            text = render_json(payload)
            if args.chrome == "-":
                print(text)
            else:
                with open(args.chrome, "w", encoding="utf-8") as handle:
                    handle.write(text + "\n")
                print(
                    f"wrote {len(payload.get('traceEvents', []))} trace "
                    f"events to {args.chrome} (open in chrome://tracing "
                    "or https://ui.perfetto.dev)",
                    file=sys.stderr,
                )
            return 0
        tree = _http_get_json(f"{base}/trace/{args.job_id}")
    except (OSError, ValueError) as error:
        raise ReproError(
            f"cannot fetch trace {args.job_id!r} from {base}: {error}"
        ) from error
    if args.json:
        print(render_json(tree))
        return 0
    print(render_span_tree(tree))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "bounds": _command_query,
        "simulate": _command_query,
        "experiments": _command_experiments,
        "montecarlo": _command_query,
        "timeline": _command_query,
        "serve": _command_serve,
        "batch": _command_batch,
        "cache": _command_cache,
        "experiment": _command_experiment,
        "top": _command_top,
        "trace": _command_trace,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
