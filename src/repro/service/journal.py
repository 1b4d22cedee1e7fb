"""Durable job journal: SQLite-backed crash recovery for the coordinator.

PR 5 made the *workers* expendable (pull dispatch, supervisor revival,
mid-batch rejoin); this module removes the last single point of failure.
Every asynchronous job the :class:`~repro.service.scheduler.ScenarioScheduler`
accepts is journaled to an append-only SQLite database (stdlib
:mod:`sqlite3`, no extra dependencies):

* **submission** — the job id, the canonical spec dict and content key of
  every scenario position, and the batch options (``max_workers``,
  ``shard_size``), written in one transaction before the job starts;
* **per-shard completion** — the result keys of each finished shard, so a
  restart knows exactly which shards need re-running (their payloads live
  in the content-addressed disk cache under those keys);
* **terminal state** — ``done`` (with the final stats block) or ``error``.

Writes are transactional (WAL journal mode when the filesystem allows it),
so a ``kill -9`` at any instant leaves a readable journal: either a row is
fully there or it is not.  On restart, :meth:`ScenarioScheduler.recover_jobs
<repro.service.scheduler.ScenarioScheduler.recover_jobs>` rehydrates
finished jobs (keys + specs, recompute-on-eviction exactly like a live
spilled job) and *resumes* interrupted ones — already-journaled keys come
out of the cache, only missing shards re-run, and the final payload is
bit-identical to an uninterrupted run because every spec carries its own
seed.

Corruption never crashes startup: a garbled row (truncated JSON, missing
spec positions, stats that do not parse) is skipped with a warning and
counted in :meth:`JobJournal.counts`; an unreadable database file is moved
aside and a fresh journal is started.  :func:`gc_journal` — exposed as
``repro cache gc --journal`` — compacts the file and drops rows no current
engine version can reproduce.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .telemetry import METRICS

__all__ = [
    "JournalJobRecord",
    "JobJournal",
    "JournalGCReport",
    "gc_journal",
]

#: States a journaled job can be in.  ``running`` on restart means the
#: coordinator died mid-job and the job must be resumed.
JOB_STATES = ("running", "done", "error")

# Journal writes sit on the shard-completion path (one transaction per
# finished shard), so their latency bounds how fast a durable batch can
# drain; timing them per operation makes an fsync-slow disk show up in
# ``GET /metrics`` instead of as mystery batch overhead.
_WRITE_SECONDS = {
    op: METRICS.histogram(
        "repro_journal_write_seconds",
        {"op": op},
        help="Latency of journal write transactions, by operation.",
    )
    for op in ("submission", "completed", "state")
}

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id TEXT PRIMARY KEY,
    state TEXT NOT NULL,
    num_scenarios INTEGER NOT NULL,
    engine_version TEXT NOT NULL,
    options TEXT NOT NULL,
    error TEXT,
    stats TEXT
);
CREATE TABLE IF NOT EXISTS specs (
    job_id TEXT NOT NULL,
    position INTEGER NOT NULL,
    key TEXT NOT NULL,
    spec TEXT NOT NULL,
    PRIMARY KEY (job_id, position)
);
CREATE TABLE IF NOT EXISTS completions (
    job_id TEXT NOT NULL,
    key TEXT NOT NULL,
    PRIMARY KEY (job_id, key)
);
"""


@dataclass(frozen=True)
class JournalJobRecord:
    """One journaled job, fully decoded and ready for recovery.

    ``keys``/``spec_dicts`` are in submission order (duplicates included,
    exactly as submitted); ``completed_keys`` is the set of result keys
    whose shards finished before the last shutdown — their payloads are
    expected in the content-addressed cache, and anything outside the set
    must be re-run on resume.
    """

    job_id: str
    state: str
    num_scenarios: int
    engine_version: str
    options: Dict[str, object]
    keys: Tuple[str, ...]
    spec_dicts: Tuple[dict, ...]
    completed_keys: FrozenSet[str]
    error: Optional[str] = None
    stats: Optional[dict] = None


class JobJournal:
    """Append-only job journal on one SQLite file.

    Thread-safe: the scheduler's background job threads record shard
    completions concurrently with HTTP threads reading counts, so every
    operation runs on one shared connection under a lock.  All write
    methods are transactional — a crash mid-call leaves the previous
    consistent state.

    The journal is deliberately forgiving on the read side: rows that do
    not decode are skipped (with a :class:`UserWarning`) and counted in
    ``corrupt_rows_skipped``; a database file SQLite cannot open at all is
    renamed to ``<path>.corrupt`` and a fresh journal is started, so a
    damaged journal degrades to an empty one instead of a startup crash.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._lock = threading.RLock()
        self._corrupt_rows = 0
        self._conn: Optional[sqlite3.Connection] = None
        self._open()

    # ------------------------------------------------------------------
    def _open(self) -> None:
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        try:
            self._conn = self._connect()
        except sqlite3.DatabaseError as error:
            # The file exists but is not a usable SQLite database (garbage,
            # torn beyond SQLite's own recovery).  Move it aside — never
            # delete state we did not write this run — and start fresh.
            quarantine = f"{self.path}.corrupt"
            warnings.warn(
                f"journal {self.path!r} is unreadable ({error}); moving it "
                f"to {quarantine!r} and starting a fresh journal"
            )
            self._corrupt_rows += 1
            try:
                os.replace(self.path, quarantine)
            except OSError:
                pass
            self._conn = self._connect()

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.path, check_same_thread=False, isolation_level=None
        )
        try:
            # WAL survives kill -9 cleanly and lets readers overlap the
            # writer; some filesystems refuse it, in which case the default
            # rollback journal is still transactionally crash-safe.
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
        except sqlite3.DatabaseError:
            conn.close()
            raise
        return conn

    @contextmanager
    def _transaction(self):
        with self._lock:
            assert self._conn is not None, "journal is closed"
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield self._conn
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")

    # ------------------------------------------------------------------
    def record_submission(
        self,
        job_id: str,
        keys: Sequence[str],
        spec_dicts: Sequence[dict],
        options: Dict[str, object],
        engine_version: str,
    ) -> None:
        """Journal a job the moment it is accepted (one transaction).

        Idempotent for a given ``job_id``: resuming an interrupted job
        re-records the identical submission without duplicating rows, and
        the state flips back to ``running`` so a second crash during the
        resume is itself recoverable.
        """
        if len(keys) != len(spec_dicts):
            raise ValueError("keys and spec_dicts must be aligned")
        start = time.monotonic()
        with self._transaction() as conn:
            conn.execute(
                "INSERT INTO jobs (job_id, state, num_scenarios, "
                "engine_version, options, error, stats) "
                "VALUES (?, 'running', ?, ?, ?, NULL, NULL) "
                "ON CONFLICT(job_id) DO UPDATE SET state='running'",
                (job_id, len(keys), engine_version, json.dumps(options)),
            )
            conn.executemany(
                "INSERT OR IGNORE INTO specs (job_id, position, key, spec) "
                "VALUES (?, ?, ?, ?)",
                (
                    (job_id, position, key, json.dumps(spec, sort_keys=True))
                    for position, (key, spec) in enumerate(zip(keys, spec_dicts))
                ),
            )
        _WRITE_SECONDS["submission"].observe(time.monotonic() - start)

    def record_completed(self, job_id: str, keys: Sequence[str]) -> None:
        """Journal one shard's result keys as durably computed."""
        start = time.monotonic()
        with self._transaction() as conn:
            conn.executemany(
                "INSERT OR IGNORE INTO completions (job_id, key) VALUES (?, ?)",
                ((job_id, key) for key in keys),
            )
        _WRITE_SECONDS["completed"].observe(time.monotonic() - start)

    def record_state(
        self,
        job_id: str,
        state: str,
        error: Optional[str] = None,
        stats: Optional[dict] = None,
    ) -> None:
        """Journal a job's terminal state (``done`` stores the stats block)."""
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        start = time.monotonic()
        with self._transaction() as conn:
            conn.execute(
                "UPDATE jobs SET state = ?, error = ?, stats = ? "
                "WHERE job_id = ?",
                (
                    state,
                    error,
                    None if stats is None else json.dumps(stats),
                    job_id,
                ),
            )
        _WRITE_SECONDS["state"].observe(time.monotonic() - start)

    # ------------------------------------------------------------------
    def _skip(self, job_id: str, reason: str) -> None:
        self._corrupt_rows += 1
        warnings.warn(f"journal {self.path!r}: skipping job {job_id!r}: {reason}")

    def load_jobs(self) -> List[JournalJobRecord]:
        """Decode every recoverable job, oldest submission first.

        Garbled rows never raise: a job whose options, stats or any spec
        row fails to decode — or whose spec positions are incomplete (a
        torn submission from a pre-WAL filesystem) — is skipped with a
        warning and counted; every other job loads normally.
        """
        with self._lock:
            assert self._conn is not None, "journal is closed"
            try:
                job_rows = list(
                    self._conn.execute(
                        "SELECT job_id, state, num_scenarios, engine_version,"
                        " options, error, stats FROM jobs ORDER BY rowid"
                    )
                )
                spec_rows = list(
                    self._conn.execute(
                        "SELECT job_id, position, key, spec FROM specs"
                    )
                )
                completion_rows = list(
                    self._conn.execute("SELECT job_id, key FROM completions")
                )
            except sqlite3.DatabaseError as error:
                self._corrupt_rows += 1
                warnings.warn(f"journal {self.path!r} unreadable: {error}")
                return []

        specs_by_job: Dict[str, Dict[int, Tuple[str, str]]] = {}
        for job_id, position, key, spec in spec_rows:
            specs_by_job.setdefault(job_id, {})[position] = (key, spec)
        completed_by_job: Dict[str, set] = {}
        for job_id, key in completion_rows:
            completed_by_job.setdefault(job_id, set()).add(key)

        records: List[JournalJobRecord] = []
        for job_id, state, num_scenarios, engine_version, options, error, stats in job_rows:
            if state not in JOB_STATES:
                self._skip(job_id, f"unknown state {state!r}")
                continue
            try:
                options_dict = json.loads(options)
                stats_dict = None if stats is None else json.loads(stats)
                if not isinstance(options_dict, dict) or not (
                    stats_dict is None or isinstance(stats_dict, dict)
                ):
                    raise ValueError("options/stats must be JSON objects")
            except (TypeError, ValueError) as decode_error:
                self._skip(job_id, f"garbled options/stats: {decode_error}")
                continue
            positions = specs_by_job.get(job_id, {})
            if sorted(positions) != list(range(num_scenarios)):
                self._skip(
                    job_id,
                    f"{len(positions)} spec rows for {num_scenarios} scenarios",
                )
                continue
            keys: List[str] = []
            spec_dicts: List[dict] = []
            torn = None
            for position in range(num_scenarios):
                key, spec_json = positions[position]
                try:
                    spec_dict = json.loads(spec_json)
                    if not isinstance(spec_dict, dict):
                        raise ValueError("spec must be a JSON object")
                except (TypeError, ValueError) as decode_error:
                    torn = f"garbled spec at position {position}: {decode_error}"
                    break
                keys.append(key)
                spec_dicts.append(spec_dict)
            if torn is not None:
                self._skip(job_id, torn)
                continue
            records.append(
                JournalJobRecord(
                    job_id=job_id,
                    state=state,
                    num_scenarios=num_scenarios,
                    engine_version=engine_version,
                    options=options_dict,
                    keys=tuple(keys),
                    spec_dicts=tuple(spec_dicts),
                    completed_keys=frozenset(completed_by_job.get(job_id, ())),
                    error=error,
                    stats=stats_dict,
                )
            )
        return records

    def note_skipped(self, reason: str) -> None:
        """Count a recovery-time skip decided by the caller (and warn)."""
        self._corrupt_rows += 1
        warnings.warn(f"journal {self.path!r}: {reason}")

    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, object]:
        """Row counts for ``GET /healthz`` — cheap, never raises."""
        payload: Dict[str, object] = {
            "path": self.path,
            "jobs": 0,
            "running_jobs": 0,
            "specs": 0,
            "completions": 0,
            "corrupt_rows_skipped": self._corrupt_rows,
        }
        with self._lock:
            if self._conn is None:
                return payload
            try:
                payload["jobs"] = self._conn.execute(
                    "SELECT COUNT(*) FROM jobs"
                ).fetchone()[0]
                payload["running_jobs"] = self._conn.execute(
                    "SELECT COUNT(*) FROM jobs WHERE state = 'running'"
                ).fetchone()[0]
                payload["specs"] = self._conn.execute(
                    "SELECT COUNT(*) FROM specs"
                ).fetchone()[0]
                payload["completions"] = self._conn.execute(
                    "SELECT COUNT(*) FROM completions"
                ).fetchone()[0]
            except sqlite3.DatabaseError:
                payload["corrupt_rows_skipped"] = self._corrupt_rows + 1
        return payload

    def checkpoint(self) -> None:
        """Flush the WAL into the main database file (best-effort)."""
        with self._lock:
            if self._conn is None:
                return
            try:
                self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.DatabaseError:
                pass

    def close(self) -> None:
        """Checkpoint and close the connection (idempotent)."""
        with self._lock:
            if self._conn is None:
                return
            self.checkpoint()
            try:
                self._conn.close()
            except sqlite3.DatabaseError:
                pass
            self._conn = None


# ----------------------------------------------------------------------
# Journal garbage collection (``repro cache gc --journal``)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JournalGCReport:
    """Outcome of one :func:`gc_journal` sweep."""

    jobs_scanned: int = 0
    jobs_kept: int = 0
    jobs_dropped: int = 0
    rows_dropped: int = 0
    freed_bytes: int = 0
    dry_run: bool = False

    def to_dict(self) -> dict:
        """Plain-dict form (``repro cache gc --journal --json``)."""
        return {
            "jobs_scanned": self.jobs_scanned,
            "jobs_kept": self.jobs_kept,
            "jobs_dropped": self.jobs_dropped,
            "rows_dropped": self.rows_dropped,
            "freed_bytes": self.freed_bytes,
            "dry_run": self.dry_run,
        }


def gc_journal(
    path: str,
    engine_version: Optional[str] = None,
    dry_run: bool = False,
) -> JournalGCReport:
    """Compact a journal and drop rows no current engine can reproduce.

    A job is dropped when its recorded engine version differs from
    ``engine_version`` (the running
    :data:`~repro.service.spec.ENGINE_VERSION` by default — its cached
    payloads are unreachable under current keys, so the rows are dead
    weight), or when any of its rows fail to decode.  Spec and completion
    rows orphaned by a dropped (or never-recorded) job go with it, and the
    file is ``VACUUM``-ed so the space is actually returned.  ``dry_run``
    reports without modifying anything.  An unreadable journal yields an
    empty report instead of raising.
    """
    from .spec import ENGINE_VERSION

    if engine_version is None:
        engine_version = ENGINE_VERSION
    try:
        size_before = os.path.getsize(path)
    except OSError:
        size_before = 0
    try:
        conn = sqlite3.connect(path, isolation_level=None)
        conn.executescript(_SCHEMA)
    except sqlite3.DatabaseError as error:
        warnings.warn(f"journal {path!r} unreadable, nothing collected: {error}")
        return JournalGCReport(dry_run=dry_run)
    try:
        jobs_scanned = 0
        keep: List[str] = []
        drop: List[str] = []
        for job_id, engine, options, stats in conn.execute(
            "SELECT job_id, engine_version, options, stats FROM jobs"
        ):
            jobs_scanned += 1
            reproducible = engine == engine_version
            if reproducible:
                try:
                    if not isinstance(json.loads(options), dict):
                        raise ValueError("options must be a JSON object")
                    if stats is not None:
                        json.loads(stats)
                except (TypeError, ValueError):
                    reproducible = False
            (keep if reproducible else drop).append(job_id)
        keep_set = set(keep)
        orphan_specs = sum(
            1
            for (job_id,) in conn.execute("SELECT job_id FROM specs")
            if job_id not in keep_set
        )
        orphan_completions = sum(
            1
            for (job_id,) in conn.execute("SELECT job_id FROM completions")
            if job_id not in keep_set
        )
        rows_dropped = len(drop) + orphan_specs + orphan_completions
        if not dry_run:
            conn.execute("BEGIN IMMEDIATE")
            conn.executemany(
                "DELETE FROM jobs WHERE job_id = ?", ((j,) for j in drop)
            )
            placeholders_clean = (
                "DELETE FROM {table} WHERE job_id NOT IN "
                "(SELECT job_id FROM jobs)"
            )
            conn.execute(placeholders_clean.format(table="specs"))
            conn.execute(placeholders_clean.format(table="completions"))
            conn.execute("COMMIT")
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            conn.execute("VACUUM")
    except sqlite3.DatabaseError as error:
        warnings.warn(f"journal {path!r} gc failed midway: {error}")
        return JournalGCReport(jobs_scanned=jobs_scanned, dry_run=dry_run)
    finally:
        conn.close()
    try:
        size_after = os.path.getsize(path)
    except OSError:
        size_after = size_before
    return JournalGCReport(
        jobs_scanned=jobs_scanned,
        jobs_kept=len(keep),
        jobs_dropped=len(drop),
        rows_dropped=rows_dropped,
        freed_bytes=max(0, size_before - size_after) if not dry_run else 0,
        dry_run=dry_run,
    )
