"""Content-addressed result cache: in-memory LRU front, optional disk backend.

Results are keyed by :meth:`repro.service.spec.ScenarioSpec.cache_key` —
the SHA-256 of the spec's canonical JSON plus the engine version — so a
cache entry can never be served for a semantically different scenario, and
bumping :data:`repro.service.spec.ENGINE_VERSION` invalidates every stale
entry without any explicit flush.

The in-memory front is a bounded LRU (thread-safe; the HTTP server is a
``ThreadingHTTPServer``).  It holds each entry as an immutable *snapshot*:
the payload pickled once, with the highest protocol, when it enters the
memory tier (``put``, ``ensure``, disk or peer promotion).  A memory hit
unpickles that snapshot outside the cache lock, so concurrent hits never
serialise on decoding, and every ``get`` returns a fresh, independent
object: a caller mutating what it stored or what it got never reaches the
cache.  Pickle keeps the payload's types exactly (tuples, numpy scalars,
``-0.0``, raw non-finite floats) and decodes several times faster than a
deep copy of the same tree.

The optional disk backend writes one JSON file per key under
``disk_path``; on a memory miss the disk is consulted and a hit is
promoted back into memory.  A disk or peer hit returns the dict it has
just parsed — already private to the caller — and stores its snapshot.

Caches can also be **cluster-shared**: given ``peers`` (base URLs of other
``repro serve`` nodes), a miss in both local tiers asks each peer's
``GET /cache/<key>`` endpoint before giving up, and a peer hit is promoted
into the local tiers — a grid computed once anywhere in the cluster is
warm everywhere.  Content keys are salted by
:data:`~repro.service.spec.ENGINE_VERSION`, so a peer can never serve a
stale-engine payload under a current key.  Peer lookups are strictly
best-effort: an unreachable peer is a miss, never an error, and the
endpoint itself only consults *local* tiers (:meth:`ResultCache.get_local`)
so two nodes peered at each other cannot recurse.

:class:`CacheStats` counts hits, misses, stores and evictions; the server
exposes a snapshot at ``GET /cache/stats``.  These counters are
**process-lifetime** (cumulative since cache construction or
:meth:`ResultCache.clear`), unlike the per-batch dispatch counters in a
``POST /batch`` stats block; the ``since`` timestamp in both payloads lets
a scraper tell a counter reset (restart/clear) from a quiet interval.
Every tier lookup is also timed into the process-wide telemetry registry
(``repro_cache_lookup_seconds{tier=memory|disk|peer}`` plus hit/miss
counters), so ``GET /metrics`` exposes tier hit latencies continuously.

Stale entries die automatically on lookup (their key folds in the engine
version), but old disk files would otherwise accumulate forever.
:func:`gc_disk_cache` — exposed as ``repro cache gc`` — removes every
on-disk entry whose key no current spec can reproduce under the running
:data:`~repro.service.spec.ENGINE_VERSION`.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..exceptions import InvalidProblemError
from .telemetry import METRICS

__all__ = ["CacheStats", "ResultCache", "CacheGCReport", "gc_disk_cache"]

_KEY_CHARS = frozenset("0123456789abcdef")


def _snapshot(payload: dict) -> bytes:
    """The immutable form a payload takes in the memory tier.

    Snapshots never leave the process (disk and peers exchange strict
    JSON), so the only bytes ever unpickled are ones this process wrote.
    """
    return pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)


# Bound once at import so the per-lookup cost is one dict-free attribute
# access plus the instrument's own lock — these are on the hot path of
# every cache consult.  They live in the process-wide registry on purpose:
# tier latencies are a property of this process's memory/disk/network,
# not of any one scheduler.
_LOOKUP_SECONDS = {
    tier: METRICS.histogram(
        "repro_cache_lookup_seconds",
        {"tier": tier},
        help="Latency of result-cache lookups that hit, by tier.",
    )
    for tier in ("memory", "disk", "peer")
}
_TIER_HITS = {
    tier: METRICS.counter(
        "repro_cache_hits_total",
        {"tier": tier},
        help="Result-cache hits by serving tier.",
    )
    for tier in ("memory", "disk", "peer")
}
_CACHE_MISSES = METRICS.counter(
    "repro_cache_misses_total",
    help="Result-cache lookups that missed every consulted tier.",
)


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of cache counters (cumulative since construction/clear).

    ``since`` is the Unix timestamp the counters last started from zero —
    cache construction, or the most recent :meth:`ResultCache.clear`.  A
    scraper that sees ``since`` move forward knows the counters reset
    (process restart or explicit clear) rather than traffic going quiet;
    per-batch stats blocks carry their own ``since`` for the same reason.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_stores: int = 0
    entries: int = 0
    max_entries: int = 0
    peer_hits: int = 0
    disk_corrupt: int = 0
    since: float = 0.0

    @property
    def requests(self) -> int:
        """Total lookups (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests

    def to_dict(self) -> dict:
        """Plain-dict form served by ``GET /cache/stats``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "disk_stores": self.disk_stores,
            "entries": self.entries,
            "max_entries": self.max_entries,
            "peer_hits": self.peer_hits,
            "disk_corrupt": self.disk_corrupt,
            "requests": self.requests,
            "hit_rate": self.hit_rate,
            "since": self.since,
        }


class ResultCache:
    """Bounded LRU of payload snapshots with an optional on-disk JSON backend.

    Every lookup returns a new object decoded from the entry's snapshot (or
    parsed from disk or a peer), and every store snapshots the payload it is
    given, so cached values are isolated from callers in both directions.

    Parameters
    ----------
    max_entries:
        Capacity of the in-memory LRU front; the least recently used entry
        is evicted on overflow (the disk copy, when any, is kept).
    disk_path:
        Directory for the persistent backend; created on first store.
        ``None`` (default) keeps the cache purely in memory.
    peers:
        Base URLs of other ``repro serve`` nodes whose ``GET /cache/<key>``
        endpoint is consulted (in order) after a miss in both local tiers.
        Peer hits are promoted into memory and, when configured, disk.
    peer_timeout / peer_connect_timeout:
        Per-peer read and dial budgets in seconds; a slow or vanished peer
        costs at most these before the lookup falls through to compute.
    """

    def __init__(
        self,
        max_entries: int = 1024,
        disk_path: Optional[str] = None,
        peers: Optional[Sequence[str]] = None,
        peer_timeout: Optional[float] = None,
        peer_connect_timeout: Optional[float] = None,
    ) -> None:
        if max_entries < 1:
            raise InvalidProblemError(
                f"max_entries must be positive, got {max_entries}"
            )
        self._max_entries = int(max_entries)
        self._disk_path = disk_path
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._lock = threading.Lock()
        self._since = time.time()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0
        self._disk_hits = 0
        self._disk_stores = 0
        self._peer_hits = 0
        self._disk_corrupt = 0
        self._peers: List[object] = []
        if peers:
            from .remote import CachePeer

            kwargs = {}
            if peer_timeout is not None:
                kwargs["timeout"] = peer_timeout
            if peer_connect_timeout is not None:
                kwargs["connect_timeout"] = peer_connect_timeout
            self._peers = [CachePeer(url, **kwargs) for url in peers]

    # ------------------------------------------------------------------
    @property
    def max_entries(self) -> int:
        """Capacity of the in-memory LRU front."""
        return self._max_entries

    @property
    def persistent(self) -> bool:
        """True when a disk backend is configured (disk entries never evict)."""
        return self._disk_path is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def peers(self) -> List[object]:
        """The configured :class:`~repro.service.remote.CachePeer` clients."""
        return list(self._peers)

    def get(self, key: str) -> Optional[dict]:
        """Look up a payload: memory, then disk, then peers (promoting hits)."""
        found, payload = self._get_local_tiers(key)
        if found:
            return payload
        # Peer consultation happens outside the lock: it is a network
        # round-trip, and a slow peer must never block concurrent lookups.
        peer_start = time.monotonic()
        payload = None
        for peer in self._peers:
            payload = peer.fetch(key)
            if payload is not None:
                break
        if payload is None:
            with self._lock:
                self._misses += 1
            _CACHE_MISSES.inc()
            return None
        # The peer's dict was parsed for this call alone: it is returned
        # as is, and only its snapshot enters the memory tier.
        snapshot = _snapshot(payload)
        with self._lock:
            self._hits += 1
            self._peer_hits += 1
            self._store_in_memory(key, snapshot)
        _TIER_HITS["peer"].inc()
        _LOOKUP_SECONDS["peer"].observe(time.monotonic() - peer_start)
        # A peer hit also lands on the local disk tier, so it survives a
        # restart and this node can in turn serve it to *its* peers.
        if self._disk_path is not None and self._disk_put(key, payload):
            with self._lock:
                self._disk_stores += 1
        return payload

    def get_local(self, key: str) -> Optional[dict]:
        """Like :meth:`get` but never asks peers — what ``GET /cache/<key>``
        serves, so two nodes peered at each other cannot recurse."""
        _found, payload = self._get_local_tiers(key)
        if payload is None:
            with self._lock:
                self._misses += 1
            _CACHE_MISSES.inc()
        return payload

    def peek(self, key: str) -> Optional[dict]:
        """A memory-then-disk read that counts no request.

        For reading back what this node stored itself (a finished job's
        spilled rows): such a read is not a lookup, and counting it would
        make the hit rate depend on when a stream reads its rows.  The
        tier counters (``disk_hits``, the tier metrics) still record where
        the payload came from.
        """
        return self._get_local_tiers(key, count=False)[1]

    def _get_local_tiers(self, key: str, count: bool = True):
        """Memory-then-disk lookup; returns ``(hit, payload)`` without
        counting a miss (the callers decide whether peers come next).
        ``count`` False leaves the request counters alone on a hit too."""
        start = time.monotonic()
        with self._lock:
            snapshot = self._entries.get(key)
            if snapshot is not None:
                self._entries.move_to_end(key)
                self._hits += count
        if snapshot is not None:
            # Snapshots are immutable bytes: decode outside the lock.
            payload = pickle.loads(snapshot)
            _TIER_HITS["memory"].inc()
            _LOOKUP_SECONDS["memory"].observe(time.monotonic() - start)
            return True, payload
        payload = self._disk_get(key)
        if payload is not None:
            snapshot = _snapshot(payload)
            with self._lock:
                self._hits += count
                self._disk_hits += 1
                self._store_in_memory(key, snapshot)
            _TIER_HITS["disk"].inc()
            _LOOKUP_SECONDS["disk"].observe(time.monotonic() - start)
            return True, payload
        return False, None

    def put(self, key: str, payload: dict) -> None:
        """Store a payload under its content key (memory and disk)."""
        snapshot = _snapshot(payload)
        with self._lock:
            self._stores += 1
            self._store_in_memory(key, snapshot)
        if self._disk_path is not None and self._disk_put(key, payload):
            with self._lock:
                self._disk_stores += 1

    def ensure(self, key: str, payload: dict) -> bool:
        """Store ``payload`` only when ``key`` is absent from every tier.

        Counter-neutral presence check (no hit/miss is recorded): the job
        result spill uses this to guarantee a finished batch's payloads are
        cached without inflating the request statistics or rewriting disk
        entries that already exist.  Returns ``True`` when a store
        happened.  Content-addressed keys make the check/store race benign:
        two writers can only ever store the same payload.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return False
        if self._disk_get(key) is not None:
            return False
        self.put(key, payload)
        return True

    def clear(self) -> None:
        """Drop the in-memory entries and reset the counters (disk kept).

        Resets ``since`` too: the counters restart from zero, and scrapers
        detect that through the timestamp rather than by guessing from a
        backwards-moving hit count.
        """
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._stores = 0
            self._evictions = self._disk_hits = self._disk_stores = 0
            self._peer_hits = self._disk_corrupt = 0
            self._since = time.time()

    def stats(self) -> CacheStats:
        """Consistent snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                stores=self._stores,
                evictions=self._evictions,
                disk_hits=self._disk_hits,
                disk_stores=self._disk_stores,
                entries=len(self._entries),
                max_entries=self._max_entries,
                peer_hits=self._peer_hits,
                disk_corrupt=self._disk_corrupt,
                since=self._since,
            )

    # ------------------------------------------------------------------
    def _store_in_memory(self, key: str, snapshot: bytes) -> None:
        # Caller holds the lock.
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = snapshot
            return
        while len(self._entries) >= self._max_entries:
            self._entries.popitem(last=False)
            self._evictions += 1
        self._entries[key] = snapshot

    def _disk_file(self, key: str) -> str:
        if not key or not set(key) <= _KEY_CHARS:
            # Keys are SHA-256 hex digests; anything else would allow path
            # tricks through a crafted HTTP payload.
            raise InvalidProblemError(f"malformed cache key {key!r}")
        return os.path.join(self._disk_path, f"{key}.json")  # type: ignore[arg-type]

    def _note_disk_corrupt(self, key: str, reason: str) -> None:
        # A disk entry that exists but cannot be served is a degraded state
        # worth surfacing (the payload will be recomputed or peer-fetched),
        # but it must never fail the lookup.
        with self._lock:
            self._disk_corrupt += 1
        warnings.warn(f"unreadable disk cache entry {key!r} skipped: {reason}")

    def _disk_get(self, key: str) -> Optional[dict]:
        if self._disk_path is None:
            return None
        try:
            with open(self._disk_file(key), "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as error:
            # The file is there but truncated, garbled or unreadable —
            # count it, unlike the plain not-cached miss above.
            self._note_disk_corrupt(key, str(error))
            return None
        payload = record.get("payload") if isinstance(record, dict) else None
        if (
            not isinstance(record, dict)
            or record.get("key") != key
            or not isinstance(payload, dict)
        ):
            self._note_disk_corrupt(key, "malformed cache record")
            return None
        return payload

    def _disk_put(self, key: str, payload: dict) -> bool:
        path = self._disk_file(key)
        temp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        record: Dict[str, object] = {"key": key, "payload": payload}
        try:
            os.makedirs(self._disk_path, exist_ok=True)  # type: ignore[arg-type]
            with open(temp, "w", encoding="utf-8") as handle:
                # ValueError/TypeError cover payloads that are not strict
                # JSON (raw non-finite floats, exotic objects) — encode
                # them with repro.reporting.to_jsonable before storing.
                json.dump(record, handle, sort_keys=True, allow_nan=False)
            os.replace(temp, path)
            return True
        except (OSError, ValueError, TypeError):
            # Persistence is best-effort: a read-only or full disk (or an
            # unencodable payload) degrades the cache to memory-only
            # instead of failing the evaluation.
            try:
                os.unlink(temp)
            except OSError:
                pass
            return False


# ----------------------------------------------------------------------
# Disk garbage collection (``repro cache gc``)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CacheGCReport:
    """Outcome of one :func:`gc_disk_cache` sweep."""

    scanned: int = 0
    kept: int = 0
    dropped: int = 0
    freed_bytes: int = 0
    dry_run: bool = False

    def to_dict(self) -> dict:
        """Plain-dict form (``repro cache gc --json``)."""
        return {
            "scanned": self.scanned,
            "kept": self.kept,
            "dropped": self.dropped,
            "freed_bytes": self.freed_bytes,
            "dry_run": self.dry_run,
        }


def _is_cache_file(name: str) -> bool:
    # One JSON file per SHA-256 key; anything else in the directory is not
    # ours to touch.
    stem, dot, extension = name.rpartition(".")
    return (
        dot == "."
        and extension == "json"
        and len(stem) == 64
        and set(stem) <= _KEY_CHARS
    )


def gc_disk_cache(
    disk_path: str,
    engine_version: Optional[str] = None,
    dry_run: bool = False,
) -> CacheGCReport:
    """Drop on-disk entries whose key no current spec can reproduce.

    Every entry's payload is self-describing (it carries its canonical
    ``spec`` dict), so the check is constructive: rebuild the spec, recompute
    its cache key under ``engine_version`` (the running
    :data:`~repro.service.spec.ENGINE_VERSION` by default) and keep the file
    only when the stored key matches.  Entries from older engine versions,
    corrupt records and specs that no longer validate all fail the check and
    are removed.  ``dry_run`` reports what would be dropped without
    unlinking anything.
    """
    from .spec import ENGINE_VERSION, spec_from_dict

    if engine_version is None:
        engine_version = ENGINE_VERSION
    try:
        names = sorted(os.listdir(disk_path))
    except OSError:
        return CacheGCReport(dry_run=dry_run)

    scanned = kept = dropped = freed = 0
    for name in names:
        if not _is_cache_file(name):
            continue
        scanned += 1
        path = os.path.join(disk_path, name)
        key = name[: -len(".json")]
        reproducible = False
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
            if isinstance(record, dict):
                payload = record.get("payload")
                if record.get("key") == key and isinstance(payload, dict):
                    spec = spec_from_dict(payload["spec"])
                    reproducible = spec.cache_key(engine_version) == key
        except (OSError, ValueError, KeyError, TypeError, InvalidProblemError):
            reproducible = False
        if reproducible:
            kept += 1
            continue
        dropped += 1
        try:
            size = os.path.getsize(path)
            if not dry_run:
                os.unlink(path)
            freed += size
        except OSError:
            pass
    return CacheGCReport(
        scanned=scanned,
        kept=kept,
        dropped=dropped,
        freed_bytes=freed,
        dry_run=dry_run,
    )
