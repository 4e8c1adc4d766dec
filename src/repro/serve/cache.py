"""The service's cache tier, whichever executor runs its jobs.

One cache per service, layered over the PR-1 on-disk
:class:`~repro.bench.runner.ResultCache`:

* **read-through** — a lookup tries the in-memory LRU first, then the
  disk cache (promoting a disk hit into memory), and only a full miss
  reaches the executor;
* **write-back** — results land in memory immediately (the next
  identical request is a hit before any I/O happens) and are flushed to
  the disk cache by a background thread, so a restart warm-starts
  from disk.

Every access is attributed to the *owner* of the key at that moment
(``"local"`` for a worker pool, the replica on the hash ring for a
fleet), giving per-owner hit/byte accounting: which slice of the
keyspace is hot, and how many bytes the cache served on an owner's
behalf. Entries are keyed by :func:`request_key`; the disk tier keeps
its own fingerprint inside ``ResultCache``.
"""

from __future__ import annotations

import contextlib
import json
import queue
import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..bench.runner import ResultCache, _deserialize, _serialize

#: Memory-tier bounds (entries, serialised bytes); LRU beyond either.
CACHE_MAX_ENTRIES = 65536
CACHE_MAX_BYTES = 256 << 20


def request_key(exp_id: str, kwargs: dict) -> str:
    """Canonical coalescing/cache/routing key for one what-if."""
    return exp_id + "|" + json.dumps(
        kwargs, sort_keys=True, separators=(",", ":"), default=repr
    )


@dataclass
class CacheAccount:
    """Cache traffic attributed to one owner's keyspace slice."""

    hits: int = 0  # memory + promoted disk hits
    disk_hits: int = 0  # subset of hits served read-through
    misses: int = 0  # went to the executor
    bytes_served: int = 0  # payload bytes answered from cache
    stores: int = 0  # write-backs of this owner's results
    bytes_stored: int = 0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "bytes_served": self.bytes_served,
            "stores": self.stores,
            "bytes_stored": self.bytes_stored,
        }


@dataclass
class _Entry:
    payload: dict
    nbytes: int


class CacheTier:
    """In-memory LRU over an optional on-disk :class:`ResultCache`.

    Thread-safe: the event loop reads and stores while disk read-through
    promotes entries from a worker thread, so the LRU and the accounts
    sit behind one lock.
    """

    def __init__(
        self,
        disk: ResultCache | None = None,
        *,
        max_entries: int = CACHE_MAX_ENTRIES,
        max_bytes: int = CACHE_MAX_BYTES,
    ):
        self.disk = disk
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._mem: OrderedDict[str, _Entry] = OrderedDict()
        self._bytes = 0
        self.evictions = 0
        self.accounts: dict[str, CacheAccount] = {}
        self._dirty: queue.Queue = queue.Queue()
        self._flusher: threading.Thread | None = None
        if disk is not None:
            self._flusher = threading.Thread(
                target=self._flush_loop, name="serve-cache-flush",
                daemon=True,
            )
            self._flusher.start()

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def _account(self, owner: str) -> CacheAccount:
        account = self.accounts.get(owner)
        if account is None:
            account = self.accounts[owner] = CacheAccount()
        return account

    def get_memory(self, key: str, owner: str) -> dict | None:
        """Memory-tier lookup (safe on the event loop). A miss here is
        *not* yet accounted — :meth:`get_disk` or :meth:`miss` settles
        it, so one request never counts twice."""
        with self._lock:
            entry = self._mem.get(key)
            if entry is None:
                return None
            self._mem.move_to_end(key)
            account = self._account(owner)
            account.hits += 1
            account.bytes_served += entry.nbytes
            return entry.payload

    def get_disk(
        self, key: str, exp_id: str, kwargs: dict, owner: str
    ) -> dict | None:
        """Read-through: disk lookup + promotion into memory. Blocking
        (call via ``asyncio.to_thread``); accounts the hit, but leaves
        the miss to :meth:`miss`."""
        if self.disk is None:
            return None
        result = self.disk.get(exp_id, **kwargs)
        if result is None:
            return None
        payload = _serialize(result)
        with self._lock:
            nbytes = self._insert(key, payload)
            account = self._account(owner)
            account.hits += 1
            account.disk_hits += 1
            account.bytes_served += nbytes
        return payload

    def miss(self, owner: str) -> None:
        """Record one full miss (the request goes to the executor)."""
        with self._lock:
            self._account(owner).misses += 1

    def put(
        self, key: str, payload: dict, exp_id: str, kwargs: dict,
        owner: str,
    ) -> None:
        """Write-back: memory immediately, disk asynchronously."""
        with self._lock:
            nbytes = self._insert(key, payload)
            account = self._account(owner)
            account.stores += 1
            account.bytes_stored += nbytes
        if self.disk is not None:
            self._dirty.put((payload, kwargs))

    def _insert(self, key: str, payload: dict) -> int:
        old = self._mem.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes
        nbytes = len(json.dumps(payload, default=repr))
        self._mem[key] = _Entry(payload, nbytes)
        self._bytes += nbytes
        while self._mem and (
            len(self._mem) > self.max_entries or self._bytes > self.max_bytes
        ):
            _, evicted = self._mem.popitem(last=False)
            self._bytes -= evicted.nbytes
            self.evictions += 1
        return nbytes

    # ------------------------------------------------------------------
    # Write-back flusher
    # ------------------------------------------------------------------

    def _flush_loop(self) -> None:
        while True:
            item = self._dirty.get()
            if item is None:
                break
            payload, kwargs = item
            with contextlib.suppress(Exception):  # cache I/O is advisory
                self.disk.put(_deserialize(payload), **kwargs)

    def close(self) -> None:
        """Write every queued result back to disk, then stop the flusher."""
        if self._flusher is not None:
            self._dirty.put(None)  # queued behind every pending write-back
            self._flusher.join(timeout=15)
            self._flusher = None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    @property
    def entries(self) -> int:
        return len(self._mem)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._mem),
                "bytes": self._bytes,
                "evictions": self.evictions,
                "dirty": self._dirty.qsize(),
                "disk": getattr(self.disk, "root", None)
                and str(self.disk.root),
                "per_owner": {
                    owner: account.snapshot()
                    for owner, account in sorted(self.accounts.items())
                },
            }
