"""The persistent, shared, on-disk content-addressed memo store.

The benchmark service (:mod:`repro.service`) caches whole request
results across requests and daemon restarts, so repeated user queries
are near-free.  :class:`MemoStore` is that tier: a directory of
content-addressed JSON objects engineered for failure first.
(Per-point model values are not persisted: reading one back costs
far more than recomputing the roofline — see docs/performance.md.)

Layout (under one root directory)::

    objects/<aa>/<digest>.json   sealed {"key", "value", "sha256"} docs
    index.jsonl                  checksummed LRU journal (put/touch/evict)
    quarantine/                  corrupt objects moved aside, never trusted

Robustness properties:

* **Atomic two-phase writes** — every object lands via
  :func:`repro.ioutils.atomic_write_json` (temp file + fsync +
  ``os.replace``), then the index journal (a durable, sealed
  :class:`~repro.ioutils.SealedLog`) records it with one fsync'd
  append.  A crash between the phases leaves an orphan object that the
  next index rebuild re-adopts; a crash mid-append leaves a torn index
  tail that the reader drops, backed by the objects on disk.
* **Checksum verification on read** — each object doc seals its own
  SHA-256 (the journal-record scheme).  A mismatch — bit rot, a torn
  foreign write, deliberate corruption from the ``cache-corruption``
  drill — never crashes the request: the file is moved into
  ``quarantine/`` with a unique suffix, the read reports a miss, and
  the caller recomputes and re-puts a clean copy.
* **Size-bounded LRU eviction** — ``max_entries`` bounds the store;
  ``get``/``put`` append ``touch``/``put`` records so recency survives
  restarts, and eviction unlinks the coldest object and journals it.
  The index journal itself is compacted with one atomic rewrite when
  it grows past a small multiple of the live entry count.
* **Bounded ENOSPC retry** — index appends and object writes go
  through :mod:`repro.ioutils`, so transient disk-pressure faults are
  absorbed by the same bounded backoff the campaign journal uses (the
  ``io-enospc`` drill in the chaos suite points the fault gate at this
  store).

Concurrent writers are expected (daemon executor threads): mutating
entry points take an in-process lock, and cross-process sharing is
safe because objects are content-addressed (two writers racing on one
key write identical bytes) and the index is append-only with
self-checksummed records — appends (including the ENOSPC-retry
truncation window and the torn-tail cut) are serialized under the
exclusive file lock :func:`repro.ioutils.fsync_append_text` holds, so
one writer's retry or heal can never clobber another's committed
record.  Even a lost index
record only costs recency: the objects on disk are the truth and the
next index rebuild re-adopts them.
"""

from __future__ import annotations

import json
import os
import threading

from ..ioutils import SealedLog, atomic_write_json, record_intact, seal_record

__all__ = ["MemoStore", "read_index"]

#: Default entry bound, matching the in-memory cache's cap.
DEFAULT_MAX_ENTRIES = 4096

#: Index journal schema version.
INDEX_VERSION = 1

#: Operations an index record may carry.
INDEX_OPS = ("put", "touch", "evict", "quarantine")

#: Compact the index once it holds more than this many records per live
#: entry (touches dominate; without compaction the journal grows
#: without bound while the store stays the same size).
_COMPACT_FACTOR = 8


def _check_index_record(doc: dict) -> None:
    if doc.get("v") != INDEX_VERSION:
        raise ValueError(f"unsupported index version {doc.get('v')!r}")
    if doc.get("op") not in INDEX_OPS:
        raise ValueError(f"unknown index op {doc.get('op')!r}")
    if not isinstance(doc.get("key"), str):
        raise ValueError("index record key is not a string")


def _index_log(path: str | os.PathLike) -> SealedLog:
    return SealedLog(path, durable=True, sealed=True, schema=_check_index_record)


def read_index(path: str | os.PathLike) -> tuple[list[dict], int]:
    """Decode an index journal, keeping the longest intact prefix.

    Returns ``(records, dropped)`` where *dropped* counts trailing
    lines rejected for torn writes, checksum failures, or unknown
    shapes — the same torn-tail contract as the campaign journal, so a
    reader tailing the index while a writer is mid-append never sees a
    partial record.
    """
    result = _index_log(path).read()
    return result.records, result.dropped


class MemoStore:
    """A crash-safe shared content-addressed store of JSON values."""

    def __init__(
        self,
        root: str | os.PathLike,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.root = os.fspath(root)
        self.max_entries = max_entries
        #: Optional observer called with the key after a quarantine
        #: (the daemon publishes it as a ``cache-quarantined`` live
        #: event).  Failures in the observer never fail the read.
        self.on_quarantine = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.quarantined = 0
        self._lock = threading.Lock()
        #: key -> True, in LRU order (oldest first).  Rebuilt from the
        #: index journal, reconciled against the objects on disk.
        self._lru: dict[str, bool] = {}
        self._index_records = 0
        os.makedirs(self.objects_dir, exist_ok=True)
        self._index = _index_log(self.index_path)
        self._recover()

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    @property
    def objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.root, "quarantine")

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, "index.jsonl")

    def object_path(self, key: str) -> str:
        return os.path.join(self.objects_dir, key[:2], key + ".json")

    # ------------------------------------------------------------------
    # recovery / index maintenance
    # ------------------------------------------------------------------

    def _scan_objects(self) -> set[str]:
        keys: set[str] = set()
        for shard in sorted(os.listdir(self.objects_dir)):
            shard_dir = os.path.join(self.objects_dir, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    keys.add(name[: -len(".json")])
        return keys

    def _recover(self) -> None:
        """Rebuild the LRU from the index journal and the objects dir.

        The journal is advisory (recency + provenance); the objects on
        disk are the truth.  Orphan objects (index lost, or a crash
        between the object write and the index append) are re-adopted
        in sorted order ahead of journalled recency; index entries
        whose object vanished are dropped.
        """
        index = self._index.read()
        records = index.records
        on_disk = self._scan_objects()
        lru: dict[str, bool] = {}
        for rec in records:
            key = rec["key"]
            if rec["op"] in ("put", "touch"):
                lru.pop(key, None)
                lru[key] = True
            else:  # evict / quarantine
                lru.pop(key, None)
        self._lru = {k: True for k in sorted(on_disk - set(lru))}
        self._lru.update({k: True for k in lru if k in on_disk})
        self._index_records = len(records)
        if len(self._lru) != len(lru) or index.dropped:
            # The journal disagreed with the disk (orphans, stale
            # entries, torn tail): rewrite it to match reality once,
            # atomically, then go back to O(1) appends.
            self._compact()

    def _append_index(self, op: str, key: str) -> None:
        self._index.append({"v": INDEX_VERSION, "op": op, "key": key})
        self._index_records += 1
        if self._index_records > max(_COMPACT_FACTOR * len(self._lru),
                                     _COMPACT_FACTOR):
            self._compact()

    def _compact(self) -> None:
        """One atomic rewrite: a ``put`` record per live entry, in LRU order."""
        self._index.rewrite(
            {"v": INDEX_VERSION, "op": "put", "key": key} for key in self._lru
        )
        self._index_records = len(self._lru)

    # ------------------------------------------------------------------
    # read / write
    # ------------------------------------------------------------------

    def get(self, key: str):
        """The stored value, or ``None`` (counted as hit/miss).

        A payload that is unreadable, unparseable, or fails its sealed
        checksum is *quarantined*: moved into ``quarantine/`` with a
        unique suffix and journalled, and the read reports a miss so
        the caller recomputes.  Corruption never propagates and never
        raises.
        """
        path = self.object_path(key)
        with self._lock:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
            except FileNotFoundError:
                self.misses += 1
                return None
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                self._quarantine(key, path)
                self.misses += 1
                return None
            if (
                not isinstance(doc, dict)
                or doc.get("key") != key
                or not record_intact(doc)
            ):
                self._quarantine(key, path)
                self.misses += 1
                return None
            self.hits += 1
            # Refresh recency (memory + journal) so eviction stays LRU
            # across restarts.
            self._lru.pop(key, None)
            self._lru[key] = True
            self._append_index("touch", key)
            return doc["value"]

    def put(self, key: str, value) -> None:
        """Persist *value* under *key* (idempotent, two-phase, bounded)."""
        if value is None:
            raise ValueError("MemoStore cannot store None (miss sentinel)")
        path = self.object_path(key)
        with self._lock:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            atomic_write_json(path, seal_record({"key": key, "value": value}))
            self._lru.pop(key, None)
            self._lru[key] = True
            self._append_index("put", key)
            while len(self._lru) > self.max_entries:
                self._evict_coldest()

    def _evict_coldest(self) -> None:
        coldest = next(iter(self._lru))
        del self._lru[coldest]
        try:
            os.unlink(self.object_path(coldest))
        except OSError:
            pass
        self.evictions += 1
        self._append_index("evict", coldest)

    def _quarantine(self, key: str, path: str) -> None:
        os.makedirs(self.quarantine_dir, exist_ok=True)
        self.quarantined += 1
        dest = os.path.join(
            self.quarantine_dir, f"{key}.{self.quarantined:04d}.bad"
        )
        try:
            os.replace(path, dest)
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._lru.pop(key, None)
        self._append_index("quarantine", key)
        if self.on_quarantine is not None:
            try:
                self.on_quarantine(key)
            except Exception:  # noqa: BLE001 - observers must not fail reads
                pass

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key: str) -> bool:
        return key in self._lru

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def keys(self) -> list[str]:
        """Live keys, coldest first (the eviction order)."""
        return list(self._lru)

    def stats(self) -> dict:
        return {
            "entries": len(self._lru),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
        }
