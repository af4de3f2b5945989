"""Content-addressed memoization for model evaluations.

Sweep tables and re-profiled campaign units evaluate the same roofline
points over and over: every repetition of a benchmark cell asks the
engine for the identical :class:`~repro.sim.roofline.RooflinePoint`
(noise is applied *after* the roofline, per rep), and multi-stack
sweeps revisit the same ``(kernel, n_stacks)`` grid.  The evaluation is
a pure function of the system model, the calibration table, and the
kernel descriptor — so it is safe to cache by *content*:

    key = (engine identity digest, kernel signature, n_stacks)

where the engine identity digest hashes the system name, the
calibration table's canonical JSON, and the ablation switches that
feed the roofline, and the kernel signature hashes the
:class:`~repro.sim.kernel.KernelSpec` fields.  Two engines built from
equal content share cache entries; any drift in calibration or spec
changes the key and misses cleanly.

Fault-injected engines bypass the cache entirely: injector state (clock
excursions, lost stacks, notes appended on scope clipping) makes the
evaluation impure.

Caches are scoped, not global — each
:class:`~repro.faults.ExecutionContext` owns one — so a campaign unit's
hit/miss counters (exported as ``simcache.hit`` / ``simcache.miss``
through the metrics registry) are a pure function of the unit, which
keeps serial and parallel campaign runs byte-identical.
"""

from __future__ import annotations

import dataclasses
from enum import Enum
from functools import lru_cache
from typing import Hashable, Mapping

from ..ioutils import canonical_json, sha256_text

__all__ = [
    "MemoCache",
    "content_digest",
    "kernel_signature",
]

#: Default entry cap; FIFO eviction beyond it.  Generous relative to
#: the paper's sweep grids (a few hundred distinct points).
DEFAULT_MAX_ENTRIES = 4096


def _canon(obj: object) -> object:
    """Reduce *obj* to canonical-JSON-ready primitives, recursively.

    Handles the shapes calibration tables are built from: frozen
    dataclasses, ``MappingProxyType`` fields keyed by enums, tuples.
    """
    if isinstance(obj, Mapping):
        return {
            str(k): _canon(v)
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, Enum):
        return str(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canon(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    return obj


def content_digest(obj: object) -> str:
    """Hex SHA-256 of *obj*'s canonical form (the content address)."""
    return sha256_text(canonical_json(_canon(obj)))


@lru_cache(maxsize=DEFAULT_MAX_ENTRIES)
def kernel_signature(spec) -> str:
    """Content digest of a :class:`KernelSpec` (cached — specs are
    frozen and hashable, so the digest is computed once per spec)."""
    return content_digest(spec)


class MemoCache:
    """A bounded content-addressed cache with hit/miss accounting."""

    __slots__ = ("max_entries", "hits", "misses", "evictions", "_data")

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: dict[Hashable, object] = {}

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable):
        """The cached value, or ``None`` (counted as hit/miss)."""
        value = self._data.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        if value is None:
            raise ValueError("MemoCache cannot store None (miss sentinel)")
        if key not in self._data and len(self._data) >= self.max_entries:
            # FIFO eviction: drop the oldest insertion.  Deterministic
            # (dict preserves insertion order) and cheap; sweep working
            # sets are far below the cap, so eviction is a safety valve,
            # not a tuning knob.
            self._data.pop(next(iter(self._data)))
            self.evictions += 1
        self._data[key] = value

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "entries": len(self._data),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
        }

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
