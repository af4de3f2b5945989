"""The structured event bus: typed NDJSON streams in the run directory.

Two append-only streams live next to the campaign journal:

* ``events.ndjson`` — the **deterministic** stream.  Records are
  emitted at unit *commit* points (the same topological order the
  journal uses), stamped with a sequence number and the cumulative
  simulated clock, and never carry wall-clock time, hostnames or PIDs.
  For a given (spec, scenario, seed) the stream is byte-identical
  however the run was parallelised — the CI ``obs-smoke`` job ``cmp``\\ s
  a ``--jobs 4`` stream against the serial golden.
* ``live.ndjson`` — the **live** stream.  Worker-pool telemetry
  (spawns, dispatches, heartbeats, respawns, hang kills, degradation)
  stamped with ``time.time()``; explicitly excluded from the
  determinism guarantee and consumed by ``campaign watch`` /
  ``campaign status`` for lanes, heartbeat ages and ETA.

Every record is one JSON object per line with ``v`` (schema version)
and ``type``; :func:`validate_event` checks a record against the typed
schema and is what the CI smoke job runs over the whole stream.  Both
streams are flushed (not fsynced) :class:`~repro.ioutils.SealedLog`
files with :func:`validate_event` as their schema hook — the journal's
format and torn-tail recovery: a reader keeps the longest intact
prefix, and the next append cuts a torn tail off first.
"""

from __future__ import annotations

import os
import time

from ..ioutils import SealedLog

__all__ = [
    "DETERMINISTIC_EVENTS",
    "EVENTS_FILE",
    "EVENT_SCHEMA_VERSION",
    "EventBus",
    "LIVE_EVENTS",
    "LIVE_FILE",
    "read_events",
    "validate_event",
]

EVENT_SCHEMA_VERSION = 1

#: File names inside a campaign run directory.
EVENTS_FILE = "events.ndjson"
LIVE_FILE = "live.ndjson"

#: Deterministic stream: event type -> required fields (beyond the
#: envelope ``v``/``type``/``seq``/``sim_us``) and their types.
DETERMINISTIC_EVENTS: dict[str, dict[str, type | tuple[type, ...]]] = {
    "campaign-start": {
        "spec": str,
        "spec_digest": str,
        "scenario": (str, type(None)),
        "seed": int,
        "units": int,
    },
    "unit-committed": {
        "unit": str,
        "status": str,
        "digest": str,
        "simulated_s": (int, float),
    },
    "cache-stats": {
        "unit": str,
        "hits": (int, float),
        "misses": (int, float),
        "bypasses": (int, float),
    },
    "fault-injected": {"unit": str, "incident": str},
    "profile-attributed": {
        "unit": str,
        "digest": str,
        "device_us": (int, float),
        "kernels": int,
    },
    "resume": {"skipped": int, "rerun": int},
    "interrupted": {"before": str},
    "deadline": {"before": str, "simulated_s": (int, float)},
    "campaign-done": {"exit": int},
}

#: Live stream: event type -> required fields (beyond ``v``/``type``/``ts``).
LIVE_EVENTS: dict[str, dict[str, type | tuple[type, ...]]] = {
    "run-live": {"jobs": int, "pid": int, "units": int},
    "worker-spawn": {"worker": str, "index": int},
    "unit-dispatched": {"unit": str, "index": int, "attempt": int},
    "worker-heartbeat": {"index": int, "unit": str},
    "unit-completed": {"unit": str, "status": str},
    "worker-exit": {
        "worker": str,
        "exitcode": (int, type(None)),
        "unit": (str, type(None)),
    },
    "worker-respawn": {"worker": str, "replaces": str, "respawns_used": int},
    "worker-hang-kill": {"worker": str, "unit": str},
    "pool-degraded": {},
    "quarantine": {"unit": str, "exit_codes": list},
    # Benchmark-service telemetry (repro.service.daemon): the daemon's
    # state directory carries the same live stream as a campaign dir,
    # so watch-style tooling and the smoke jobs tail one format.
    "service-start": {"pid": int, "port": int, "recovered": int},
    "request-accepted": {"request": str, "tenant": str, "kind": str},
    "request-shed": {"tenant": str, "reason": str},
    "request-executing": {"request": str, "tenant": str},
    "request-cache": {"request": str, "hit": bool},
    "request-completed": {"request": str, "status": str, "cached": bool},
    "request-recovered": {"request": str, "tenant": str},
    "cache-quarantined": {"key": str},
    "service-drain": {"inflight": int, "queued": int},
}


def validate_event(record: object) -> str:
    """Check one decoded record against the event schema.

    Returns the event type on success; raises :class:`ValueError` with a
    precise complaint otherwise.  Deterministic records must carry the
    ``seq``/``sim_us`` envelope and no wall-clock field; live records
    the ``ts`` envelope.
    """
    if not isinstance(record, dict):
        raise ValueError(f"event record is not an object: {record!r}")
    if record.get("v") != EVENT_SCHEMA_VERSION:
        raise ValueError(f"unsupported event schema version {record.get('v')!r}")
    etype = record.get("type")
    if etype in DETERMINISTIC_EVENTS:
        fields = DETERMINISTIC_EVENTS[etype]
        envelope = {"seq": int, "sim_us": (int, float)}
        if "ts" in record:
            raise ValueError(
                f"{etype}: deterministic events must not carry wall time"
            )
    elif etype in LIVE_EVENTS:
        fields = LIVE_EVENTS[etype]
        envelope = {"ts": (int, float)}
    else:
        raise ValueError(f"unknown event type {etype!r}")
    for key, expected in {**envelope, **fields}.items():
        if key not in record:
            raise ValueError(f"{etype}: missing field {key!r}")
        if not isinstance(record[key], expected):
            raise ValueError(
                f"{etype}: field {key!r} has {type(record[key]).__name__}, "
                f"expected {expected}"
            )
    return etype


def _event_log(path: str | os.PathLike) -> SealedLog:
    return SealedLog(path, durable=False, schema=validate_event)


def read_events(path: str | os.PathLike) -> list[dict]:
    """Decode an NDJSON event stream: its longest intact prefix.

    A missing file reads as an empty stream (older run directories have
    no event streams; a watch attached before the first commit sees no
    events yet).  A torn, undecodable or schema-invalid line ends the
    trusted prefix.
    """
    return _event_log(path).read().records


class EventBus:
    """Publishes typed records into a run directory's event streams.

    Files are created lazily on first emit, so read-only consumers
    (``status``, ``verify``, ``watch``) can construct a bus without
    touching the directory.  Each append is one flushed line write — a
    concurrent watcher sees whole lines promptly, and a crash can tear
    at most the last line, which every reader drops and the next
    append cuts off.  On construction over an existing stream the
    sequence counter resumes after the last trusted record, so a
    resumed campaign extends the stream exactly like the journal.

    ``live_context`` fields are merged into every live record (explicit
    fields win).  The daemon uses it to stamp a campaign run's worker
    telemetry with the originating request's ``trace_id`` — the
    deterministic stream never carries it, preserving byte-identity.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        enabled: bool = True,
        live_context: dict | None = None,
    ) -> None:
        self.directory = os.fspath(directory)
        self.enabled = enabled
        self.live_context = dict(live_context) if live_context else {}
        self.events_path = os.path.join(self.directory, EVENTS_FILE)
        self.live_path = os.path.join(self.directory, LIVE_FILE)
        self._events = _event_log(self.events_path)
        self._live = _event_log(self.live_path)
        self._seq: int | None = None  # scanned lazily on first emit

    # ------------------------------------------------------------------

    def _next_seq(self) -> int:
        if self._seq is None:
            existing = self._events.read().records
            self._seq = existing[-1]["seq"] + 1 if existing else 0
        seq, self._seq = self._seq, self._seq + 1
        return seq

    # ------------------------------------------------------------------

    def emit(self, etype: str, *, sim_us: float, **fields) -> dict | None:
        """Publish one deterministic record (commit-order stream)."""
        if not self.enabled:
            return None
        if etype not in DETERMINISTIC_EVENTS:
            raise ValueError(f"unknown deterministic event type {etype!r}")
        record = {
            "v": EVENT_SCHEMA_VERSION,
            "type": etype,
            "seq": self._next_seq(),
            "sim_us": float(sim_us),
            **fields,
        }
        validate_event(record)
        return self._events.append(record)

    def live(self, etype: str, **fields) -> dict | None:
        """Publish one live record (wall-clock worker telemetry)."""
        if not self.enabled:
            return None
        if etype not in LIVE_EVENTS:
            raise ValueError(f"unknown live event type {etype!r}")
        record = {
            "v": EVENT_SCHEMA_VERSION,
            "type": etype,
            "ts": time.time(),
            **self.live_context,
            **fields,
        }
        validate_event(record)
        return self._live.append(record)

    # ------------------------------------------------------------------

    def deterministic_records(self) -> list[dict]:
        return self._events.read().records

    def live_records(self) -> list[dict]:
        return self._live.read().records
