"""Request-level observability: trace context, lifecycle stream, RED/SLO.

PR 8's daemon made a request durable; this module makes it *visible*.
Three pieces, all stdlib, all deterministic where the rest of the repo
demands it:

* **Trace context** — a W3C ``traceparent``-style identity minted per
  request.  The ids are pure functions of ``(request_id, content
  digest)`` via SHA-256 — no wall clock, no randomness — so a request
  retried after a SIGKILL, replayed from the queue journal, or executed
  under ``--jobs 4`` instead of serially carries byte-identical trace
  ids.  The daemon returns the ``traceparent`` header and exports
  :data:`TRACEPARENT_ENV` into campaign workers, so one id links the
  HTTP accept, the queue wait, the fork worker's spans and the memo
  store hits it caused.
* **Request lifecycle stream** — ``requests.ndjson`` in the service
  state directory: one schema-validated record per terminal request
  (phase spans: parse, admission, queue, cache, execute, serialize) or
  shed.  Same discipline as :mod:`.events`: a flushed
  :class:`~repro.ioutils.SealedLog` whose schema hook is the validator
  (:func:`validate_request_record`) the CI smoke job runs over the
  whole stream, read back as its longest intact prefix
  (:func:`read_requests`).
* **RED / SLO** — folding helpers that turn span records into
  per-tenant/per-endpoint rate/error/duration metrics
  (:func:`register_red_metrics` / :func:`record_span_metrics` /
  :func:`red_registry`) on the shared
  :class:`~repro.telemetry.metrics.MetricsRegistry`, plus
  :class:`SLOTracker`: configurable latency/availability objectives
  with multi-window burn rates (error rate over the window divided by
  the error budget — burn 1.0 means "spending the budget exactly as
  fast as the objective allows", sustained burn above 1.0 means the
  objective will be breached).
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import deque
from dataclasses import dataclass

from ..ioutils import SealedLog
from ..telemetry.metrics import MetricsRegistry

__all__ = [
    "LATENCY_BUCKETS_S",
    "PHASES",
    "REQUESTS_FILE",
    "REQUEST_SCHEMA_VERSION",
    "SLOConfig",
    "SLOTracker",
    "TRACEPARENT_ENV",
    "TRACEPARENT_HEADER",
    "TraceContext",
    "RequestLog",
    "child_span_id",
    "mint_trace",
    "parse_traceparent",
    "read_requests",
    "record_span_metrics",
    "red_registry",
    "register_red_metrics",
    "validate_request_record",
]

REQUEST_SCHEMA_VERSION = 1

#: The request lifecycle stream inside a service state directory.
REQUESTS_FILE = "requests.ndjson"

#: Environment variable carrying the active traceparent into campaign
#: orchestrators and their forked workers.
TRACEPARENT_ENV = "REPRO_TRACEPARENT"

#: HTTP header name (lowercase per the W3C Trace Context spec).
TRACEPARENT_HEADER = "traceparent"

#: Phase spans a request record may carry, in lifecycle order.
PHASES = ("parse", "admission", "queue", "cache", "execute", "serialize")

#: Latency histogram bounds shared by the daemon's RED metrics and the
#: loadgen client, so client- and server-side percentiles use one
#: estimator over one bucket layout.
LATENCY_BUCKETS_S = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0,
)

#: Request stream: record type -> required fields beyond the
#: ``v``/``type``/``ts`` envelope.
REQUEST_EVENTS: dict[str, dict[str, type | tuple[type, ...]]] = {
    "request-span": {
        "trace_id": str,
        "span_id": str,
        "request": str,
        "tenant": str,
        "endpoint": str,
        "status": str,
        "cached": bool,
        "latency_s": (int, float),
        "phases": dict,
    },
    "request-shed": {
        "trace_id": str,
        "request": str,
        "tenant": str,
        "endpoint": str,
        "reason": str,
    },
}


# ----------------------------------------------------------------------
# trace context
# ----------------------------------------------------------------------


def _hex(parts: tuple[str, ...], nbytes: int) -> str:
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()
    return digest[: nbytes * 2]


@dataclass(frozen=True, slots=True)
class TraceContext:
    """One request's W3C-style trace identity (hex ids, version 00)."""

    trace_id: str  # 32 hex chars (16 bytes)
    span_id: str  # 16 hex chars (8 bytes)

    @property
    def traceparent(self) -> str:
        return f"00-{self.trace_id}-{self.span_id}-01"


def mint_trace(request_id: str, digest: str) -> TraceContext:
    """The deterministic trace identity of one request.

    Pure function of the client's retry key and the request's content
    digest: a retry, a journal replay after SIGKILL, and the same
    content executed serially or under ``--jobs N`` all mint identical
    ids — which is exactly what lets one Perfetto trace stitch a
    pre-crash accept to its post-restart execution.
    """
    trace_id = _hex(("repro.trace", request_id, digest), 16)
    span_id = _hex(("repro.span", request_id, digest), 8)
    return TraceContext(trace_id, span_id)


def child_span_id(trace: TraceContext, name: str) -> str:
    """A deterministic child span id under *trace* (for sub-phases)."""
    return _hex(("repro.span", trace.trace_id, trace.span_id, name), 8)


def parse_traceparent(header: str | None) -> TraceContext | None:
    """Decode a ``traceparent`` header; ``None`` on anything malformed.

    Lenient on version/flags (future versions still carry ids in the
    same positions), strict on id shape: 32/16 lowercase hex chars,
    not all zeros (the W3C invalid sentinel).
    """
    if not header:
        return None
    parts = header.strip().split("-")
    if len(parts) < 4 or len(parts[1]) != 32 or len(parts[2]) != 16:
        return None
    trace_id, span_id = parts[1], parts[2]
    hexdigits = set("0123456789abcdef")
    if not (set(trace_id) <= hexdigits and set(span_id) <= hexdigits):
        return None
    if set(trace_id) == {"0"} or set(span_id) == {"0"}:
        return None
    return TraceContext(trace_id, span_id)


# ----------------------------------------------------------------------
# lifecycle stream
# ----------------------------------------------------------------------


def validate_request_record(record: object) -> str:
    """Check one decoded record against the request-stream schema.

    Returns the record type on success; raises :class:`ValueError`
    otherwise.  ``phases`` values must be non-negative numbers keyed by
    the known phase names — an unknown phase is a schema bug, not data.
    """
    if not isinstance(record, dict):
        raise ValueError(f"request record is not an object: {record!r}")
    if record.get("v") != REQUEST_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported request schema version {record.get('v')!r}"
        )
    rtype = record.get("type")
    if rtype not in REQUEST_EVENTS:
        raise ValueError(f"unknown request record type {rtype!r}")
    fields = REQUEST_EVENTS[rtype]
    for key, expected in {"ts": (int, float), **fields}.items():
        if key not in record:
            raise ValueError(f"{rtype}: missing field {key!r}")
        if not isinstance(record[key], expected):
            raise ValueError(
                f"{rtype}: field {key!r} has {type(record[key]).__name__}, "
                f"expected {expected}"
            )
    phases = record.get("phases")
    if phases is not None:
        for name, value in phases.items():
            if name not in PHASES:
                raise ValueError(f"{rtype}: unknown phase {name!r}")
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(
                    f"{rtype}: phase {name!r} must be a non-negative "
                    f"number, got {value!r}"
                )
    return rtype


def _request_log(path: str | os.PathLike) -> SealedLog:
    return SealedLog(path, durable=False, schema=validate_request_record)


def read_requests(path: str | os.PathLike) -> list[dict]:
    """Decode a request stream: its longest intact prefix.

    Same contract as :func:`repro.obs.events.read_events`: a torn,
    undecodable or schema-invalid line ends the trusted prefix
    (foreign bytes that happen to be JSON are still foreign).
    """
    return _request_log(path).read().records


class RequestLog:
    """Appender for the request lifecycle stream.

    One flushed line write per record, exactly like the live event
    stream: a concurrent board sees whole lines promptly, and a crash
    tears at most the final line, which :func:`read_requests` drops and
    the next append cuts off.  Thread-safe — executor threads finish
    requests concurrently.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = os.fspath(directory)
        self.path = os.path.join(self.directory, REQUESTS_FILE)
        self._log = _request_log(self.path)

    def append(self, rtype: str, **fields) -> dict:
        record = {
            "v": REQUEST_SCHEMA_VERSION,
            "type": rtype,
            "ts": time.time(),
            **fields,
        }
        validate_request_record(record)
        return self._log.append(record)

    def records(self) -> list[dict]:
        return self._log.read().records


# ----------------------------------------------------------------------
# RED metrics
# ----------------------------------------------------------------------


def register_red_metrics(registry: MetricsRegistry) -> None:
    """Declare the per-tenant/per-endpoint RED families (idempotent).

    Declared up front so a scrape of an idle daemon still exports every
    series dashboards alert on.
    """
    registry.counter(
        "service.request.count", "requests by tenant/endpoint/status"
    )
    registry.counter(
        "service.request.errors", "non-done requests by tenant/endpoint"
    )
    registry.counter(
        "service.request.sheds", "admission sheds by tenant/reason"
    )
    registry.histogram(
        "service.request.latency_s",
        "end-to-end request latency by tenant/endpoint",
        buckets=LATENCY_BUCKETS_S,
    )
    registry.histogram(
        "service.request.phase_s",
        "per-phase request latency (parse/admission/queue/cache/"
        "execute/serialize)",
        buckets=LATENCY_BUCKETS_S,
    )


def record_span_metrics(registry: MetricsRegistry, record: dict) -> None:
    """Fold one request-span / request-shed record into the registry."""
    tenant = record["tenant"]
    if record["type"] == "request-shed":
        registry.inc(
            "service.request.sheds", tenant=tenant, reason=record["reason"]
        )
        return
    endpoint = record["endpoint"]
    registry.inc(
        "service.request.count",
        tenant=tenant,
        endpoint=endpoint,
        status=record["status"],
    )
    if record["status"] != "done":
        registry.inc(
            "service.request.errors", tenant=tenant, endpoint=endpoint
        )
    registry.observe(
        "service.request.latency_s",
        float(record["latency_s"]),
        tenant=tenant,
        endpoint=endpoint,
    )
    for phase, seconds in record.get("phases", {}).items():
        registry.observe(
            "service.request.phase_s", float(seconds), phase=phase
        )


def red_registry(directory: str | os.PathLike) -> MetricsRegistry:
    """Rebuild the RED registry from a state directory's bytes on disk.

    The offline twin of the daemon's live registry: ``obs serve``
    pointed at a service state directory and post-mortem tooling both
    fold the same stream through the same code path.
    """
    registry = MetricsRegistry()
    register_red_metrics(registry)
    path = os.path.join(os.fspath(directory), REQUESTS_FILE)
    for record in read_requests(path):
        record_span_metrics(registry, record)
    return registry


# ----------------------------------------------------------------------
# SLO tracking
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SLOConfig:
    """The service objective: latency bound, availability target, windows.

    A request is *good* when it finished with status ``done`` within
    ``latency_s``.  The objective promises at least ``availability``
    good requests; the error budget is ``1 - availability``.
    """

    latency_s: float = 5.0
    availability: float = 0.99
    windows_s: tuple[float, ...] = (60.0, 300.0, 3600.0)

    def __post_init__(self) -> None:
        if self.latency_s <= 0:
            raise ValueError("SLO latency objective must be positive")
        if not 0.0 < self.availability < 1.0:
            raise ValueError("SLO availability must be in (0, 1)")
        if not self.windows_s or any(w <= 0 for w in self.windows_s):
            raise ValueError("SLO windows must be positive")


#: Sample-count ceiling: the tracker is a ring over recent requests,
#: bounded so a month-long daemon cannot grow without limit.
_MAX_SLO_SAMPLES = 100_000


class SLOTracker:
    """Multi-window burn-rate computation over a good/bad request stream.

    Burn rate per window = (error rate in the window) / (error budget).
    1.0 means the budget is being spent exactly at the sustainable
    rate; above 1.0 the objective is being breached if sustained.  The
    clock is injectable so offline replays (``service watch`` over a
    dead state directory) can drive it with record timestamps.
    """

    def __init__(
        self, config: SLOConfig | None = None, clock=time.monotonic
    ) -> None:
        self.config = config or SLOConfig()
        self.clock = clock
        self.good = 0
        self.total = 0
        self._samples: deque[tuple[float, bool]] = deque(
            maxlen=_MAX_SLO_SAMPLES
        )
        self._lock = threading.Lock()

    def record(
        self, ok: bool, latency_s: float, now: float | None = None
    ) -> bool:
        """Account one finished request; returns whether it was good."""
        now = self.clock() if now is None else now
        good = bool(ok) and latency_s <= self.config.latency_s
        horizon = now - max(self.config.windows_s)
        with self._lock:
            self.total += 1
            self.good += good
            self._samples.append((now, good))
            while self._samples and self._samples[0][0] < horizon:
                self._samples.popleft()
        return good

    def window_counts(
        self, window_s: float, now: float | None = None
    ) -> tuple[int, int]:
        """``(good, total)`` among samples inside the trailing window."""
        now = self.clock() if now is None else now
        cutoff = now - window_s
        good = total = 0
        with self._lock:
            for ts, ok in reversed(self._samples):
                if ts < cutoff:
                    break
                total += 1
                good += ok
        return good, total

    def burn_rate(self, window_s: float, now: float | None = None) -> float:
        """The window's error-budget burn rate (0.0 when no samples)."""
        good, total = self.window_counts(window_s, now)
        if not total:
            return 0.0
        error_rate = (total - good) / total
        budget = 1.0 - self.config.availability
        return error_rate / budget

    def snapshot(self, now: float | None = None) -> dict:
        """The JSON document ``/healthz`` and the board embed."""
        now = self.clock() if now is None else now
        windows = {}
        burning = False
        for window_s in self.config.windows_s:
            good, total = self.window_counts(window_s, now)
            burn = self.burn_rate(window_s, now)
            burning = burning or burn > 1.0
            windows[f"{window_s:g}s"] = {
                "total": total,
                "good": good,
                "error_rate": round(
                    (total - good) / total if total else 0.0, 6
                ),
                "burn_rate": round(burn, 4),
            }
        with self._lock:
            good, total = self.good, self.total
        return {
            "objective": {
                "latency_s": self.config.latency_s,
                "availability": self.config.availability,
            },
            "total": total,
            "good": good,
            "compliance": round(good / total if total else 1.0, 6),
            "windows": windows,
            "status": "burning" if burning else "ok",
        }
