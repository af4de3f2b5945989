"""Metrics registry: counters, gauges, histograms, two exporters.

The training/inference stacks the ROADMAP points at live on a metrics
plane (Prometheus scrape endpoints); the simulated substrate gets the
same shape here.  Names use dotted form internally (``transfer.bytes``)
and are normalised to the Prometheus grammar (``transfer_bytes``) at
export time.  Labels are plain keyword arguments::

    registry.inc("transfer.bytes", 5e8, path="xelink")
    registry.set_gauge("roofline.regime", 1.0, kernel="dgemm")
    registry.observe("kernel.time_us", 130.0)

Everything is deterministic: values derive from the simulated clock and
seeded fault plans, never the wall clock, and both exporters emit in
sorted order.
"""

from __future__ import annotations

import bisect
import json
import re
import threading
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Histogram bucket upper bounds (simulated microseconds / ratios both
#: fit; the +Inf bucket is implicit).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7,
)

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_.]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelSet = tuple[tuple[str, str], ...]


#: Label names that already passed ``_LABEL_RE``.  Validity is a
#: property of the string alone, so sharing the set across registries
#: changes no outcome: each name is matched once per process, and a bad
#: name is never added and raises on every use.
_valid_labels: set[str] = set()


def _labelset(labels: dict[str, object]) -> LabelSet:
    if not labels:
        return ()
    if not _valid_labels.issuperset(labels):
        for key in labels:
            if not _LABEL_RE.match(key):
                raise ValueError(f"bad label name {key!r}")
        _valid_labels.update(labels)
    if len(labels) == 1:
        ((key, value),) = labels.items()
        return ((key, str(value)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _prom_name(name: str) -> str:
    return name.replace(".", "_")


def _prom_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _prom_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    # Sort here, not just at construction: exported bytes must not
    # depend on how a label set was assembled (or on PYTHONHASHSEED).
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels))
    return "{" + inner + "}"


@dataclass
class Counter:
    """A monotonically increasing value (per label set)."""

    name: str
    help: str = ""
    _values: dict[LabelSet, float] = field(default_factory=dict)

    kind = "counter"

    def inc(self, value: float = 1.0, **labels) -> None:
        self._update(_labelset(labels), value)

    def _update(self, key: LabelSet, value: float) -> None:
        if value < 0:
            raise ValueError(f"{self.name}: counters cannot decrease")
        self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels) -> float:
        return self._values.get(_labelset(labels), 0.0)

    def total(self, **labels) -> float:
        """Sum over every label set containing the given label pairs.

        With no arguments this is the grand total; with
        ``total(tenant="a")`` it folds every series whose label set
        includes ``tenant="a"`` regardless of other labels — the
        service board's per-tenant request counts come from here.
        """
        if not labels:
            return sum(self._values.values())
        want = set(_labelset(labels))
        # list(): the service board folds while executor threads
        # increment; a snapshot avoids resize-during-iteration.
        return sum(
            value
            for ls, value in list(self._values.items())
            if want <= set(ls)
        )

    def samples(self) -> list[tuple[LabelSet, float]]:
        return sorted(self._values.items())


@dataclass
class Gauge:
    """A value that can go up and down (per label set)."""

    name: str
    help: str = ""
    _values: dict[LabelSet, float] = field(default_factory=dict)

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._update(_labelset(labels), value)

    def _update(self, key: LabelSet, value: float) -> None:
        self._values[key] = float(value)

    def add(self, value: float, **labels) -> None:
        key = _labelset(labels)
        self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels) -> float:
        return self._values.get(_labelset(labels), 0.0)

    def samples(self) -> list[tuple[LabelSet, float]]:
        return sorted(self._values.items())


@dataclass
class _HistogramState:
    counts: list[int]
    total: int = 0
    sum: float = 0.0


@dataclass
class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    name: str
    help: str = ""
    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    _states: dict[LabelSet, _HistogramState] = field(default_factory=dict)

    kind = "histogram"

    def __post_init__(self) -> None:
        if tuple(sorted(self.buckets)) != tuple(self.buckets):
            raise ValueError(f"{self.name}: buckets must be sorted")
        if not self.buckets:
            raise ValueError(f"{self.name}: need at least one bucket")

    def observe(self, value: float, **labels) -> None:
        self._update(_labelset(labels), value)

    def _update(self, key: LabelSet, value: float) -> None:
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _HistogramState(
                counts=[0] * len(self.buckets)
            )
        idx = bisect.bisect_left(self.buckets, value)
        if idx < len(self.buckets):
            state.counts[idx] += 1
        state.total += 1
        state.sum += value

    def count(self, **labels) -> int:
        state = self._states.get(_labelset(labels))
        return 0 if state is None else state.total

    def sum_observed(self, **labels) -> float:
        state = self._states.get(_labelset(labels))
        return 0.0 if state is None else state.sum

    def cumulative_counts(self, **labels) -> list[int]:
        """Per-bucket cumulative counts (Prometheus ``le`` semantics)."""
        state = self._states.get(_labelset(labels))
        if state is None:
            return [0] * len(self.buckets)
        out, running = [], 0
        for c in state.counts:
            running += c
            out.append(running)
        return out

    def percentile(self, q: float, **labels) -> float:
        """The *q*-quantile estimated from the cumulative buckets.

        Same estimator as PromQL's ``histogram_quantile``: find the
        bucket the rank falls in and interpolate linearly inside it.  A
        rank landing in the +Inf bucket returns the largest finite
        bound (the histogram cannot resolve beyond it); an empty
        histogram returns 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"{self.name}: quantile must be in [0, 1], got {q}")
        state = self._states.get(_labelset(labels))
        if state is None or state.total == 0:
            return 0.0
        rank = q * state.total
        cumulative = self.cumulative_counts(**labels)
        for i, (bound, cum) in enumerate(zip(self.buckets, cumulative)):
            if cum >= rank:
                lower = self.buckets[i - 1] if i else 0.0
                below = cumulative[i - 1] if i else 0
                in_bucket = cum - below
                if in_bucket == 0:  # pragma: no cover - cum >= rank guards
                    return bound
                return lower + (bound - lower) * (rank - below) / in_bucket
        return self.buckets[-1]

    def percentiles(
        self, qs: tuple[float, ...] = (0.5, 0.95, 0.99), **labels
    ) -> dict[str, float]:
        """The standard latency summary (p50/p95/p99 by default)."""
        return {f"p{q * 100:g}": self.percentile(q, **labels) for q in qs}

    def folded_state(self, **labels) -> _HistogramState:
        """Merge every label set containing the given pairs into one state.

        ``folded_state()`` folds everything;
        ``folded_state(tenant="a")`` folds ``tenant="a"`` series across
        all other label dimensions (endpoints, statuses, ...).
        """
        want = set(_labelset(labels))
        merged = _HistogramState(counts=[0] * len(self.buckets))
        # list(): folds run concurrently with observers (see Counter.total).
        for ls, state in list(self._states.items()):
            if want <= set(ls):
                for i, c in enumerate(state.counts):
                    merged.counts[i] += c
                merged.total += state.total
                merged.sum += state.sum
        return merged

    def folded_percentile(self, q: float, **labels) -> float:
        """:meth:`percentile` over the subset-fold of matching label sets."""
        folded = Histogram(name=self.name, buckets=self.buckets)
        folded._states[()] = self.folded_state(**labels)
        return folded.percentile(q)

    def samples(self) -> list[tuple[LabelSet, _HistogramState]]:
        return sorted(self._states.items(), key=lambda kv: kv[0])


class MetricsRegistry:
    """A named collection of metrics with exporters.

    The convenience methods (:meth:`inc`, :meth:`set_gauge`,
    :meth:`observe`) create metrics on first use, so instrumented layers
    never have to pre-declare anything.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    # -- declaration ------------------------------------------------------

    def _get_or_create(self, name: str, cls, *args):
        # An existing metric needs neither the name regex nor the lock
        # (a dict read is atomic).  Creation takes the lock and
        # re-checks, so racing creators agree on one metric.
        metric = self._metrics.get(name)
        if metric is None:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad metric name {name!r}")
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = self._metrics[name] = cls(name, *args)
        if metric.kind != cls.kind:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(name, Histogram, help, buckets)

    # -- convenience -------------------------------------------------------

    # One lock round-trip per update (MPI rank threads and service
    # executors update concurrently); the label key is built outside it.

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        counter = self._get_or_create(name, Counter)
        key = _labelset(labels)
        with self._lock:
            counter._update(key, value)

    def set_gauge(self, name: str, value: float, **labels) -> None:
        gauge = self._get_or_create(name, Gauge)
        key = _labelset(labels)
        with self._lock:
            gauge._update(key, value)

    def observe(self, name: str, value: float, **labels) -> None:
        histogram = self._get_or_create(name, Histogram)
        key = _labelset(labels)
        with self._lock:
            histogram._update(key, value)

    def value(self, name: str, **labels) -> float:
        """Current value of a counter/gauge (0.0 when never touched)."""
        metric = self._metrics.get(name)
        if metric is None:
            return 0.0
        if isinstance(metric, Histogram):
            raise ValueError(f"{name} is a histogram; use .histogram()")
        return metric.value(**labels)

    def drop_label(self, key: str, value: str) -> int:
        """Remove every sample whose label set contains ``key=value``.

        This is the idempotent-attribution primitive behind campaign
        resume: before a unit is re-executed, its previous contributions
        (labelled ``unit=<id>``) are dropped so retry/quarantine counters
        are never double-counted.  Returns the number of samples removed.
        """
        pair = (key, str(value))
        removed = 0
        with self._lock:
            for metric in self._metrics.values():
                store = (
                    metric._states
                    if isinstance(metric, Histogram)
                    else metric._values
                )
                doomed = [ls for ls in store if pair in ls]
                for ls in doomed:
                    del store[ls]
                removed += len(doomed)
        return removed

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # -- exporters ---------------------------------------------------------

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (sorted, deterministic)."""
        lines: list[str] = []
        for name in self.names():
            metric = self._metrics[name]
            prom = _prom_name(name)
            if metric.help:
                lines.append(f"# HELP {prom} {metric.help}")
            lines.append(f"# TYPE {prom} {metric.kind}")
            if isinstance(metric, Histogram):
                for labels, state in metric.samples():
                    cumulative = 0
                    for bound, count in zip(metric.buckets, state.counts):
                        cumulative += count
                        le = dict(labels)
                        le["le"] = _prom_number(bound)
                        lines.append(
                            f"{prom}_bucket{_prom_labels(_labelset(le))} "
                            f"{cumulative}"
                        )
                    le = dict(labels)
                    le["le"] = "+Inf"
                    lines.append(
                        f"{prom}_bucket{_prom_labels(_labelset(le))} "
                        f"{state.total}"
                    )
                    lines.append(
                        f"{prom}_sum{_prom_labels(labels)} "
                        f"{_prom_number(state.sum)}"
                    )
                    lines.append(
                        f"{prom}_count{_prom_labels(labels)} {state.total}"
                    )
            else:
                samples = metric.samples()
                if not samples:
                    lines.append(f"{prom} 0")
                for labels, value in samples:
                    lines.append(
                        f"{prom}{_prom_labels(labels)} {_prom_number(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_openmetrics(self) -> str:
        """The OpenMetrics text exposition format (sorted, deterministic).

        Differs from :meth:`to_prometheus` where the OpenMetrics spec
        demands it: counter sample names carry the ``_total`` suffix
        (the ``# TYPE`` line names the bare metric family), every
        histogram family gets explicit ``# TYPE``/``# HELP`` lines ahead
        of its ``_bucket``/``_sum``/``_count`` samples, and the
        exposition is terminated by ``# EOF``.  This is what the
        ``obs serve`` scrape endpoint emits.
        """
        lines: list[str] = []
        for name in self.names():
            metric = self._metrics[name]
            prom = _prom_name(name)
            if metric.help:
                lines.append(f"# HELP {prom} {metric.help}")
            lines.append(f"# TYPE {prom} {metric.kind}")
            if isinstance(metric, Histogram):
                for labels, state in metric.samples():
                    cumulative = 0
                    for bound, count in zip(metric.buckets, state.counts):
                        cumulative += count
                        le = dict(labels)
                        le["le"] = _prom_number(bound)
                        lines.append(
                            f"{prom}_bucket{_prom_labels(_labelset(le))} "
                            f"{cumulative}"
                        )
                    le = dict(labels)
                    le["le"] = "+Inf"
                    lines.append(
                        f"{prom}_bucket{_prom_labels(_labelset(le))} "
                        f"{state.total}"
                    )
                    lines.append(
                        f"{prom}_sum{_prom_labels(labels)} "
                        f"{_prom_number(state.sum)}"
                    )
                    lines.append(
                        f"{prom}_count{_prom_labels(labels)} {state.total}"
                    )
            elif isinstance(metric, Counter):
                samples = metric.samples()
                if not samples:
                    lines.append(f"{prom}_total 0")
                for labels, value in samples:
                    lines.append(
                        f"{prom}_total{_prom_labels(labels)} "
                        f"{_prom_number(value)}"
                    )
            else:
                samples = metric.samples()
                if not samples:
                    lines.append(f"{prom} 0")
                for labels, value in samples:
                    lines.append(
                        f"{prom}{_prom_labels(labels)} {_prom_number(value)}"
                    )
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    def percentile_summary(
        self, qs: tuple[float, ...] = (0.5, 0.95, 0.99)
    ) -> dict[str, dict[str, float]]:
        """Per-histogram percentiles, folded across every label set.

        The ``metrics`` CLI summary renders this: one p50/p95/p99 row
        per histogram, regardless of how its samples were labelled.
        """
        out: dict[str, dict[str, float]] = {}
        for name in self.names():
            metric = self._metrics[name]
            if not isinstance(metric, Histogram):
                continue
            folded = Histogram(name=metric.name, buckets=metric.buckets)
            merged = _HistogramState(counts=[0] * len(metric.buckets))
            for _, state in metric.samples():
                for i, c in enumerate(state.counts):
                    merged.counts[i] += c
                merged.total += state.total
                merged.sum += state.sum
            folded._states[()] = merged
            out[name] = {
                "count": float(merged.total),
                "sum": merged.sum,
                **folded.percentiles(qs),
            }
        return out

    def snapshot(self) -> dict:
        """A JSON-able snapshot (used by run manifests)."""
        out: dict[str, dict] = {}
        for name in self.names():
            metric = self._metrics[name]
            entry: dict[str, object] = {"kind": metric.kind}
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                entry["samples"] = [
                    {
                        "labels": dict(sorted(labels)),
                        "counts": list(state.counts),
                        "count": state.total,
                        "sum": state.sum,
                    }
                    for labels, state in metric.samples()
                ]
            else:
                entry["samples"] = [
                    {"labels": dict(sorted(labels)), "value": value}
                    for labels, value in metric.samples()
                ]
            out[name] = entry
        return out

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)
