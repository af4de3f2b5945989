"""Host-time spans around the calls into each ``repro`` layer.

Loaded only in traced processes.  :func:`install` replaces each target
in :data:`TARGETS` with a wrapper that records one span (id, parent id,
name, thread, start, end) in memory; nothing is written until
:meth:`Recorder.totals` / :meth:`Recorder.write_perfetto` run when the
process is done.  A layer's self time is its spans' duration minus the
part covered by their child spans.

The wrappers live here, never in ``src/``: the program under test is
unchanged, and a target the program no longer has is reported as
missing rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

#: (span name, module, attribute) — the layer boundaries the traced
#: run times.  A class attribute is written ``Class.method``.
TARGETS = (
    ("hw.get_system", "repro.hw.systems", "get_system"),
    ("micro.functional_check", "repro.micro.gemm", "Gemm._functional_check"),
    ("micro.functional_check", "repro.micro.fft", "Fft._functional_check"),
    ("sim.roofline", "repro.sim.engine", "PerfEngine.roofline"),
    ("sim.kernel_time", "repro.sim.engine", "PerfEngine.kernel_time_s"),
    ("sim.batch", "repro.sim.batch", "BatchEngine.evaluate"),
    ("telemetry.metrics", "repro.telemetry.metrics", "MetricsRegistry.inc"),
    ("telemetry.metrics", "repro.telemetry.metrics",
     "MetricsRegistry.observe"),
    ("telemetry.metrics", "repro.telemetry.metrics",
     "MetricsRegistry.set_gauge"),
    ("campaign.unit", "repro.campaign.units", "execute_unit"),
    ("campaign.journal", "repro.campaign.journal", "Journal.append"),
    ("campaign.store", "repro.campaign.store", "ResultStore.put"),
    ("io.fsync", "repro.ioutils", "fsync_append_text"),
    ("io.fsync", "repro.ioutils", "atomic_write_text"),
    ("analysis.render", "repro.core.result", "ResultTable.render"),
    ("analysis.render", "repro.analysis.figures", "render_figure"),
    ("analysis.render", "repro.analysis.tables", "table_i"),
    ("analysis.render", "repro.analysis.tables", "table_v"),
    ("obs.events", "repro.obs.events", "EventBus.emit"),
    ("obs.events", "repro.obs.events", "EventBus.live"),
)


def _span_name(base: str, args: tuple) -> str:
    """Per-kind names where one target serves several kinds of work."""
    if base == "campaign.unit":
        return f"campaign.unit.{args[0].kind}"
    return base


def _items(base: str, args: tuple) -> int:
    """Work items one call handles (points for a batch evaluation)."""
    return len(args[1]) if base == "sim.batch" else 1


class Recorder:
    """In-memory span store shared by every wrapper in the process."""

    def __init__(self) -> None:
        #: (id, parent id, name, thread id, start ns, end ns, items)
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, base: str, fn):
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, _span_name(base, args),
                              threading.get_ident(), start, end,
                              _items(base, args)))

        return traced

    def totals(self, lo_ns: int = 0, hi_ns: int | None = None) -> dict:
        """Per span name: calls, items, inclusive and self nanoseconds.

        Only spans that start inside ``[lo_ns, hi_ns]`` count, so the
        totals cover the timed window and not set-up or warm-up.
        """
        child_ns: dict[int, int] = {}
        for _sid, parent, _name, _tid, start, end, _items_ in self.spans:
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        out: dict[str, dict] = {}
        for sid, _parent, name, _tid, start, end, items in self.spans:
            if start < lo_ns or (hi_ns is not None and start > hi_ns):
                continue
            entry = out.setdefault(
                name, {"calls": 0, "items": 0, "total_ns": 0, "self_ns": 0}
            )
            entry["calls"] += 1
            entry["items"] += items
            entry["total_ns"] += end - start
            entry["self_ns"] += (end - start) - child_ns.get(sid, 0)
        return out

    def write_perfetto(self, path: str, process_name: str) -> None:
        """Chrome-trace JSON that Perfetto and chrome://tracing load."""
        pid = os.getpid()
        origin = min((s[4] for s in self.spans), default=0)
        tids: dict[int, int] = {}
        events = [{"name": "process_name", "ph": "M", "pid": pid,
                   "args": {"name": process_name}}]
        for sid, parent, name, tid, start, end, items in self.spans:
            lane = tids.setdefault(tid, len(tids))
            events.append({
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "pid": pid,
                "tid": lane,
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "args": {"id": sid, "parent": parent, "items": items},
            })
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _resolve(module_name: str, attr: str):
    module = importlib.import_module(module_name)
    owner_name, _, leaf = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, leaf, getattr(owner, leaf)


def install(recorder: Recorder) -> None:
    """Wrap every target, plus each ``from x import f`` alias of it."""
    for base, module_name, attr in TARGETS:
        try:
            owner, leaf, original = _resolve(module_name, attr)
        except (ImportError, AttributeError):
            recorder.missing.append(f"{module_name}:{attr}")
            continue
        wrapped = recorder.wrap(base, original)
        setattr(owner, leaf, wrapped)
        if owner is not sys.modules[module_name]:
            continue
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
