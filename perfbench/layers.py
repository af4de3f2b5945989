"""Per-layer metric values from span totals and the program's own logs."""

from __future__ import annotations

import json
import os

#: span name -> (call-count metric or None, self-time metric)
SPAN_METRICS = {
    "hw.get_system": ("hw.get_system.calls", "hw.get_system.busy_s"),
    "micro.functional_check": (
        "micro.functional_check.calls", "micro.functional_check.busy_s"),
    "sim.roofline": ("sim.roofline.calls", "sim.roofline.busy_s"),
    "sim.kernel_time": ("sim.kernel_time.calls", "sim.kernel_time.busy_s"),
    "sim.batch": ("sim.batch.calls", "sim.batch.busy_s"),
    "telemetry.metrics": (
        "telemetry.metrics.calls", "telemetry.metrics.busy_s"),
    "campaign.journal": (
        "campaign.journal.appends", "campaign.journal.busy_s"),
    "campaign.store": ("campaign.store.puts", "campaign.store.busy_s"),
    "io.fsync": ("io.fsync.calls", "io.fsync.busy_s"),
    "analysis.render": (None, "analysis.render.busy_s"),
    "obs.events": ("obs.events.emits", "obs.events.busy_s"),
}

#: Request phases the daemon logs (``repro.obs.requests.PHASES``).
SERVICE_PHASES = ("parse", "admission", "queue", "cache", "execute",
                  "serialize")

#: Campaign unit kinds (``repro.campaign.spec.UNIT_KINDS``).
UNIT_KINDS = ("table", "render", "static", "figure", "summary")


def from_spans(totals: dict, import_ns: list[int]) -> dict:
    """Counts and self times (seconds) of every wrapped layer."""
    values: dict = {"import.busy_s": (import_ns[1] - import_ns[0]) / 1e9}
    for span, (calls, busy) in SPAN_METRICS.items():
        entry = totals.get(span, {})
        if calls:
            values[calls] = entry.get("calls", 0)
        values[busy] = entry.get("self_ns", 0) / 1e9
    values["sim.batch.points"] = totals.get("sim.batch", {}).get("items", 0)
    for kind in UNIT_KINDS:
        entry = totals.get(f"campaign.unit.{kind}", {})
        values[f"campaign.unit.{kind}.busy_s"] = entry.get("self_ns", 0) / 1e9
    return values


def read_ndjson(path: str) -> list[dict]:
    """Every complete JSON line of *path* (a torn last line is skipped)."""
    if not os.path.exists(path):
        return []
    records = []
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return records


def memo_hit_ratio(run_dir: str) -> float | None:
    """Sim memo hits / (hits + misses) from ``events.ndjson`` cache-stats."""
    hits = misses = 0.0
    for rec in read_ndjson(os.path.join(run_dir, "events.ndjson")):
        if rec.get("type") == "cache-stats":
            hits += rec.get("hits", 0)
            misses += rec.get("misses", 0)
    return hits / (hits + misses) if hits + misses else None


def worker_stats(run_dir: str) -> dict:
    """Scheduler busy/idle/respawns from ``live.ndjson`` stamps.

    Serial runs have no worker pool; their values are ``None``.
    """
    records = read_ndjson(os.path.join(run_dir, "live.ndjson"))
    jobs = next((r.get("jobs", 1) for r in records
                 if r.get("type") == "run-live"), 1)
    respawns = sum(1 for r in records if r.get("type") == "worker-respawn")
    if jobs <= 1 or not records:
        return {"campaign.worker.busy_s": None,
                "campaign.worker.idle_ratio": None,
                "campaign.worker.respawns": respawns}
    dispatched: dict[str, float] = {}
    busy = 0.0
    for rec in records:
        if rec.get("type") == "unit-dispatched":
            dispatched[rec["unit"]] = rec["ts"]
        elif rec.get("type") == "unit-completed" and rec["unit"] in dispatched:
            busy += rec["ts"] - dispatched.pop(rec["unit"])
    window = records[-1]["ts"] - records[0]["ts"]
    idle = 1.0 - busy / (jobs * window) if window > 0 else None
    return {"campaign.worker.busy_s": busy,
            "campaign.worker.idle_ratio": idle,
            "campaign.worker.respawns": respawns}


#: Every per-layer metric: (name, unit, better).  ``BENCHMARK.json``
#: must list the same names in this order (``run.py`` checks); a metric
#: a workload does not reach is reported as 0.
PER_LAYER = (
    ("import.busy_s", "s", "lower"),
    *(
        row
        for span, (calls, busy) in SPAN_METRICS.items()
        for row in (((calls, "count", "lower"),) if calls else ())
        + ((busy, "s", "lower"),)
    ),
    ("sim.batch.points", "count", "higher"),
    ("sim.memo.hit_ratio", "ratio", "higher"),
    ("sweep.outside_eval_s", "s", "lower"),
    *((f"campaign.unit.{kind}.busy_s", "s", "lower") for kind in UNIT_KINDS),
    ("campaign.worker.busy_s", "s", "lower"),
    ("campaign.worker.idle_ratio", "ratio", "lower"),
    ("campaign.worker.respawns", "count", "lower"),
    *(
        (f"service.phase.{kind}.{phase}_ms", "ms", "lower")
        for kind in ("hit", "miss")
        for phase in SERVICE_PHASES
    ),
    ("service.cache.hit_ratio", "ratio", "higher"),
    ("service.shed_ratio", "ratio", "lower"),
    ("service.client_overhead_ms", "ms", "lower"),
    ("service.gen.late_p50_ms", "ms", "lower"),
    ("service.gen.late_max_ms", "ms", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
)
