"""Open-loop service mix against a ``pvc-bench serve-bench`` daemon.

The daemon runs as a subprocess with default flags.  One generator
process (two threads, each holding at most one connection, a fresh one
per request as ``pvc-bench loadgen`` does) sends requests on a fixed
schedule at the workload's rate, spread round-robin over four tenants.
Latency is timed from each request's *due* time, so a stalled client
or daemon shows as latency on every request it delays.

Nine requests in every ten are hits: a seed-0 body of one of the
warm-set commands the run primes first.  The tenth is a miss: a fresh
seed, so the daemon executes it and writes the result store.  Misses
cycle through every command in a seeded order, so each run's miss mix
is the same up to order.  ``table2`` is left out: one miss costs more
than a second, and at 2 misses/s it would ask for more work per second
than the daemon can do.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from common import (
    CHILD,
    ROOT,
    Outcome,
    RunError,
    child_env,
    fresh_dir,
)
from layers import SERVICE_PHASES, from_spans, read_ndjson
from stats import interval_ns, now_ns

COMMANDS = ("table1", "table3", "table4", "table5", "table6",
            "fig1", "fig2", "fig3", "fig4", "report")
WORKLOAD = "service-mix"
#: Requests per second.  The default admission caps each tenant at
#: 32 req/s, so 4 tenants admit up to 128 req/s.  On a 2-core machine
#: whose host runs 2x slower at times, the daemon then saturates near
#: 60 req/s; 20 req/s stays clear of it.
RATE = 20.0
TENANTS = 4
#: One miss in every block of this many requests.
BLOCK = 10
THREADS = 2
WARMUP_S = 2.0
#: One repeat of the measurement: a window of this many seconds of
#: timed traffic, a whole number of miss blocks at each rate.
WINDOW_S = 5.0
#: Timed seconds of the session :func:`layer_session` runs.
SESSION_S = 10
#: Daemon start-ups timed per run (after one warm-up start-up).
SETUP_SAMPLES = 3
REQUEST_TIMEOUT_S = 60.0
STARTUP_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Request:
    index: int
    command: str
    seed: int
    tenant: str
    miss: bool


def schedule(seed: int, count: int) -> list[Request]:
    """The request sequence: a pure function of (*seed*, *count*)."""
    rng = random.Random(seed)
    fresh = 1 + rng.randrange(1 << 30)
    order: list[str] = []
    out: list[Request] = []
    for block_start in range(0, count, BLOCK):
        miss_at = rng.randrange(BLOCK)
        for offset in range(BLOCK):
            index = block_start + offset
            tenant = f"tenant-{index % TENANTS}"
            if offset == miss_at:
                if not order:
                    order = list(COMMANDS)
                    rng.shuffle(order)
                out.append(Request(index, order.pop(), fresh, tenant, True))
                fresh += 1
            else:
                out.append(Request(index, rng.choice(COMMANDS), 0, tenant,
                                   False))
    return out[:count]


def reference_texts() -> dict[str, str]:
    """Each command's text, rendered once here through ``repro.analysis``."""
    from repro.analysis import (
        full_report,
        render_figure,
        table_i,
        table_iii,
        table_iv,
        table_v,
        table_vi,
    )
    from repro.faults import ExecutionContext

    texts = {
        "table1": table_i(),
        "table3": table_iii(ctx=ExecutionContext()).render(),
        "table4": table_iv().render(),
        "table5": table_v(),
        "table6": table_vi(ctx=ExecutionContext()).render(),
        "report": full_report(ExecutionContext()),
    }
    for name in ("fig1", "fig2", "fig3", "fig4"):
        texts[name] = render_figure(name)
    return texts


def _post(port: int, body: dict) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("POST", "/v1/requests?wait=1", body=json.dumps(body),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


class Daemon:
    """One ``serve-bench`` subprocess; ``setup_ns`` is spawn to /healthz."""

    def __init__(self, state_dir: str, log_path: str,
                 trace_out: str | None = None, dump: str | None = None):
        self.state_dir = state_dir
        self.trace_out = trace_out
        serve = ["serve-bench", "--dir", state_dir]
        if trace_out:
            cmd = [sys.executable, str(CHILD), "serve",
                   "--trace-out", trace_out, "--dump", dump, "--", *serve]
        else:
            cmd = [sys.executable, "-m", "repro.cli", *serve]
        self.log = open(log_path, "w", encoding="utf-8")
        start = now_ns()
        self.proc = subprocess.Popen(
            cmd, stdout=self.log, stderr=subprocess.PIPE, text=True,
            cwd=ROOT, env=child_env(),
        )
        try:
            self.port = self._await_ready(start)
        except BaseException:
            self.stop()
            raise
        self.setup_ns = interval_ns(start, now_ns(), "daemon set-up")

    def _await_ready(self, start: int) -> int:
        timer = threading.Timer(STARTUP_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stderr.readline()
        finally:
            timer.cancel()
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if not match:
            raise RunError(f"daemon did not start: {line.strip()!r}")
        port = int(match.group(1))
        deadline = start + STARTUP_TIMEOUT_S * 1e9
        while now_ns() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return port
            except OSError:
                time.sleep(0.001)
            finally:
                conn.close()
        raise RunError("daemon never answered /healthz")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RunError("no VmHWM for the daemon")

    def stop(self) -> int:
        """SIGTERM (the daemon drains), then wait; kill if it hangs."""
        if self.log.closed:
            return self.proc.returncode
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            _, err = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            _, err = self.proc.communicate()
        self.log.write(err or "")
        self.log.close()
        return self.proc.returncode


@dataclass
class Record:
    request: Request
    request_id: str
    due: int
    sent: int = 0
    done: int = 0
    ok: bool = False
    cached: bool = False
    error: str = ""


def open_loop(port: int, requests: list[Request], rate: float,
              prefix: str, texts: dict[str, str]) -> list[Record]:
    """Send *requests* on schedule; request *i* is due ``i / rate`` s in."""
    start = now_ns()
    period = 1e9 / rate
    records = [Record(req, f"{prefix}-{req.index}",
                      start + int(i * period))
               for i, req in enumerate(requests)]
    cursor = iter(records)
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                rec = next(cursor, None)
            if rec is None:
                return
            while (delay := rec.due - now_ns()) > 0:
                time.sleep(delay / 1e9)
            rec.sent = now_ns()
            req = rec.request
            try:
                status, doc = _post(port, {
                    "request_id": rec.request_id, "command": req.command,
                    "seed": req.seed, "tenant": req.tenant,
                })
            except (OSError, ValueError, http.client.HTTPException) as exc:
                status, doc = 0, {"error": str(exc)}
            rec.done = now_ns()
            rec.cached = bool(doc.get("cached"))
            rec.ok = (status == 200 and doc.get("status") == "done"
                      and doc.get("text") == texts[req.command])
            if not rec.ok:
                rec.error = (f"{rec.request_id} {req.command}: HTTP {status} "
                             f"{doc.get('status') or doc.get('error')}")

    threads = [threading.Thread(target=worker, name=f"gen-{n}")
               for n in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(REQUEST_TIMEOUT_S * len(records))
        if thread.is_alive():
            raise RunError("load generator thread did not finish")
    return records


def _phase(daemon: Daemon, requests: list[Request], rate: float,
           texts: dict[str, str], outcome: Outcome, tag: str) -> dict:
    """Prime the warm set, warm up, then time the rest of *requests*."""
    for command in COMMANDS:
        rid = f"prime-{command}"
        status, doc = _post(daemon.port, {"request_id": rid,
                                          "command": command, "seed": 0})
        outcome.check(status == 200 and doc.get("text") == texts[command],
                      f"{tag} {rid}: HTTP {status} {doc.get('status')}")
    n_warm = int(rate * WARMUP_S)
    phases = {}
    for name, part in (("warmup", requests[:n_warm]),
                       ("timed", requests[n_warm:])):
        lo = now_ns()
        records = open_loop(daemon.port, part, rate, f"{tag}-{name}", texts)
        hi = now_ns()
        for rec in records:
            interval_ns(rec.sent, rec.done, "request", lo, hi)
            outcome.check(rec.ok, rec.error)
        phases[name] = (records, lo, hi)
    records, lo, hi = phases["timed"]
    if daemon.trace_out:
        with open(daemon.trace_out + ".window", "w", encoding="utf-8") as fh:
            json.dump([lo, hi], fh)
    rss = daemon.peak_rss_mb()
    code = daemon.stop()
    outcome.check(code == 0, f"{tag} daemon exit {code}")
    return {"warmup": phases["warmup"][0], "timed": records, "rss": rss}


def _latencies_ms(records: list[Record]) -> list[float]:
    return [(r.done - r.due) / 1e6 for r in records if r.ok]


def _late_ms(records: list[Record]) -> list[float]:
    return [(r.sent - r.due) / 1e6 for r in records]


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def service_layers(state_dir: str, records: list[Record]) -> dict:
    """Per-phase medians (hit/miss), hit and shed ratios, client overhead."""
    by_id = {r.request_id: r for r in records}
    spans, sheds = [], 0
    for rec in read_ndjson(os.path.join(state_dir, "requests.ndjson")):
        if rec.get("request") not in by_id:
            continue
        if rec.get("type") == "request-span":
            spans.append(rec)
        elif rec.get("type") == "request-shed":
            sheds += 1
    values: dict = {}
    for kind, cached in (("hit", True), ("miss", False)):
        group = [s for s in spans if bool(s.get("cached")) == cached]
        for phase in SERVICE_PHASES:
            values[f"service.phase.{kind}.{phase}_ms"] = _median(
                [s["phases"][phase] * 1e3 for s in group
                 if phase in s.get("phases", {})])
    values["service.cache.hit_ratio"] = (
        sum(1 for s in spans if s.get("cached")) / len(spans)
        if spans else None)
    values["service.shed_ratio"] = (
        sheds / (len(spans) + sheds) if spans or sheds else None)
    values["service.client_overhead_ms"] = _median([
        (by_id[s["request"]].done - by_id[s["request"]].sent) / 1e6
        - sum(s.get("phases", {}).values()) * 1e3
        for s in spans
    ])
    late = _late_ms(records)
    values["service.gen.late_p50_ms"] = _median(late)
    values["service.gen.late_max_ms"] = max(late) if late else None
    return values


def layer_session(base: str, seed: int, outcome: Outcome) -> dict:
    """The service layer's metrics from a short ``service-mix`` session.

    ``service-mix`` is not a gated workload (see README), so a gated
    workload's traced run calls this to keep the service layer measured.
    """
    requests = schedule(seed, int(RATE * (WARMUP_S + SESSION_S)))
    daemon = Daemon(os.path.join(base, "service-state"),
                    os.path.join(base, "service.log"))
    try:
        result = _phase(daemon, requests, RATE, reference_texts(), outcome,
                        "service")
    finally:
        daemon.stop()
    outcome.notes.append(
        f"service session: {SESSION_S} s at {RATE:g} req/s, p50 "
        f"{statistics.median(_latencies_ms(result['timed'])):.3f} ms"
    )
    return service_layers(daemon.state_dir, result["timed"])


def run(workload: str, seconds: int, trace: bool, seed: int) -> Outcome:
    """One run of a service load point (``seconds`` of timed traffic)."""
    outcome = Outcome(workload)
    base = fresh_dir(workload)
    texts = reference_texts()
    # The traced run splits its time between an untraced and a traced
    # daemon, so the trace overhead is measured on the same schedule.
    timed_s = seconds / 2 if trace else seconds
    requests = schedule(seed, int(RATE * (WARMUP_S + timed_s)))
    outcome.notes.append(
        f"{RATE:g} req/s over {TENANTS} tenants, "
        f"{sum(r.miss for r in requests)} misses of {len(requests)} requests"
    )

    setup = outcome.series_for("setup_s", "s")
    latency = outcome.series_for("latency_ms", "ms")
    window_p50 = outcome.series_for("window_p50_ms", "ms")
    window_mean = outcome.series_for("window_mean_ms", "ms")
    outcome.repeat_p50 = "window_p50_ms"
    outcome.repeat_mean = "window_mean_ms"
    late = outcome.series_for("gen_late_ms", "ms")
    rss = outcome.series_for("peak_rss_mb", "MB")
    daemons: list[Daemon] = []
    try:
        if not trace:
            for k in range(SETUP_SAMPLES + 1):
                daemons.append(Daemon(os.path.join(base, f"state{k}"),
                                      os.path.join(base, f"daemon{k}.log")))
                setup.add(daemons[-1].setup_ns / 1e9, warmup=k == 0)
                if k < SETUP_SAMPLES:
                    code = daemons[-1].stop()
                    outcome.check(code == 0, f"start-up {k} exit {code}")
        else:
            daemons.append(Daemon(os.path.join(base, "state-untraced"),
                                  os.path.join(base, "daemon-untraced.log")))
        result = _phase(daemons[-1], requests, RATE, texts, outcome, "run")
        for rec in result["warmup"]:
            if rec.ok:
                latency.add((rec.done - rec.due) / 1e6, warmup=True)
        for value in _latencies_ms(result["timed"]):
            latency.add(value)
        size = int(RATE * WINDOW_S)
        for start in range(0, len(result["timed"]) - size + 1, size):
            values = _latencies_ms(result["timed"][start:start + size])
            window_p50.add(statistics.median(values))
            window_mean.add(statistics.fmean(values))
        for value in _late_ms(result["timed"]):
            late.add(value)
        rss.add(result["rss"])
        if trace:
            trace_out = os.path.join(base, "layers.json")
            daemons.append(Daemon(
                os.path.join(base, "state-traced"),
                os.path.join(base, "daemon-traced.log"),
                trace_out=trace_out,
                dump=os.path.join(base, "spans.perfetto.json"),
            ))
            traced = _phase(daemons[-1], requests, RATE, texts, outcome,
                            "traced")
            with open(trace_out, encoding="utf-8") as fh:
                doc = json.load(fh)
            outcome.per_layer = from_spans(doc["layers"], doc["import_ns"])
            outcome.per_layer.update(service_layers(
                daemons[-1].state_dir, traced["timed"]))
            outcome.per_layer["trace_overhead_ratio"] = (
                statistics.median(_latencies_ms(traced["timed"]))
                / latency.summary()["median"])
            if doc.get("missing"):
                outcome.notes.append(f"untraced targets: {doc['missing']}")
    finally:
        for daemon in daemons:
            daemon.stop()

    outcome.notes.append(
        f"generator late: median {late.summary()['median']:.3f} ms, "
        f"max {max(late.values):.3f} ms"
    )
    return outcome
