"""Closed-loop workloads: one campaign or sweep at a time.

Each iteration is a fresh interpreter (``child.py``) that pays the
import and set-up a ``pvc-bench campaign run`` / ``pvc-bench sweep``
user pays, then runs the operation once.  Every output is checked
against a digest pinned from the seed commit, and once per run the
real CLI command is run and checked against the same digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading

from common import (
    CHILD,
    CHILD_TIMEOUT_S,
    ROOT,
    Outcome,
    RunError,
    child_env,
    fresh_dir,
)
import service
from layers import from_spans, memo_hit_ratio, worker_stats
from stats import interval_ns, now_ns

#: sha256 over ``tables/*`` (name, bytes) and ``events.ndjson`` of the
#: serial paper campaign; ``--jobs 2`` must produce the same bytes.
PAPER_CAMPAIGN_DIGEST = (
    "750acfd47081fec41eab4243e0ef0ebb605546e9625cf522d009ace9c2f74b5d"
)
#: sha256 of ``topk.ndjson`` from ``sweep ci``.
SWEEP_CI_TOPK_DIGEST = (
    "a49202c03c9da4574b78db099a053c5dccf043a0ec1c436dd00b8960f8f686a9"
)
#: Scalar golden-reference sample ``run_sweep`` verifies by default.
SWEEP_VERIFY_SAMPLE = 64

#: Fewest timed iterations a run makes, however long they take (the
#: traced run alternates untraced and traced ones, so it needs two).
MIN_ITERATIONS = 4

#: workload -> (child mode, CLI arguments of the cross-check run)
WORKLOADS = {
    "paper-campaign": ("campaign", ["campaign", "run", "--spec", "paper"]),
    "design-sweep": ("sweep", ["sweep", "ci"]),
}


def campaign_digest(run_dir: str) -> str:
    digest = hashlib.sha256()
    tables = os.path.join(run_dir, "tables")
    for name in sorted(os.listdir(tables)):
        with open(os.path.join(tables, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read() + b"\0")
    with open(os.path.join(run_dir, "events.ndjson"), "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def sweep_digest(run_dir: str) -> str:
    with open(os.path.join(run_dir, "topk.ndjson"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def output_errors(mode: str, run_dir: str) -> list[str]:
    """Every way *run_dir* differs from the seed commit's output."""
    errors: list[str] = []
    try:
        if mode == "sweep":
            if sweep_digest(run_dir) != SWEEP_CI_TOPK_DIGEST:
                errors.append("top-K digest differs from the pinned one")
            with open(os.path.join(run_dir, "sweep.json"),
                      encoding="utf-8") as fh:
                scalar = json.load(fh)["scalar"]
            if not scalar.get("verified") or (
                scalar.get("sample") != SWEEP_VERIFY_SAMPLE
            ):
                errors.append(f"scalar sample not verified: {scalar}")
            return errors
        if campaign_digest(run_dir) != PAPER_CAMPAIGN_DIGEST:
            errors.append("tables/events digest differs from the pinned one")
        respawns = worker_stats(run_dir)["campaign.worker.respawns"]
        if respawns:
            errors.append(f"{respawns} worker respawn(s)")
    except (OSError, ValueError, KeyError) as exc:
        errors.append(f"unreadable output: {exc}")
    return errors


def _run(cmd: list[str], log_path: str, ready: bool):
    """Run *cmd*: (spawn ns, ready ns or None, exit ns, exit code, stdout)."""
    with open(log_path, "w", encoding="utf-8") as log:
        t_spawn = now_ns()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=log, text=True,
            cwd=ROOT, env=child_env(),
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            t_ready = None
            if ready:
                line = proc.stdout.readline()
                t_ready = now_ns()
                if line.strip() != "ready":
                    raise RunError(f"{cmd[2]} child did not get ready; "
                                   f"see {log_path}")
            rest = proc.stdout.read()
            code = proc.wait()
            t_exit = now_ns()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    return t_spawn, t_ready, t_exit, code, rest


def run(workload: str, seconds: int, trace: bool, seed: int) -> Outcome:
    """One run of a closed-loop workload.

    The inputs (the paper spec, the ``ci`` sweep space) are fixed, so
    *seed* changes only the traffic of the traced run's service session.
    """
    mode, cli_args = WORKLOADS[workload]
    outcome = Outcome(workload)
    base = fresh_dir(workload)

    # Cross-check: the user's command must give the pinned bytes.
    cli_dir = os.path.join(base, "cli")
    t0, _, t1, code, _ = _run(
        [sys.executable, "-m", "repro.cli", *cli_args, "--dir", cli_dir],
        os.path.join(base, "cli.log"), ready=False,
    )
    errors = output_errors(mode, cli_dir) if code == 0 else [f"exit {code}"]
    outcome.check(not errors, f"pvc-bench {' '.join(cli_args)}: {errors}")
    outcome.notes.append(
        f"cross-check pvc-bench {' '.join(cli_args)}: "
        f"{'ok' if not errors else errors} in {(t1 - t0) / 1e9:.3f} s"
    )
    shutil.rmtree(cli_dir, ignore_errors=True)

    setup = outcome.series_for("setup_s", "s")
    op = outcome.series_for("op_ms", "ms")
    # A closed-loop repeat is one operation: its median and mean are
    # the operation's time.
    outcome.repeat_p50 = outcome.repeat_mean = "op_ms"
    rss = outcome.series_for("peak_rss_mb", "MB")
    rate = outcome.series_for("sweep_points_per_s", "1/s") if (
        mode == "sweep") else None
    op_traced = outcome.series_for("op_traced_ms", "ms") if trace else None
    layer_samples: list[dict] = []

    def iterate(index: int, warmup: bool, traced: bool) -> None:
        run_dir = os.path.join(base, f"it{index}")
        cmd = [sys.executable, str(CHILD), mode, "--dir", run_dir]
        if traced:
            cmd += ["--trace-out", os.path.join(base, "layers.json")]
            if not layer_samples:
                cmd += ["--dump", os.path.join(base, "spans.perfetto.json")]
        t_spawn, t_ready, t_exit, code, out = _run(
            cmd, os.path.join(base, "child.log"), ready=True
        )
        try:
            doc = json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise RunError(f"{workload}: child printed no result "
                           f"(exit {code}): {exc}") from exc
        setup_ns = interval_ns(t_spawn, t_ready, "set-up")
        op_ns = interval_ns(*doc["op_ns"], "operation", t_spawn, t_exit)
        errors = output_errors(mode, run_dir) if doc["exit"] == 0 else [
            f"exit {doc['exit']}"
        ]
        outcome.check(not errors, f"iteration {index}: {errors}")
        if not traced:
            setup.add(setup_ns / 1e9, warmup)
            op.add(op_ns / 1e6, warmup)
            rss.add(doc["rss_kb"] / 1024.0, warmup)
            if rate is not None:
                rate.add(doc["points"] / (op_ns / 1e9), warmup)
        else:
            op_traced.add(op_ns / 1e6)
            values = from_spans(doc["layers"], doc["import_ns"])
            values["sim.memo.hit_ratio"] = memo_hit_ratio(run_dir)
            values.update(worker_stats(run_dir))
            if mode == "sweep":
                values["sweep.outside_eval_s"] = (
                    op_ns / 1e9 - doc["eval_wall_s"]
                )
            if doc.get("missing"):
                outcome.notes.append(f"untraced targets: {doc['missing']}")
            layer_samples.append(values)
        shutil.rmtree(run_dir, ignore_errors=True)

    iterate(0, warmup=True, traced=False)
    start = now_ns()
    index = 0
    while index < MIN_ITERATIONS or now_ns() - start < seconds * 1e9:
        index += 1
        iterate(index, warmup=False, traced=trace and index % 2 == 0)

    if trace:
        outcome.per_layer = _medians(layer_samples)
        outcome.per_layer["trace_overhead_ratio"] = (
            op_traced.summary()["median"] / op.summary()["median"]
        )
    if trace and mode == "campaign":
        # The serial campaign bypasses the fork scheduler, so its layer
        # is read from one jobs=2 campaign's live.ndjson stamps.
        run_dir = os.path.join(base, "jobs2")
        _, _, _, code, _ = _run(
            [sys.executable, str(CHILD), "campaign-jobs2", "--dir", run_dir],
            os.path.join(base, "child.log"), ready=True,
        )
        errors = (output_errors("campaign-jobs2", run_dir) if code == 0
                  else [f"exit {code}"])
        outcome.check(not errors, f"jobs=2 campaign: {errors}")
        outcome.per_layer.update(worker_stats(run_dir))
        shutil.rmtree(run_dir, ignore_errors=True)
        # service-mix is not gated (see README); its layer is read here.
        outcome.per_layer.update(service.layer_session(base, seed, outcome))
    return outcome


def _medians(samples: list[dict]) -> dict:
    names = {name for sample in samples for name in sample}
    out: dict = {}
    for name in sorted(names):
        values = [s[name] for s in samples if s.get(name) is not None]
        out[name] = statistics.median(values) if values else None
    return out
