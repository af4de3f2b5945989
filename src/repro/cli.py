"""``pvc-bench`` command-line interface.

Mirrors the artifact's run scripts::

    pvc-bench table2            # Tables II  (microbenchmarks)
    pvc-bench table3            # Table III  (P2P)
    pvc-bench table4            # Table IV   (reference GPUs)
    pvc-bench table6            # Table VI   (mini-app / app FOMs)
    pvc-bench fig1              # memory-latency curves
    pvc-bench fig2 | fig3 | fig4
    pvc-bench claims            # every checked prose claim
    pvc-bench systems           # node inventories

Chaos testing (deterministic fault injection)::

    pvc-bench table2 --inject device-loss --seed 0
    pvc-bench health --inject plane-outage --seed 3

Telemetry (span traces, metrics, run manifests)::

    pvc-bench trace gemm --out trace.json          # Perfetto timeline
    pvc-bench trace gemm --inject device-loss --seed 7 --out t.json
    pvc-bench metrics triad                        # Prometheus text
    pvc-bench table2 --manifest run.json           # run manifest rider

Profiling (iprof-style API summaries, roofline attribution, baselines)::

    pvc-bench profile gemm --system aurora         # iprof-style tables
    pvc-bench profile smoke --write-baseline BENCH_0.json
    pvc-bench profile smoke --baseline BENCH_0.json   # regression gate
    pvc-bench profile full --baseline BENCH_1.json    # + campaign/sim-cache
    pvc-bench profile triad --flamegraph out.collapsed
    pvc-bench table2 --profile --manifest run.json # profile digest rider

Crash-safe campaigns (write-ahead journal + checkpoint/resume)::

    pvc-bench campaign run    --dir out --spec paper
    pvc-bench campaign run    --dir out --spec smoke --inject crash-midrun
    pvc-bench campaign run    --dir out --spec smoke --jobs 4 \\
        --inject worker-kill --max-respawns 8      # self-healing pool
    pvc-bench campaign resume --dir out
    pvc-bench campaign status --dir out
    pvc-bench campaign verify --dir out

Live observability (event streams, watch board, exporters, trend)::

    pvc-bench campaign watch out                   # live status board
    pvc-bench obs export out --out trace.json      # Perfetto timeline
    pvc-bench obs serve out --port 9100            # OpenMetrics exporter
    pvc-bench trend BENCH_0.json BENCH_1.json      # cross-run analytics

Design-space sweeps (vectorized batch evaluation, million-point grids)::

    pvc-bench sweep million --dir out              # >= 10^6 points
    pvc-bench sweep ci --dir out --jobs 4 --ndjson # sharded, full dump
    pvc-bench sweep myspace.json --top-k 32        # custom JSON spec
    pvc-bench profile sweep --baseline BENCH_3.json   # points/s gate

Service observability (trace propagation, RED/SLO, live board)::

    pvc-bench serve-bench --dir state --port 8080 --slo-latency 2.0
    pvc-bench loadgen --port 8080 --requests 200 --tenants 4
    pvc-bench service watch --port 8080            # live service board
    pvc-bench service watch state --once           # offline fold
    pvc-bench profile service --baseline BENCH_2.json  # storm p99 gate

Exit codes (see ``repro.exitcodes``): 0 = clean, 1 = degraded cells or a
measurement failure, 2 = failed cells or a fatal error, 3 = interrupted
but resumable (``campaign resume`` finishes it), 4 = corrupt journal or
result store.  With ``--manifest`` the exit code is always accompanied
by a machine-readable manifest binding config, metrics and incident
provenance.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from .errors import ReproError
from .exitcodes import ExitCode, classify_error
from .names import (
    CAMPAIGN_SCENARIO_NAMES,
    SCENARIO_NAMES,
    SPEC_NAMES,
    WORKER_SCENARIO_NAMES,
    check_scenario,
)

if TYPE_CHECKING:  # pragma: no cover - a command imports what it runs
    from .faults import ExecutionContext

__all__ = ["main"]

#: Benchmarks the ``trace`` / ``metrics`` commands can run.  The plan is
#: long enough (warmup + 30 reps = 32 injector ticks) that every fault
#: scenario's trigger tick falls inside the run.
_TELEMETRY_BENCHES = ("gemm", "triad", "p2p")


def _run_instrumented(ctx: ExecutionContext, args) -> None:
    """Run one benchmark with the full telemetry session attached."""
    from .profiler.driver import run_bench

    result = run_bench(ctx, args.bench, args.system)
    best = result.best
    print(
        f"# {args.bench} on {args.system} [{result.scope.name}]: "
        f"best {best.work / best.elapsed_s:.4g} {best.unit} "
        f"over {len(result.samples)} samples",
        file=sys.stderr,
    )


def _cmd_profile(args) -> int:
    """``pvc-bench profile <bench>|smoke`` — iprof-style summaries.

    Prints one iprof-style report per profiled run; optional riders
    export a collapsed-stack flamegraph, the raw profile documents, and
    write/compare perf-regression baselines (a regression raises the
    exit code to the MEASUREMENT tier).
    """
    if args.bench == "service":
        return _cmd_profile_service(args)
    if args.bench == "sweep":
        return _cmd_profile_sweep(args)
    from .ioutils import atomic_write_text
    from .profiler.baseline import (
        build_snapshot,
        compare_snapshots,
        load_baseline,
        write_baseline,
    )
    from .profiler.driver import (
        profile_bench,
        profile_campaign_set,
        profile_smoke_set,
    )
    from .profiler.flamegraph import collapsed_stacks

    campaign_entries: list[dict] = []
    if args.bench in ("smoke", "full"):
        runs = profile_smoke_set(scenario=args.inject, seed=args.seed)
        if args.bench == "full":
            # The campaign benchmark matrix: wall-clock at jobs 1 and 4
            # plus the sim memo cache's hit rate (a gated field).
            campaign_entries = profile_campaign_set()
    else:
        runs = [
            profile_bench(
                args.bench, args.system, scenario=args.inject, seed=args.seed
            )
        ]
    for run in runs:
        print(run.report())
    code = max(int(run.ctx.exit_code()) for run in runs)
    if args.flamegraph:
        # Per-run collapsed stacks, each frame path prefixed with the
        # run's identity so the smoke set folds into one flamegraph.
        lines: list[str] = []
        for run in runs:
            lines.extend(
                f"{run.bench}@{run.system};{line}"
                for line in collapsed_stacks(run.telemetry.tracer)
            )
        atomic_write_text(args.flamegraph, "\n".join(sorted(lines)) + "\n")
        print(f"flamegraph written to {args.flamegraph}", file=sys.stderr)
    if args.out:
        import json

        doc = {
            "schema": "repro.profiler.profileset/v1",
            "profiles": {
                f"{run.bench}@{run.system}": run.profiler.to_doc()
                for run in runs
            },
        }
        atomic_write_text(
            args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"profile written to {args.out}", file=sys.stderr)
    for entry in campaign_entries:
        rate = entry["sim_cache_hit_rate"]
        print(
            f"{entry['bench']}@{entry['system']}: {entry['units']} unit(s) "
            f"in {entry['wall_s']:.2f}s wall, sim-cache hit rate "
            f"{rate:.1%}"
        )
    snapshot = build_snapshot(
        [run.entry() for run in runs] + campaign_entries
    )
    if args.write_baseline:
        write_baseline(args.write_baseline, snapshot)
        print(f"baseline written to {args.write_baseline}", file=sys.stderr)
    if args.baseline:
        comparison = compare_snapshots(load_baseline(args.baseline), snapshot)
        print(comparison.render(), end="")
        if comparison.regressed:
            code = max(code, int(ExitCode.MEASUREMENT))
    if args.manifest is not None:
        if len(runs) == 1:
            from .telemetry.manifest import write_manifest

            write_manifest(args.manifest, runs[0].ctx.manifest("profile"))
            print(f"manifest written to {args.manifest}", file=sys.stderr)
        else:
            print(
                "pvc-bench: note: --manifest applies to single-bench "
                "profiles only",
                file=sys.stderr,
            )
    return code


def _cmd_profile_service(args) -> int:
    """``pvc-bench profile service`` — the storm benchmark.

    Boots a throwaway daemon over a temp state directory, runs the
    standard warm-then-storm load, and gates the storm p99 latency and
    the service cache hit rate against ``BENCH_2.json``-style
    baselines.  Wall-clock latencies are machine-dependent, so the
    snapshot is written with a wide (50%) tolerance; the hit-rate gate
    is exact in practice because the warm pass makes 1.0 the expected
    value.
    """
    import shutil
    import tempfile

    from .profiler.baseline import (
        build_snapshot,
        compare_snapshots,
        load_baseline,
        write_baseline,
    )
    from .service.loadgen import service_benchmark_entries

    root = tempfile.mkdtemp(prefix="repro-profile-service-")
    try:
        entries = service_benchmark_entries(
            root,
            requests=getattr(args, "requests", None) or 64,
            concurrency=getattr(args, "concurrency", None) or 8,
            distinct=getattr(args, "distinct", None) or 4,
            seed=args.seed,
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    code = 0
    for entry in entries:
        print(
            f"{entry['bench']}@{entry['system']}: {entry['completed']}/"
            f"{entry['requests']} done in {entry['wall_s']:.2f}s wall, "
            f"storm p99 {entry['storm_p99_s'] * 1e3:.1f}ms, cache hit "
            f"rate {entry['service_cache_hit_rate']:.1%}"
        )
    snapshot = build_snapshot(entries, tolerance=0.5)
    if args.write_baseline:
        write_baseline(args.write_baseline, snapshot)
        print(f"baseline written to {args.write_baseline}", file=sys.stderr)
    if args.baseline:
        comparison = compare_snapshots(load_baseline(args.baseline), snapshot)
        print(comparison.render(), end="")
        if comparison.regressed:
            code = max(code, int(ExitCode.MEASUREMENT))
    return code


def _cmd_profile_sweep(args) -> int:
    """``pvc-bench profile sweep`` — the design-space throughput gate.

    Runs the ~138k-point ``ci`` sweep through the batch engine, samples
    the scalar golden reference for bit-for-bit agreement and the
    points-per-second speedup, and gates both throughput figures
    against ``BENCH_3.json``-style baselines.  Beyond the relative
    baseline gate there is a hard floor: the batch path must beat the
    scalar path by :data:`~repro.sweep.runner.SPEEDUP_FLOOR` (50x) or
    the profile fails outright — a slow batch path defeats the whole
    subsystem even on a machine with no baseline to compare against.
    """
    from .profiler.baseline import (
        build_snapshot,
        compare_snapshots,
        load_baseline,
        write_baseline,
    )
    from .sweep.runner import SPEEDUP_FLOOR, sweep_benchmark_entries

    entries = sweep_benchmark_entries(jobs=args.jobs or 1)
    code = 0
    for entry in entries:
        speedup = entry["batch_speedup"] or 0.0
        print(
            f"{entry['bench']}@{entry['system']}: {entry['points']:,} "
            f"points in {entry['wall_s']:.3f}s "
            f"({entry['points_per_s'] / 1e6:.1f} M points/s, "
            f"x{speedup:.0f} vs scalar over {entry['verified_sample']} "
            f"verified sample point(s))"
        )
        if speedup < SPEEDUP_FLOOR:
            print(
                f"pvc-bench: sweep speedup x{speedup:.1f} is below the "
                f"x{SPEEDUP_FLOOR:.0f} floor",
                file=sys.stderr,
            )
            code = max(code, int(ExitCode.MEASUREMENT))
    # Throughput figures are wall-clock; the snapshot uses the same
    # wide tolerance as the service storm gate.
    snapshot = build_snapshot(entries, tolerance=0.5)
    if args.write_baseline:
        write_baseline(args.write_baseline, snapshot)
        print(f"baseline written to {args.write_baseline}", file=sys.stderr)
    if args.baseline:
        comparison = compare_snapshots(load_baseline(args.baseline), snapshot)
        print(comparison.render(), end="")
        if comparison.regressed:
            code = max(code, int(ExitCode.MEASUREMENT))
    return code


def _cmd_trace(ctx: ExecutionContext, args) -> None:
    _run_instrumented(ctx, args)
    doc = ctx.telemetry.tracer.export_json()
    if args.out:
        from .ioutils import atomic_write_text

        atomic_write_text(args.out, doc + "\n")
        ctx.trace_files.append(args.out)
        print(f"trace written to {args.out}", file=sys.stderr)
    else:
        print(doc)
    print(ctx.telemetry_summary(), file=sys.stderr)


#: Counters always present in the ``metrics`` scrape, even at zero:
#: dashboards alert on their absence, so a run that never touched the
#: sim cache or never respawned a worker still exports the series.
_DECLARED_COUNTERS = (
    ("simcache.hit", "sim memo cache hits"),
    ("simcache.miss", "sim memo cache misses"),
    ("simcache.bypass", "sim memo cache bypasses (uncacheable plans)"),
    ("worker.respawns", "campaign workers respawned by the supervisor"),
    ("unit.quarantined", "campaign units quarantined as poison"),
    ("scheduler.degraded", "campaigns degraded to in-process draining"),
)


def _cmd_metrics(ctx: ExecutionContext, args) -> None:
    _run_instrumented(ctx, args)
    for name, help_text in _DECLARED_COUNTERS:
        ctx.telemetry.metrics.counter(name, help_text)
    print(ctx.telemetry.metrics.to_prometheus(), end="")
    # Percentile summary on stderr, so stdout stays a parseable scrape.
    summary = ctx.telemetry.metrics.percentile_summary()
    if summary:
        print("latency percentiles (from histogram buckets):", file=sys.stderr)
        for name, row in summary.items():
            print(
                f"  {name}: p50 {row['p50']:.4g}  p95 {row['p95']:.4g}  "
                f"p99 {row['p99']:.4g}  (n={row['count']:.0f})",
                file=sys.stderr,
            )


def _print_bench(command: str, ctx: ExecutionContext | None = None) -> None:
    from .analysis import render_bench

    print(render_bench(command, ctx))


def _cmd_claims() -> None:
    from .analysis import all_claims

    ok = 0
    claims = all_claims()
    for c in claims:
        mark = "PASS" if c.holds else "FAIL"
        ok += c.holds
        print(f"[{mark}] {c.name}: paper {c.paper}; simulated {c.simulated}")
    print(f"\n{ok}/{len(claims)} claims hold")


def _cmd_systems() -> None:
    from .hw.systems import all_systems

    for system in all_systems():
        print(system.node.describe())
        print(f"    software: {system.software}")


def _cmd_health(ctx: ExecutionContext) -> None:
    from .core.result import CellStatus
    from .hw.selfcheck import node_health
    from .hw.systems import get_system
    from .sim.engine import PerfEngine

    for name in ("aurora", "dawn"):
        if ctx.active:
            engine = ctx.engine(name)
            engine.faults.fast_forward()
            report = node_health(engine)
            if not report.healthy:
                ctx.record(CellStatus.DEGRADED)
        else:
            report = node_health(PerfEngine(get_system(name)))
        print(report.render())
        print()
    from .profiler.selfcheck import profiler_selfcheck

    checks = profiler_selfcheck()
    for check in checks:
        mark = "ok " if check.passed else "FAIL"
        print(f"[{mark}] profiler     {check.name}"
              + (f"  ({check.detail})" if check.detail else ""))
    if not all(check.passed for check in checks):
        ctx.record(CellStatus.DEGRADED)
    print()
    from .campaign.scheduler import scheduler_selfcheck

    sched_checks = scheduler_selfcheck()
    for check in sched_checks:
        mark = "ok " if check.passed else "FAIL"
        print(f"[{mark}] scheduler    {check.name}"
              + (f"  ({check.detail})" if check.detail else ""))
    if not all(check.passed for check in sched_checks):
        ctx.record(CellStatus.DEGRADED)
    print()
    from .service.selfcheck import service_selfcheck

    svc_checks = service_selfcheck()
    for check in svc_checks:
        mark = "ok " if check.passed else "FAIL"
        print(f"[{mark}] service      {check.name}"
              + (f"  ({check.detail})" if check.detail else ""))
    if not all(check.passed for check in svc_checks):
        ctx.record(CellStatus.DEGRADED)
    print()
    print(ctx.telemetry_summary())


def _cmd_selfcheck() -> None:
    from .hw.extensions import frontier, jlse_a100
    from .hw.selfcheck import self_check
    from .hw.systems import all_systems

    ok = total = 0
    for system in all_systems() + [frontier(), jlse_a100()]:
        for check in self_check(system):
            total += 1
            ok += check.passed
            mark = "ok " if check.passed else "FAIL"
            print(f"[{mark}] {system.name:12s} {check.name}"
                  + (f"  ({check.detail})" if check.detail else ""))
    print(f"\n{ok}/{total} checks pass")


def _cmd_scaling() -> None:
    from .analysis.scaling_study import app_scaling, micro_scaling
    from .hw.systems import get_system
    from .sim.engine import PerfEngine
    from .sim.noise import QUIET

    for name in ("aurora", "dawn"):
        engine = PerfEngine(get_system(name), noise=QUIET)
        print(f"# {name}")
        for study in micro_scaling(engine) + app_scaling(engine):
            knee = study.knee(0.9)
            print(
                f"  {study.name:12s} full-node eff {study.full_node_efficiency:6.1%}"
                + (f"  (drops below 90% at {knee} stacks)" if knee else "")
            )


def _cmd_roofline() -> None:
    from .analysis.roofline_data import paper_kernels, roofline_series
    from .dtypes import Precision
    from .hw.systems import get_system
    from .sim.engine import PerfEngine
    from .sim.noise import QUIET

    for name in ("aurora", "dawn", "jlse-h100", "jlse-mi250"):
        engine = PerfEngine(get_system(name), noise=QUIET)
        series = roofline_series(engine, Precision.FP64)
        print(
            f"{name:12s} roof {series.compute_roof / 1e12:6.1f} TFlop/s  "
            f"slope {series.memory_slope / 1e12:5.2f} TB/s  "
            f"ridge {series.ridge_intensity:5.1f} flop/B"
        )
        for point in paper_kernels(engine):
            print(
                f"    {point.name:22s} AI {point.intensity:8.2f}  "
                f"{point.achieved / 1e12:6.2f} TFlop/s  [{point.bound}]"
            )


def _cmd_top500() -> None:
    from .extras.hpcg import HpcgModel, HplModel
    from .hw.systems import get_system
    from .sim.engine import PerfEngine
    from .sim.noise import QUIET

    print(f"{'system':14s} {'HPL/node':>12s} {'HPCG/node':>12s} {'HPCG/HPL':>9s}")
    for name in ("aurora", "dawn", "jlse-h100", "jlse-mi250"):
        engine = PerfEngine(get_system(name), noise=QUIET)
        hpl = HplModel(engine).node_rate()
        hpcg = HpcgModel(engine).node_rate()
        print(
            f"{name:14s} {hpl / 1e12:9.1f} TF {hpcg / 1e12:9.2f} TF"
            f" {hpcg / hpl:8.1%}"
        )


# Commands that honour --inject take the execution context; the rest are
# zero-arg and run exactly as before.
_CTX_COMMANDS = {
    "table2": lambda ctx: _print_bench("table2", ctx),
    "table3": lambda ctx: _print_bench("table3", ctx),
    "table6": lambda ctx: _print_bench("table6", ctx),
    "report": lambda ctx: _print_bench("report", ctx),
    "health": _cmd_health,
}

# Commands that additionally need the parsed args (telemetry runs).
_TELEMETRY_COMMANDS = {
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
}

_COMMANDS = {
    "table1": lambda: _print_bench("table1"),
    "table4": lambda: _print_bench("table4"),
    "table5": lambda: _print_bench("table5"),
    # Figures render through the same text path the campaign result
    # store uses, so campaign artifacts are byte-identical to stdout.
    "fig1": lambda: _print_bench("fig1"),
    "fig2": lambda: _print_bench("fig2"),
    "fig3": lambda: _print_bench("fig3"),
    "fig4": lambda: _print_bench("fig4"),
    "claims": _cmd_claims,
    "systems": _cmd_systems,
    "roofline": _cmd_roofline,
    "top500": _cmd_top500,
    "selfcheck": _cmd_selfcheck,
    "scaling": _cmd_scaling,
}

#: Commands that build no execution context, so never honour --inject
#: (``profile`` is named with its bench).
_IGNORES_INJECT = (
    "loadgen",
    "obs",
    "profile service",
    "profile sweep",
    "serve-bench",
    "service",
    "sweep",
    "trend",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pvc-bench",
        description="Regenerate the paper's tables and figures on the "
        "simulated substrate.",
    )
    parser.add_argument(
        "command",
        choices=sorted(_COMMANDS)
        + sorted(_CTX_COMMANDS)
        + sorted(_TELEMETRY_COMMANDS)
        + ["campaign", "loadgen", "obs", "profile", "serve-bench",
           "service", "sweep", "trend"],
    )
    parser.add_argument(
        "bench",
        nargs="?",
        default="gemm",
        help="benchmark for trace/metrics/profile "
        f"({', '.join(_TELEMETRY_BENCHES)}; default: gemm; profile also "
        "accepts 'smoke', 'full' — the campaign wall-clock/sim-cache "
        "benchmark matrix — 'service' — the daemon storm benchmark — "
        "and 'sweep' — the design-space throughput gate), the campaign "
        "action (run, resume, status, verify, watch), the obs action "
        "(export, serve), the service action (watch), the sweep spec "
        "name or JSON file for 'sweep', or the first baseline file for "
        "trend",
    )
    parser.add_argument(
        "extra",
        nargs="*",
        default=[],
        help="trailing positionals: the run directory for "
        "'campaign watch' / 'obs export' / 'obs serve', or further "
        "baseline files for 'trend'",
    )
    parser.add_argument(
        "--inject",
        metavar="SCENARIO",
        default=None,
        help="inject a deterministic fault scenario "
        f"({', '.join(SCENARIO_NAMES)}; campaign run also accepts "
        f"{', '.join(CAMPAIGN_SCENARIO_NAMES)} and the process-level "
        f"{', '.join(WORKER_SCENARIO_NAMES)})",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the fault schedule (default: 0)",
    )
    parser.add_argument(
        "--system",
        default="aurora",
        help="system for trace/metrics runs (default: aurora)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the Perfetto trace JSON here instead of stdout",
    )
    parser.add_argument(
        "--manifest",
        metavar="PATH",
        default=None,
        help="also write a run manifest (config + metrics + provenance)",
    )
    parser.add_argument(
        "--dir",
        metavar="DIR",
        default=None,
        help="campaign directory (journal, result store, artifacts)",
    )
    parser.add_argument(
        "--spec",
        default="paper",
        choices=sorted(SPEC_NAMES),
        help="campaign spec for 'campaign run' (default: paper)",
    )
    parser.add_argument(
        "--unit-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="per-unit simulated-clock watchdog: units that consume more "
        "simulated seconds are demoted to FAILED",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        default=None,
        help="campaign deadline on the simulated clock: scheduling stops "
        "once exceeded and the run exits resumable (code 3)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=None,
        help="campaign run/resume: execute independent units on N worker "
        "processes (artifacts stay byte-identical to a serial run); "
        "defaults to $CAMPAIGN_JOBS, else 1 (serial); sweep: shard "
        "evaluation chunks across N fork workers",
    )
    parser.add_argument(
        "--max-respawns",
        type=int,
        metavar="N",
        default=None,
        help="campaign run/resume with --jobs > 1: worker respawn budget "
        "before the scheduler degrades to in-process draining "
        "(default: 8)",
    )
    parser.add_argument(
        "--hang-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="campaign run/resume with --jobs > 1: SIGKILL a worker whose "
        "unit produces no heartbeat for this long and treat it as a "
        "crash (default: disabled, except under --inject worker-hang)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attach the API profiler to this run; manifests and campaign "
        "results gain a profile digest",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="profile: compare against this baseline snapshot; a "
        "regression beyond tolerance exits non-zero",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        default=None,
        help="profile: write the run's snapshot as a new baseline",
    )
    parser.add_argument(
        "--flamegraph",
        metavar="PATH",
        default=None,
        help="profile: export a deterministic collapsed-stack file "
        "(flamegraph.pl / speedscope input)",
    )
    parser.add_argument(
        "--top-k",
        type=int,
        metavar="N",
        default=None,
        help="sweep: result rows to keep and rank (default: 16)",
    )
    parser.add_argument(
        "--chunk",
        type=int,
        metavar="POINTS",
        default=None,
        help="sweep: points per evaluation chunk — bounds memory and "
        "sets the sharding granularity (default: 262144)",
    )
    parser.add_argument(
        "--ndjson",
        action="store_true",
        help="sweep: also write every evaluated point to results.ndjson "
        "(one JSON object per line)",
    )
    parser.add_argument(
        "--verify",
        type=int,
        metavar="N",
        default=None,
        help="sweep: sampled points re-evaluated through the scalar "
        "golden reference, which must agree bit for bit (default: 64; "
        "0 disables)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="campaign watch: render one snapshot and exit instead of "
        "following the run",
    )
    parser.add_argument(
        "--interval",
        type=float,
        metavar="SECONDS",
        default=None,
        help="campaign watch: poll interval (default: 0.5)",
    )
    parser.add_argument(
        "--port",
        type=int,
        metavar="N",
        default=None,
        help="obs serve / serve-bench: TCP port to bind (default: "
        "ephemeral); loadgen: the daemon port to target (required)",
    )
    parser.add_argument(
        "--host",
        default=None,
        metavar="HOST",
        help="loadgen: daemon host to target (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        metavar="N",
        default=None,
        help="serve-bench: executor threads pulling from the admission "
        "queue (default: 4)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        metavar="N",
        default=None,
        help="loadgen: total requests to fire (default: 200)",
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        metavar="N",
        default=None,
        help="loadgen: concurrent client connections (default: 16)",
    )
    parser.add_argument(
        "--distinct",
        type=int,
        metavar="N",
        default=None,
        help="loadgen: distinct request bodies in the population "
        "(default: 1 — maximal cache pressure)",
    )
    parser.add_argument(
        "--tenants",
        type=int,
        metavar="N",
        default=None,
        help="loadgen: tenants to spread the request population over "
        "(default: 4)",
    )
    parser.add_argument(
        "--slo-latency",
        type=float,
        metavar="SECONDS",
        default=None,
        help="serve-bench: SLO latency objective — a request slower than "
        "this counts against availability (default: 5.0)",
    )
    parser.add_argument(
        "--slo-availability",
        type=float,
        metavar="FRACTION",
        default=None,
        help="serve-bench: SLO availability objective in (0, 1] "
        "(default: 0.99)",
    )
    args = parser.parse_args(argv)
    needs_telemetry = (
        args.command in _TELEMETRY_COMMANDS
        or args.command == "health"
        or args.manifest is not None
        or args.profile
    )
    if needs_telemetry:
        from .telemetry import Telemetry

        telemetry = Telemetry(profile=args.profile)
    else:
        telemetry = None
    try:
        name = args.command
        if name == "profile":
            name = f"profile {args.bench}"
        if args.inject is not None and name in _IGNORES_INJECT:
            check_scenario(args.inject)
            print(f"pvc-bench: note: {name} ignores --inject", file=sys.stderr)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "campaign":
            from .campaign.orchestrator import campaign_main

            return campaign_main(args)
        if args.command == "serve-bench":
            from .service.daemon import serve_bench_main

            return serve_bench_main(args)
        if args.command == "loadgen":
            from .service.loadgen import loadgen_main

            return loadgen_main(args)
        if args.command == "obs":
            from .errors import CampaignError
            from .obs.export import export_main
            from .obs.serve import serve_main

            if args.bench == "export":
                return export_main(args)
            if args.bench == "serve":
                return serve_main(args)
            raise CampaignError(
                f"unknown obs action {args.bench!r}; "
                "choose from: export, serve"
            )
        if args.command == "service":
            from .errors import CampaignError
            from .obs.watch import service_watch_main

            if args.bench == "watch":
                return service_watch_main(args)
            raise CampaignError(
                f"unknown service action {args.bench!r}; choose from: watch"
            )
        if args.command == "sweep":
            from .sweep.runner import sweep_main

            return sweep_main(args)
        if args.command == "trend":
            from .obs.trend import trend_main

            return trend_main(args)
        from .faults import ExecutionContext

        ctx = ExecutionContext(args.inject, args.seed, telemetry=telemetry)
        if args.command in _TELEMETRY_COMMANDS:
            _TELEMETRY_COMMANDS[args.command](ctx, args)
        elif args.command in _CTX_COMMANDS:
            _CTX_COMMANDS[args.command](ctx)
        else:
            if ctx.active:
                print(
                    f"pvc-bench: note: {args.command} ignores --inject",
                    file=sys.stderr,
                )
            _COMMANDS[args.command]()
        if args.manifest is not None:
            from .telemetry.manifest import write_manifest

            write_manifest(args.manifest, ctx.manifest(args.command))
            print(f"manifest written to {args.manifest}", file=sys.stderr)
    except KeyboardInterrupt:
        print("pvc-bench: interrupted (resumable state flushed)", file=sys.stderr)
        return int(ExitCode.INTERRUPTED)
    except ReproError as exc:
        print(f"pvc-bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return int(classify_error(exc))
    return ctx.exit_code()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
