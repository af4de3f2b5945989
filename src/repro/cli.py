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
)

if TYPE_CHECKING:  # pragma: no cover - a command imports what it runs
    from .faults import ExecutionContext

__all__ = ["build_parser", "main"]

#: Benchmarks ``trace``, ``metrics`` and ``profile`` can run.  The plan is
#: long enough (warmup + 30 reps = 32 injector ticks) that every fault
#: scenario's trigger tick falls inside the run.
_TELEMETRY_BENCHES = ("gemm", "triad", "p2p")


def _run_instrumented(ctx: ExecutionContext, args) -> None:
    """Run one benchmark with the full telemetry session attached."""
    from .profiler.driver import run_bench

    result = run_bench(ctx, args.benchmark, args.system)
    best = result.best
    print(
        f"# {args.benchmark} on {args.system} [{result.scope.name}]: "
        f"best {best.work / best.elapsed_s:.4g} {best.unit} "
        f"over {len(result.samples)} samples",
        file=sys.stderr,
    )


def _baseline_gate(args, snapshot) -> int:
    """Write and/or compare a ``profile`` snapshot against a baseline.

    Returns the MEASUREMENT exit code when the comparison regressed
    beyond tolerance, else 0.
    """
    from .profiler.baseline import compare_snapshots, load_baseline, write_baseline

    if args.write_baseline:
        write_baseline(args.write_baseline, snapshot)
        print(f"baseline written to {args.write_baseline}", file=sys.stderr)
    if args.baseline:
        comparison = compare_snapshots(load_baseline(args.baseline), snapshot)
        print(comparison.render(), end="")
        if comparison.regressed:
            return int(ExitCode.MEASUREMENT)
    return 0


def _cmd_profile(args) -> int:
    """``pvc-bench profile <bench>|smoke|full`` — iprof-style summaries.

    Prints one iprof-style report per profiled run; optional riders
    export a collapsed-stack flamegraph, the raw profile documents, and
    write/compare perf-regression baselines (a regression raises the
    exit code to the MEASUREMENT tier).
    """
    from .ioutils import atomic_write_text
    from .profiler.baseline import build_snapshot
    from .profiler.driver import (
        profile_bench,
        profile_campaign_set,
        profile_smoke_set,
    )
    from .profiler.flamegraph import collapsed_stacks

    single = args.benchmark in _TELEMETRY_BENCHES
    campaign_entries: list[dict] = []
    if single:
        runs = [
            profile_bench(
                args.benchmark, args.system, scenario=args.inject, seed=args.seed
            )
        ]
    else:
        runs = profile_smoke_set(scenario=args.inject, seed=args.seed)
        if args.benchmark == "full":
            # The campaign benchmark matrix: wall-clock at jobs 1 and 4
            # plus the sim memo cache's hit rate (a gated field).
            campaign_entries = profile_campaign_set()
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
    code = max(code, _baseline_gate(args, snapshot))
    if single and args.manifest is not None:
        from .telemetry.manifest import write_manifest

        write_manifest(args.manifest, runs[0].ctx.manifest("profile"))
        print(f"manifest written to {args.manifest}", file=sys.stderr)
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

    from .profiler.baseline import build_snapshot
    from .service.loadgen import service_benchmark_entries

    root = tempfile.mkdtemp(prefix="repro-profile-service-")
    try:
        entries = service_benchmark_entries(
            root,
            requests=args.requests,
            concurrency=args.concurrency,
            distinct=args.distinct,
            seed=args.seed,
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for entry in entries:
        print(
            f"{entry['bench']}@{entry['system']}: {entry['completed']}/"
            f"{entry['requests']} done in {entry['wall_s']:.2f}s wall, "
            f"storm p99 {entry['storm_p99_s'] * 1e3:.1f}ms, cache hit "
            f"rate {entry['service_cache_hit_rate']:.1%}"
        )
    return _baseline_gate(args, build_snapshot(entries, tolerance=0.5))


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
    from .profiler.baseline import build_snapshot
    from .sweep.runner import SPEEDUP_FLOOR, sweep_benchmark_entries

    entries = sweep_benchmark_entries(jobs=args.jobs)
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
    return max(code, _baseline_gate(args, snapshot))


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


def _print_bench(ctx: ExecutionContext, args) -> None:
    from .analysis import render_bench

    print(render_bench(args.command, ctx))


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
    from .campaign.scheduler import scheduler_selfcheck
    from .profiler.selfcheck import profiler_selfcheck
    from .service.selfcheck import service_selfcheck

    for label, selfcheck in (
        ("profiler", profiler_selfcheck),
        ("scheduler", scheduler_selfcheck),
        ("service", service_selfcheck),
    ):
        checks = selfcheck()
        for check in checks:
            mark = "ok " if check.passed else "FAIL"
            print(f"[{mark}] {label:12s} {check.name}"
                  + (f"  ({check.detail})" if check.detail else ""))
        if not all(check.passed for check in checks):
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


def _run_in_context(args) -> int:
    """Run a command's body in an execution context; write any manifest."""
    from .faults import ExecutionContext

    telemetry = None
    if (
        args.command in ("health", "metrics", "trace")
        or args.manifest is not None
        or args.profile
    ):
        from .telemetry import Telemetry

        telemetry = Telemetry(profile=args.profile)
    ctx = ExecutionContext(args.inject, args.seed, telemetry=telemetry)
    args.body(ctx, args)
    if args.manifest is not None:
        from .telemetry.manifest import write_manifest

        write_manifest(args.manifest, ctx.manifest(args.command))
        print(f"manifest written to {args.manifest}", file=sys.stderr)
    return ctx.exit_code()


def _entry(args) -> int:
    """Run a command family's entry point, imported only now."""
    if args.command == "sweep":
        from .sweep.runner import sweep_main as run
    elif args.command == "trend":
        from .obs.trend import trend_main as run
    elif args.command == "serve-bench":
        from .service.daemon import serve_bench_main as run
    elif args.command == "loadgen":
        from .service.loadgen import loadgen_main as run
    elif args.command == "service":
        from .obs.watch import service_watch_main as run
    elif args.action == "watch":
        from .obs.watch import watch_main as run
    elif args.command == "campaign":
        from .campaign.orchestrator import campaign_main as run
    elif args.action == "export":
        from .obs.export import export_main as run
    else:
        from .obs.serve import serve_main as run
    return run(args)


#: Commands that run in an execution context: name -> (body, whether it
#: honours --inject, help).  A body takes the context and the args.
_CONTEXT_COMMANDS = {
    "table1": (_print_bench, False, "Table I: the microbenchmark summary"),
    "table2": (_print_bench, True, "Table II: microbenchmark results"),
    "table3": (_print_bench, True, "Table III: stack-to-stack P2P"),
    "table4": (_print_bench, False, "Table IV: reference GPUs"),
    "table5": (_print_bench, False, "Table V: mini-app descriptions"),
    "table6": (_print_bench, True, "Table VI: mini-app / application FOMs"),
    "report": (_print_bench, True, "the full markdown comparison report"),
    # Figures render through the same text path the campaign result
    # store uses, so campaign artifacts are byte-identical to stdout.
    "fig1": (_print_bench, False, "Figure 1: memory-latency curves"),
    "fig2": (_print_bench, False, "Figure 2: Aurora FOMs relative to Dawn"),
    "fig3": (_print_bench, False, "Figure 3: FOMs relative to JLSE-H100"),
    "fig4": (_print_bench, False, "Figure 4: FOMs relative to JLSE-MI250"),
    "claims": (lambda ctx, args: _cmd_claims(), False,
               "every checked prose claim"),
    "systems": (lambda ctx, args: _cmd_systems(), False, "node inventories"),
    "roofline": (lambda ctx, args: _cmd_roofline(), False,
                 "per-system rooflines with the paper's kernels placed"),
    "top500": (lambda ctx, args: _cmd_top500(), False,
               "HPL/HPCG node models"),
    "selfcheck": (lambda ctx, args: _cmd_selfcheck(), False,
                  "structural self-checks of every system"),
    "scaling": (lambda ctx, args: _cmd_scaling(), False,
                "per-stack scaling studies"),
    "health": (lambda ctx, args: _cmd_health(ctx), True,
               "node, profiler, scheduler and service health"),
    "trace": (_cmd_trace, True, "one benchmark as a Perfetto timeline"),
    "metrics": (_cmd_metrics, True,
                "one benchmark as a Prometheus text scrape"),
}


def _ranged(convert, ok, rule: str):
    """An argparse ``type`` that converts, then enforces ``ok(value)``."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in errors
    return parse


_AT_LEAST_1 = _ranged(int, lambda v: v >= 1, "must be >= 1")
_AT_LEAST_0 = _ranged(int, lambda v: v >= 0, "must be >= 0")
_PORT = _ranged(int, lambda v: 0 <= v <= 65535, "must be in 0..65535")
_POSITIVE = _ranged(
    float, lambda v: 0 < v < float("inf"), "must be a finite number > 0"
)
_FRACTION = _ranged(float, lambda v: 0 < v < 1, "must be in (0, 1)")


def _command(family, name: str, help_text: str, run):
    """Register one command under *family*, dispatching to *run(args)*."""
    sub = family.add_parser(name, help=help_text, description=help_text)
    sub.set_defaults(run=run)
    return sub


def _add_counts(sub, *rows) -> None:
    """Integer flags that must be >= 1, from ``(flag, default, help)``."""
    for flag, default, text in rows:
        sub.add_argument(
            flag, type=_AT_LEAST_1, default=default, metavar="N",
            help=f"{text} (default: %(default)s)",
        )


def _add_seed(sub, what: str) -> None:
    sub.add_argument(
        "--seed", type=int, default=0,
        help=f"seed for the {what} (default: %(default)s)",
    )


def _add_inject(sub, scenarios: str) -> None:
    sub.add_argument(
        "--inject",
        metavar="SCENARIO",
        help=f"inject a deterministic fault scenario ({scenarios})",
    )
    _add_seed(sub, "fault schedule")


def _add_manifest(sub) -> None:
    sub.add_argument(
        "--manifest", metavar="PATH",
        help="also write a run manifest (config + metrics + provenance)",
    )


def _add_baseline(sub) -> None:
    sub.add_argument(
        "--baseline", metavar="PATH",
        help="compare against this baseline snapshot; a regression "
        "beyond tolerance exits non-zero",
    )
    sub.add_argument(
        "--write-baseline", metavar="PATH",
        help="write the run's snapshot as a new baseline",
    )


def _add_rundir(sub, what: str):
    """A directory given positionally or as ``--dir``, never both."""
    where = sub.add_mutually_exclusive_group()
    where.add_argument(
        "dir", nargs="?", metavar="DIR", default=argparse.SUPPRESS, help=what
    )
    where.add_argument("--dir", metavar="DIR", help="the same, as a flag")
    return where


def _add_follow(sub, what: str) -> None:
    sub.add_argument(
        "--interval", type=_POSITIVE, default=0.5, metavar="SECONDS",
        help="poll interval (default: %(default)s)",
    )
    sub.add_argument(
        "--once", action="store_true",
        help=f"render one snapshot and exit instead of following the {what}",
    )


def _add_campaign(commands) -> None:
    campaign = commands.add_parser(
        "campaign", help="crash-safe campaigns (journal + checkpoint/resume)"
    )
    actions = campaign.add_subparsers(
        dest="action", metavar="ACTION", required=True
    )
    run, resume, status, verify = (
        _command(actions, name, text, _entry)
        for name, text in (
            ("run", "start a campaign in --dir"),
            ("resume", "finish an interrupted campaign"),
            ("status", "per-unit progress"),
            ("verify", "prove journal and store integrity"),
        )
    )
    for sub in (run, resume, status, verify):
        sub.add_argument(
            "--dir", metavar="DIR",
            help="campaign directory (journal, result store, artifacts)",
        )
    run.add_argument(
        "--spec", default="paper", choices=sorted(SPEC_NAMES),
        help="campaign spec (default: %(default)s)",
    )
    _add_inject(
        run,
        f"{', '.join(SCENARIO_NAMES)}; the campaign "
        f"{', '.join(CAMPAIGN_SCENARIO_NAMES)}; or the process-level "
        f"{', '.join(WORKER_SCENARIO_NAMES)}",
    )
    run.add_argument(
        "--profile", action="store_true",
        help="attach the API profiler; unit results gain a profile digest",
    )
    for sub in (run, resume):
        sub.add_argument(
            "--unit-timeout", type=_POSITIVE, metavar="SECONDS",
            help="per-unit simulated-clock watchdog: units that consume "
            "more simulated seconds are demoted to FAILED",
        )
        sub.add_argument(
            "--deadline", type=_POSITIVE, metavar="SECONDS",
            help="campaign deadline on the simulated clock: scheduling "
            "stops once exceeded and the run exits resumable (code 3)",
        )
        sub.add_argument(
            "--jobs", type=_AT_LEAST_1, metavar="N",
            help="execute independent units on N worker processes "
            "(artifacts stay byte-identical to a serial run); defaults "
            "to $CAMPAIGN_JOBS, else 1 (serial)",
        )
        sub.add_argument(
            "--max-respawns", type=_AT_LEAST_0, metavar="N",
            help="with --jobs > 1: worker respawn budget before the "
            "scheduler degrades to in-process draining (default: 8)",
        )
        sub.add_argument(
            "--hang-timeout", type=_POSITIVE, metavar="SECONDS",
            help="with --jobs > 1: SIGKILL a worker whose unit produces "
            "no heartbeat for this long and treat it as a crash "
            "(default: disabled, except under --inject worker-hang)",
        )
    watch = _command(actions, "watch", "live campaign status board",
                     _entry)
    _add_rundir(watch, "campaign directory to watch")
    _add_follow(watch, "run")


def _add_profile(commands) -> None:
    profile = commands.add_parser(
        "profile", help="API profiles, roofline attribution, baseline gates"
    )
    benches = profile.add_subparsers(
        dest="benchmark", metavar="BENCH", required=True
    )
    sets = {
        "smoke": "every benchmark on both smoke systems",
        "full": "the smoke set plus the campaign wall-clock/sim-cache matrix",
    }
    for name in _TELEMETRY_BENCHES + tuple(sets):
        sub = _command(
            benches, name, sets.get(name, f"profile one {name} run"),
            _cmd_profile,
        )
        if name in _TELEMETRY_BENCHES:
            sub.add_argument(
                "--system", default="aurora",
                help="system to run on (default: %(default)s)",
            )
            _add_manifest(sub)
        _add_inject(sub, ", ".join(SCENARIO_NAMES))
        sub.add_argument(
            "--out", metavar="PATH", help="write the raw profile documents here"
        )
        sub.add_argument(
            "--flamegraph", metavar="PATH",
            help="export a deterministic collapsed-stack file "
            "(flamegraph.pl / speedscope input)",
        )
        _add_baseline(sub)
    service = _command(
        benches, "service", "the daemon storm benchmark (p99 + cache hits)",
        _cmd_profile_service,
    )
    _add_counts(
        service,
        ("--requests", 64, "storm requests"),
        ("--concurrency", 8, "concurrent client connections"),
        ("--distinct", 4, "distinct request bodies"),
    )
    _add_seed(service, "request population")
    _add_baseline(service)
    sweep = _command(
        benches, "sweep", "the design-space throughput gate",
        _cmd_profile_sweep,
    )
    _add_counts(sweep, ("--jobs", 1, "fork workers for the sweep"))
    _add_baseline(sweep)


def _add_tools(commands) -> None:
    """The obs, trend, sweep, serve-bench, loadgen and service commands."""
    obs = commands.add_parser(
        "obs", help="export or serve a run directory's event streams"
    )
    actions = obs.add_subparsers(dest="action", metavar="ACTION", required=True)
    export = _command(
        actions, "export", "Perfetto timeline of a campaign, sweep or "
        "service state directory", _entry,
    )
    _add_rundir(export, "directory to export")
    export.add_argument(
        "--out", metavar="PATH",
        help="write the trace JSON here instead of stdout",
    )
    serve = _command(
        actions, "serve", "OpenMetrics exporter for a run directory",
        _entry,
    )
    _add_rundir(serve, "directory to serve")
    serve.add_argument(
        "--port", type=_PORT, default=0, metavar="N",
        help="TCP port to bind (default: %(default)s, ephemeral)",
    )
    trend = _command(commands, "trend", "cross-run perf analytics", _entry)
    trend.add_argument(
        "baselines", nargs="+", metavar="BASELINE",
        help="baseline snapshots (BENCH_*.json), oldest first",
    )
    sweep = _command(
        commands, "sweep", "design-space sweep through the batch engine",
        _entry,
    )
    sweep.add_argument(
        "spec", help="builtin sweep spec name (smoke, ci, million, "
        "bude-tune, mix) or a JSON spec file",
    )
    sweep.add_argument(
        "--dir", metavar="DIR",
        help="write sweep.json and topk.ndjson here",
    )
    _add_counts(
        sweep,
        ("--top-k", 16, "result rows to keep and rank"),
        ("--chunk", 262_144, "points per evaluation chunk; bounds memory "
         "and sets the sharding granularity"),
        ("--jobs", 1, "fork workers sharing the evaluation chunks"),
    )
    sweep.add_argument(
        "--ndjson", action="store_true",
        help="also write every evaluated point to results.ndjson "
        "(one JSON object per line)",
    )
    sweep.add_argument(
        "--verify", type=_AT_LEAST_0, default=64, metavar="N",
        help="sampled points re-evaluated through the scalar golden "
        "reference, which must agree bit for bit (default: %(default)s; "
        "0 disables)",
    )
    serve_bench = _command(
        commands, "serve-bench", "serve the reproduction as a daemon "
        "(SIGTERM drains)", _entry,
    )
    serve_bench.add_argument(
        "--dir", metavar="DIR", help="service state directory (required)"
    )
    serve_bench.add_argument(
        "--port", type=_PORT, default=0, metavar="N",
        help="TCP port to bind (default: %(default)s, ephemeral)",
    )
    _add_counts(serve_bench, (
        "--workers", 4, "executor threads pulling from the admission queue"
    ))
    serve_bench.add_argument(
        "--slo-latency", type=_POSITIVE, default=5.0, metavar="SECONDS",
        help="SLO latency objective: a request slower than this counts "
        "against availability (default: %(default)s)",
    )
    serve_bench.add_argument(
        "--slo-availability", type=_FRACTION, default=0.99,
        metavar="FRACTION",
        help="SLO availability objective in (0, 1) (default: %(default)s)",
    )
    loadgen = _command(
        commands, "loadgen", "fire a request population at a daemon",
        _entry,
    )
    loadgen.add_argument(
        "--port", type=_PORT, metavar="N",
        help="the daemon port to target (required)",
    )
    loadgen.add_argument(
        "--host", default="127.0.0.1",
        help="daemon host to target (default: %(default)s)",
    )
    _add_counts(
        loadgen,
        ("--requests", 200, "total requests to fire"),
        ("--concurrency", 16, "concurrent client connections"),
        ("--distinct", 1, "distinct request bodies in the population "
         "(1 is maximal cache pressure)"),
        ("--tenants", 4, "tenants to spread the population over"),
    )
    _add_seed(loadgen, "request population")
    loadgen.add_argument(
        "--deadline", type=_POSITIVE, metavar="SECONDS",
        help="per-request deadline sent with every request",
    )
    service = commands.add_parser("service", help="service observability")
    actions = service.add_subparsers(
        dest="action", metavar="ACTION", required=True
    )
    watch = _command(
        actions, "watch", "live (--port) or offline (DIR) service board",
        _entry,
    )
    _add_rundir(watch, "service state directory to fold offline").add_argument(
        "--port", type=_PORT, metavar="N", help="live daemon port to scrape"
    )
    watch.add_argument(
        "--host", default="127.0.0.1",
        help="live daemon host (default: %(default)s)",
    )
    _add_follow(watch, "service")


def build_parser() -> argparse.ArgumentParser:
    """The ``pvc-bench`` grammar, one subparser per command family.

    A command accepts exactly the flags its handler reads; each flag's
    range and default are written here once.  Building the parser
    imports no subsystem, and parsing runs nothing.
    """
    parser = argparse.ArgumentParser(
        prog="pvc-bench",
        description="Regenerate the paper's tables and figures on the "
        "simulated substrate.",
        epilog="Run 'pvc-bench COMMAND --help' for the flags a command "
        "accepts.",
    )
    commands = parser.add_subparsers(
        dest="command", metavar="COMMAND", required=True
    )
    for name, (body, injects, text) in _CONTEXT_COMMANDS.items():
        sub = _command(commands, name, text, _run_in_context)
        sub.set_defaults(body=body)
        if name in ("trace", "metrics"):
            sub.add_argument(
                "benchmark", nargs="?", default="gemm", metavar="BENCH",
                help=f"{', '.join(_TELEMETRY_BENCHES)} "
                "(default: %(default)s)",
            )
            sub.add_argument(
                "--system", default="aurora",
                help="system to run on (default: %(default)s)",
            )
        if name == "trace":
            sub.add_argument(
                "--out", metavar="PATH",
                help="write the Perfetto trace JSON here instead of stdout",
            )
        if injects:
            _add_inject(sub, ", ".join(SCENARIO_NAMES))
        else:
            sub.set_defaults(inject=None, seed=0)
        _add_manifest(sub)
        sub.add_argument(
            "--profile", action="store_true",
            help="attach the API profiler; the manifest gains a profile "
            "digest",
        )
    _add_profile(commands)
    _add_campaign(commands)
    _add_tools(commands)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except KeyboardInterrupt:
        print("pvc-bench: interrupted (resumable state flushed)", file=sys.stderr)
        return int(ExitCode.INTERRUPTED)
    except ReproError as exc:
        print(f"pvc-bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return int(classify_error(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
