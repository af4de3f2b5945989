"""Host-time benchmark of ``pvc-bench``.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is a workload of ``BENCHMARK.json`` or ``all``.  Run from the root of
a checkout.  Prints, per workload, every series' median, quartiles,
sample count, tail and warm-up samples, then as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and the ``end_to_end``
metrics of ``BENCHMARK.json`` (``--trace 0``) or its ``per_layer``
metrics (``--trace 1``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from common import ROOT, SRC, RunError
from layers import PER_LAYER
from stats import NonPhysicalSample

#: Workloads that run only when named, not under ``all`` and not in
#: ``BENCHMARK.json``: their figures are too unsteady on a noisy host
#: to gate (see README).
BY_HAND = ("service-mix",)

#: Each workload's figures under their familiar names:
#: (name, unit, series, statistic, scale)
ALIASES = {
    "paper-campaign": (("campaign_s", "s", "op_ms", "median", 1e-3),),
    "design-sweep": (
        ("run_sweep_s", "s", "op_ms", "median", 1e-3),
        ("sweep_points_per_s", "1/s", "sweep_points_per_s", "median", 1.0),
    ),
    "service-mix": (
        ("service_low_p50_ms", "ms", "latency_ms", "median", 1.0),
        ("service_low_tail_ms", "ms", "latency_ms", "tail", 1.0),
    ),
}


def _runner(name: str):
    import closed
    import service

    if name in closed.WORKLOADS:
        return closed.run
    if name == service.WORKLOAD:
        return service.run
    raise RunError(f"no runner for workload {name!r}")


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(outcome, config: dict, trace: bool) -> None:
    """The human-readable block for one workload."""
    print(f"== {outcome.workload} ==")
    print(f"{'series':<22} {'unit':<5} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'n':>4} {'tail':>11} {'pct':>6}  warm-up")
    for series in outcome.series.values():
        s = series.summary()
        if not s["n"]:
            continue
        warm = s["warmup"]
        warm = (", ".join(_fmt(v) for v in warm) or "-" if len(warm) <= 3
                else f"{len(warm)} samples, median "
                f"{_fmt(statistics.median(warm))}")
        print(f"{series.name:<22} {series.unit:<5} {_fmt(s['median']):>11} "
              f"{_fmt(s['q1']):>11} {_fmt(s['q3']):>11} {s['n']:>4} "
              f"{_fmt(s['tail']):>11} {s['tail_pct']:>5.1f}%  {warm}")
    if not trace:
        print("end-to-end:")
        values = outcome.end_to_end()
        for metric in config["end_to_end"]:
            name = metric["name"]
            print(f"  {name:<20} {_fmt(values[name]):>11} {metric['unit']}")
        for alias, unit, series, stat, scale in ALIASES[outcome.workload]:
            value = outcome.series[series].summary()[stat] * scale
            print(f"  {alias:<20} {_fmt(value):>11} {unit}"
                  f"  ({stat} of {series})")
    else:
        print("per-layer (traced run; n/a = layer not reached):")
        for metric in config["per_layer"]:
            value = outcome.per_layer.get(metric["name"])
            print(f"  {metric['name']:<34} {_fmt(value):>11} {metric['unit']}")
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"failed_ratio {outcome.failed}/{outcome.attempted} = {ratio:g}")
    for failure in outcome.failures[:20]:
        print(f"  FAILED {failure}")
    for note in outcome.notes:
        print(f"note: {note}")


def metrics_of(outcome, config: dict, trace: bool) -> dict:
    if trace:
        return {
            m["name"]: {"value": outcome.per_layer.get(m["name"]) or 0.0,
                        "unit": m["unit"]}
            for m in config["per_layer"]
        }
    metrics = {}
    values = outcome.end_to_end()
    for m in config["end_to_end"]:
        value = values.get(m["name"])
        if value is None:
            raise RunError(f"{outcome.workload} measured no {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}; run from "
              "the root of a pvc-bench checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        config = json.load(fh)
    if [m["name"] for m in config["per_layer"]] != [
        name for name, _unit, _better in PER_LAYER
    ]:
        print("perfbench: BENCHMARK.json per_layer differs from "
              "layers.PER_LAYER", file=sys.stderr)
        return 2
    known = [w["name"] for w in config["workloads"]]
    if args.workload == "all":
        names = known
    elif args.workload in known or args.workload in BY_HAND:
        names = [args.workload]
    else:
        parser.error(f"--workload must be one of: all, "
                     f"{', '.join(known + list(BY_HAND))}")

    trace = bool(args.trace)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            outcome = _runner(name)(name, args.seconds, trace, args.seed)
            report(outcome, config, trace)
            correct = correct and not outcome.failed
            attempted += outcome.attempted
            failed += outcome.failed
            for key, value in metrics_of(outcome, config, trace).items():
                metrics[key if len(names) == 1 else f"{name}/{key}"] = value
    except (RunError, NonPhysicalSample) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
