"""One fresh interpreter doing one unit of work, as a user's command does.

    python3 perfbench/child.py campaign|campaign-jobs2|sweep --dir D
        [--trace-out F] [--dump F]
    python3 perfbench/child.py serve --trace-out F [--dump F] -- ARGS...

The work modes import ``repro.cli`` (the import graph ``pvc-bench``
pays), build the entry point's inputs, print ``ready`` on stdout, run
the operation once and print one JSON line with its clock readings and
peak RSS.  ``serve`` runs ``pvc-bench ARGS`` (the daemon) with the
same import timing.  With ``--trace-out`` the layer wrappers of
:mod:`spans` are installed first and their totals are written there
(``--dump`` adds a Perfetto span file).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

MODES = ("campaign", "campaign-jobs2", "sweep", "serve")


def _protocol_out():
    """Keep the protocol lines apart from anything the program prints."""
    out = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    sys.stdout = sys.stderr
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-child")
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--dir")
    parser.add_argument("--trace-out")
    parser.add_argument("--dump")
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    rest = argv[split + 1:]
    out = _protocol_out()

    import_start = time.perf_counter_ns()
    import repro.cli

    import_end = time.perf_counter_ns()
    recorder = None
    if args.trace_out:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)

    result: dict = {"import_ns": [import_start, import_end]}
    if args.mode == "serve":
        result["exit"] = repro.cli.main(rest)
    elif args.mode == "sweep":
        from repro.sweep.runner import run_sweep
        from repro.sweep.spec import load_sweep_spec

        spec = load_sweep_spec("ci")
        print("ready", file=out)
        start = time.perf_counter_ns()
        outcome = run_sweep(spec, out_dir=args.dir, jobs=1)
        end = time.perf_counter_ns()
        result.update(op_ns=[start, end], exit=0,
                      eval_wall_s=outcome.summary["eval_wall_s"],
                      points=outcome.summary["points"])
    else:
        from repro.campaign.orchestrator import Orchestrator
        from repro.campaign.spec import get_spec

        orch = Orchestrator(
            args.dir,
            spec=get_spec("paper"),
            jobs=2 if args.mode == "campaign-jobs2" else 1,
        )
        print("ready", file=out)
        start = time.perf_counter_ns()
        code = orch.run()
        end = time.perf_counter_ns()
        result.update(op_ns=[start, end], exit=int(code))

    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        window = result.get("op_ns")
        if window is None:
            # The daemon's timed window, written by the load generator
            # before it stopped the daemon.
            with open(args.trace_out + ".window", encoding="utf-8") as fh:
                window = json.load(fh)
        result["layers"] = recorder.totals(*window)
        result["missing"] = recorder.missing
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        if args.dump:
            recorder.write_perfetto(args.dump, f"perfbench {args.mode}")
    print(json.dumps(result), file=out)
    return 0 if result["exit"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
