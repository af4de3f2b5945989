"""CLI smoke tests (every subcommand) and the grammar's strictness."""

import glob
import importlib
import os
import re
import shlex

import pytest

from repro.cli import build_parser, main


class TestCli:
    @pytest.mark.parametrize(
        "command",
        [
            "table1",
            "table3",
            "table4",
            "table5",
            "fig2",
            "claims",
            "systems",
            "roofline",
            "top500",
        ],
    )
    def test_command_runs(self, command, capsys):
        assert main([command]) == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_table2_prints_paper_rows(self, capsys):
        main(["table2"])
        out = capsys.readouterr().out
        assert "Double Precision Peak Flops" in out
        assert "Aurora (PVC) / Six PVC" in out
        assert "17 TFlop/s" in out

    def test_table6_prints_foms(self, capsys):
        main(["table6"])
        out = capsys.readouterr().out
        assert "miniBUDE" in out and "HACC" in out

    def test_claims_all_pass(self, capsys):
        main(["claims"])
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_fig1_prints_series(self, capsys):
        main(["fig1"])
        out = capsys.readouterr().out
        assert "# aurora" in out and "cycles" in out

    def test_fig3_marks_minibude_deviation(self, capsys):
        main(["fig3"])
        out = capsys.readouterr().out
        assert "[deviates]" in out  # miniBUDE beats its expected bar
        assert "[as expected]" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["table9"])


#: Commands that build no execution context, each with the entry point
#: it dispatches to (stubbed, so the test runs none of them).
_CONTEXT_FREE = [
    (["sweep", "ci"], "repro.sweep.runner", "sweep_main"),
    (["trend", "a.json"], "repro.obs.trend", "trend_main"),
    (["obs", "export"], "repro.obs.export", "export_main"),
    (["service", "watch"], "repro.obs.watch", "service_watch_main"),
    (["loadgen"], "repro.service.loadgen", "loadgen_main"),
    (["serve-bench"], "repro.service.daemon", "serve_bench_main"),
    (["profile", "sweep"], "repro.sweep.runner", "sweep_benchmark_entries"),
    (["profile", "service"], "repro.service.loadgen",
     "service_benchmark_entries"),
]


def _stub(monkeypatch, module, entry):
    """Replace ``module.entry`` by a recorder; returns its call list."""
    calls = []

    def stub(*args, **kwargs):
        calls.append(args)
        return [] if entry.endswith("_entries") else 0

    monkeypatch.setattr(importlib.import_module(module), entry, stub)
    return calls


def _usage_error(argv, capsys) -> str:
    """Parse *argv*; it must be a usage error.  Returns stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    return err


#: Invocations the grammar rejects, each with the entry point it would
#: otherwise reach: a flag the command does not read, a stray
#: positional, an out-of-range value, or a run directory given twice.
_REJECTED = [
    (["systems", "--jobs", "4", "--port", "9", "--slo-availability", "2.0"],
     "repro.hw.systems", "all_systems"),
    (["table1", "bogus", "x", "y"], "repro.analysis", "render_bench"),
    (["table2", "--jobs", "-3"], "repro.analysis", "render_bench"),
    (["campaign", "status", "--dir", "D", "--interval", "-1"],
     "repro.campaign.orchestrator", "campaign_main"),
    (["sweep", "ci", "--chunk", "0"], "repro.sweep.runner", "sweep_main"),
    (["sweep", "ci", "--top-k", "0"], "repro.sweep.runner", "sweep_main"),
    (["sweep", "ci", "--jobs", "0"], "repro.sweep.runner", "sweep_main"),
    (["serve-bench", "--slo-availability", "0"],
     "repro.service.daemon", "serve_bench_main"),
    (["serve-bench", "--slo-availability", "1.0"],
     "repro.service.daemon", "serve_bench_main"),
    (["serve-bench", "--slo-availability", "2.0"],
     "repro.service.daemon", "serve_bench_main"),
    (["campaign", "watch", "A", "--dir", "B"], "repro.obs.watch", "watch_main"),
    (["table2", "--inject", "device-loss", "--jobs", "2"],
     "repro.analysis", "render_bench"),
    (["profile", "smoke", "--manifest", "m.json"],
     "repro.profiler.driver", "profile_smoke_set"),
]


class TestRejectedInput:
    @pytest.mark.parametrize(
        "argv, module, entry", _REJECTED, ids=[" ".join(r[0]) for r in _REJECTED]
    )
    def test_usage_error_runs_nothing(
        self, argv, module, entry, monkeypatch, capsys
    ):
        calls = _stub(monkeypatch, module, entry)
        _usage_error(argv, capsys)
        assert calls == []


class TestFaultInjectionCli:
    @pytest.mark.parametrize(
        "argv, module, entry",
        _CONTEXT_FREE,
        ids=["-".join(c[0][:2]) if c[0][0] == "profile" else c[0][0]
             for c in _CONTEXT_FREE],
    )
    def test_context_free_command_checks_inject(
        self, argv, module, entry, monkeypatch, capsys
    ):
        calls = _stub(monkeypatch, module, entry)
        # --inject is not in these commands' grammar: a usage error for
        # an unknown scenario and a valid one alike; the command never runs.
        for scenario in ("bogus", "device-loss"):
            err = _usage_error(argv + ["--inject", scenario], capsys)
            assert "unrecognized arguments: --inject" in err
        assert calls == []
        # Without it the command runs.
        assert main(argv) == 0
        assert len(calls) == 1

    def test_device_loss_degrades_but_completes(self, capsys):
        # Acceptance: the full suite completes, affected cells are marked
        # DEGRADED with provenance, and the exit code is 1 — no traceback.
        assert main(["table2", "--inject", "device-loss", "--seed", "0"]) == 1
        out = capsys.readouterr().out
        assert "DEGRADED" in out
        assert "fault provenance:" in out
        assert "Double Precision Peak Flops" in out  # table still rendered

    def test_injected_run_is_deterministic(self, capsys):
        assert main(["table3", "--inject", "plane-outage", "--seed", "0"]) == 1
        first = capsys.readouterr().out
        assert main(["table3", "--inject", "plane-outage", "--seed", "0"]) == 1
        second = capsys.readouterr().out
        assert first == second

    def test_plane_outage_changes_table3_cells(self, capsys):
        main(["table3"])
        clean = capsys.readouterr().out
        main(["table3", "--inject", "plane-outage", "--seed", "0"])
        faulted = capsys.readouterr().out
        # Values change (rerouted traffic), not just annotations.
        clean_cells = [l.split("*")[0].rstrip() for l in clean.splitlines()]
        faulted_cells = [
            l.split("*")[0].rstrip()
            for l in faulted.splitlines()[: len(clean_cells)]
        ]
        assert clean_cells != faulted_cells

    def test_partition_fails_cells_exit_2(self, capsys):
        assert main(["table3", "--inject", "partition", "--seed", "0"]) == 2
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "TopologyError" in out

    def test_unknown_scenario_one_line_diagnosis(self, capsys):
        assert main(["table2", "--inject", "meteor-strike"]) == 2
        captured = capsys.readouterr()
        assert "pvc-bench: ScenarioError:" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_clean_run_unchanged_by_flag_defaults(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "fault provenance" not in out

    def test_health_clean(self, capsys):
        assert main(["health"]) == 0
        out = capsys.readouterr().out
        assert "verdict: HEALTHY" in out

    def test_health_under_injection(self, capsys):
        assert main(["health", "--inject", "device-loss", "--seed", "0"]) == 1
        out = capsys.readouterr().out
        assert "verdict: DEGRADED" in out
        assert "fault history" in out

    def test_inject_rejected_where_unused(self, capsys):
        # table4 renders no faultable cell, so it takes no --inject.
        err = _usage_error(["table4", "--inject", "throttle"], capsys)
        assert "unrecognized arguments: --inject throttle" in err


_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

#: Where ``pvc-bench`` invocations are quoted: the README, CI, the
#: verify notes (``SKILL.md``) and every page under ``docs/``.
_DOCUMENTED = (
    ["README.md", ".github/workflows/ci.yml"]
    + sorted(
        os.path.relpath(path, _ROOT)
        for pattern in (".*/skills/verify/SKILL.md", "docs/*.md")
        for path in glob.glob(os.path.join(_ROOT, pattern))
    )
)

#: An invocation's argument text: ``pvc-bench ARGS`` at the start of a
#: command (after ``run:``, ``!`` or ``VAR=value`` prefixes), or
#: ``python ... -m repro.cli ARGS`` anywhere.
_INVOCATION = re.compile(
    r"^(?:run:\s*|!\s*|\w+=\S*\s+)*pvc-bench\s+(.*)$|-m\s+repro\.cli\s+(.*)$",
    re.S,
)

#: Shell tokens that end an invocation's arguments.
_SHELL_STOP = re.compile(r"^(?:\||\|\||&&?|;|\)|[0-9]?>.*|<.*|\$\(.*)$")


def _commands(rel, text):
    """``(line, text)`` of every command a document shows.

    Markdown: each code-block line (backslash continuations joined) and
    each inline code span.  CI: each script line, continuations joined.
    """
    lines = text.split("\n")
    if rel.endswith(".md"):
        code, prose, fenced = [], [], False
        for line in lines:
            fence = line.lstrip().startswith("```")
            fenced ^= fence
            code.append(line if fenced and not fence else "")
            prose.append("" if fenced or fence else line)
        prose_text = "\n".join(prose)
        for span in re.finditer(r"`([^`]+)`", prose_text):
            lineno = prose_text.count("\n", 0, span.start()) + 1
            yield lineno, " ".join(span.group(1).split())
        lines = code
    start, logical = None, ""
    for lineno, line in enumerate(lines, start=1):
        start = start or lineno
        if line.endswith("\\"):
            logical += line[:-1] + " "
            continue
        yield start, logical + line
        start, logical = None, ""


def _documented_invocations():
    """Every quoted invocation as ``(where, argv)``; argv None if skipped.

    Arguments end at the first shell operator or comment.  A command
    holding a ``<placeholder>`` or an ellipsis is skipped.
    """
    found = []
    for rel in _DOCUMENTED:
        with open(os.path.join(_ROOT, rel), encoding="utf-8") as fh:
            text = fh.read()
        for lineno, command in _commands(rel, text):
            match = _INVOCATION.search(command.strip())
            if match is None:
                continue
            rest = match.group(1) or match.group(2)
            if re.search(r"<[A-Za-z][\w.-]*>|…", command):
                found.append((f"{rel}:{lineno}", None))
                continue
            argv = []
            for token in shlex.split(rest, comments=True):
                if _SHELL_STOP.match(token):
                    break
                argv.append(token)
            found.append((f"{rel}:{lineno}", argv))
    return found


class TestDocumentedInvocations:
    def test_every_documented_invocation_parses(self, capsys):
        parsed = skipped = 0
        for where, argv in _documented_invocations():
            if argv is None:
                skipped += 1
                continue
            try:
                build_parser().parse_args(argv)
            except SystemExit as exc:  # --help exits 0 once parsed
                if exc.code != 0:
                    pytest.fail(f"{where}: pvc-bench {shlex.join(argv)} "
                                f"does not parse:\n{capsys.readouterr().err}")
            parsed += 1
        # A placeholder line is a deliberate skip: count them, so a new
        # skip is noticed, and make sure the collector found the rest.
        assert (parsed, skipped) == (182, 14)
