"""CLI smoke tests (every subcommand)."""

import importlib

import pytest

from repro.cli import main


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
        calls = []

        def stub(*args, **kwargs):
            calls.append(args)
            return [] if entry.endswith("_entries") else 0

        monkeypatch.setattr(importlib.import_module(module), entry, stub)
        # An unknown scenario is a usage error; the command never runs.
        assert main(argv + ["--inject", "bogus"]) == 2
        assert capsys.readouterr().err.startswith(
            "pvc-bench: ScenarioError: unknown fault scenario 'bogus'"
        )
        assert calls == []
        # A valid one runs the command, with a note that it is ignored.
        assert main(argv + ["--inject", "device-loss"]) == 0
        name = " ".join(argv) if argv[0] == "profile" else argv[0]
        assert capsys.readouterr().err.splitlines()[0] == (
            f"pvc-bench: note: {name} ignores --inject"
        )
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

    def test_inject_ignored_command_warns(self, capsys):
        assert main(["table4", "--inject", "throttle"]) == 0
        captured = capsys.readouterr()
        assert "ignores --inject" in captured.err
