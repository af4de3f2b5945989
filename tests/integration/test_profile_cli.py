"""End-to-end profiling: the profile command, baselines, riders.

Acceptance contract (ISSUE 4): ``pvc-bench profile gemm --system
aurora`` prints deterministic iprof-style tables with roofline
attribution, byte-identical across two same-seed runs; the baseline
comparator exits non-zero on an injected slowdown; ``--profile``
campaign manifests embed profile digests that survive crash/resume
byte-identically.
"""

import json

import pytest

from repro.cli import main

_PROFILE_ARGS = ["profile", "gemm", "--system", "aurora"]


def _run(capsys, args):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out


class TestProfileCommand:
    def test_report_is_byte_identical_across_runs(self, capsys):
        rc1, out1 = _run(capsys, _PROFILE_ARGS)
        rc2, out2 = _run(capsys, _PROFILE_ARGS)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_report_has_iprof_sections_and_attribution(self, capsys):
        _, out = _run(capsys, _PROFILE_ARGS)
        for section in (
            "BACKEND_ZE | Host profiling",
            "BACKEND_SYCL | Host profiling",
            "Device profiling",
            "Explicit memory traffic",
            "Kernel roofline attribution",
        ):
            assert section in out, section
        assert "gemm-fp64" in out
        assert "compute" in out
        assert "Time(%)" in out and "Calls" in out

    def test_unknown_bench_fails_cleanly(self, capsys):
        # The parser offers each benchmark as a subcommand: a usage error.
        with pytest.raises(SystemExit) as exc:
            main(["profile", "hpl"])
        assert exc.value.code == 2
        assert "invalid choice: 'hpl'" in capsys.readouterr().err

    def test_faulted_profile_degrades_not_crashes(self, capsys):
        rc, out = _run(
            capsys,
            _PROFILE_ARGS + ["--inject", "device-loss", "--seed", "7"],
        )
        assert rc == 1
        assert "Kernel roofline attribution" in out


class TestBaselineGate:
    @pytest.fixture()
    def baseline(self, tmp_path, capsys):
        path = tmp_path / "BENCH_0.json"
        rc = main(_PROFILE_ARGS + ["--write-baseline", str(path)])
        capsys.readouterr()
        assert rc == 0
        return path

    def test_self_comparison_passes(self, baseline, capsys):
        rc, out = _run(capsys, _PROFILE_ARGS + ["--baseline", str(baseline)])
        assert rc == 0
        assert "verdict: OK" in out

    def test_injected_slowdown_exits_nonzero(self, baseline, capsys):
        doc = json.loads(baseline.read_text())
        entry = doc["entries"]["gemm@aurora"]
        entry["fom"] *= 1.10  # pretend the baseline was 10% faster
        baseline.write_text(json.dumps(doc))
        rc, out = _run(capsys, _PROFILE_ARGS + ["--baseline", str(baseline)])
        assert rc == 1
        assert "regressed" in out
        assert "verdict: REGRESSED" in out

    def test_committed_baseline_matches_smoke_set(self, capsys):
        # The repo-root BENCH_0.json is the CI gate; it must stay in
        # sync with the current model constants.
        rc, out = _run(capsys, ["profile", "smoke", "--baseline", "BENCH_0.json"])
        assert rc == 0, out
        assert "verdict: OK" in out


class TestRiders:
    def test_flamegraph_export_is_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.collapsed", tmp_path / "b.collapsed"
        assert main(_PROFILE_ARGS + ["--flamegraph", str(a)]) == 0
        assert main(_PROFILE_ARGS + ["--flamegraph", str(b)]) == 0
        capsys.readouterr()
        body = a.read_text()
        assert body == b.read_text()
        lines = body.splitlines()
        assert lines == sorted(lines)
        assert all(line.startswith("gemm@aurora;") for line in lines)
        assert any("gemm-fp64" in line for line in lines)

    def test_profile_json_out(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        assert main(_PROFILE_ARGS + ["--out", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.profiler.profileset/v1"
        prof = doc["profiles"]["gemm@aurora"]
        assert prof["schema"] == "repro.profiler.profile/v1"
        assert prof["api_calls"] > 0
        assert prof["clock_violations"] == 0

    def test_manifest_embeds_profile_digest(self, tmp_path, capsys):
        manifest = tmp_path / "run.json"
        assert main(_PROFILE_ARGS + ["--manifest", str(manifest)]) == 0
        capsys.readouterr()
        doc = json.loads(manifest.read_text())
        assert doc["schema"].startswith("repro.telemetry.manifest/")
        assert doc["profile"]["api_calls"] > 0
        assert len(doc["profile"]["digest"]) == 64

    def test_profile_flag_on_table_command(self, tmp_path, capsys):
        manifest = tmp_path / "run.json"
        rc = main(["table2", "--profile", "--manifest", str(manifest)])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(manifest.read_text())
        assert "profile" in doc
        assert doc["profile"]["kernels"] > 0

    def test_health_includes_profiler_selfcheck(self, capsys):
        rc, out = _run(capsys, ["health"])
        assert rc == 0
        assert "[ok ] profiler" in out
        assert "[FAIL] profiler" not in out


class TestCampaignProfile:
    def test_crash_resume_manifest_with_profile_digests(
        self, tmp_path, capsys
    ):
        clean = tmp_path / "clean"
        assert main(
            ["campaign", "run", "--dir", str(clean), "--spec", "smoke",
             "--profile"]
        ) == 0
        crash = tmp_path / "crash"
        assert main(
            ["campaign", "run", "--dir", str(crash), "--spec", "smoke",
             "--profile", "--inject", "crash-midrun"]
        ) == 3
        assert main(["campaign", "resume", "--dir", str(crash)]) == 0
        capsys.readouterr()
        a = (clean / "manifest.json").read_bytes()
        b = (crash / "manifest.json").read_bytes()
        assert a == b
        doc = json.loads(a)
        assert doc["campaign"]["profile"] is True
        digests = [
            u["profile_digest"]
            for u in doc["campaign"]["units"]
            if "profile_digest" in u
        ]
        assert digests, "no unit embedded a profile digest"
        assert all(len(d) == 64 for d in digests)

    def test_unprofiled_campaign_has_no_digests(self, tmp_path, capsys):
        out = tmp_path / "plain"
        assert main(
            ["campaign", "run", "--dir", str(out), "--spec", "smoke"]
        ) == 0
        capsys.readouterr()
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["campaign"]["profile"] is False
        assert all(
            "profile_digest" not in u for u in doc["campaign"]["units"]
        )
