"""Import-graph guards: a command imports what it runs, and no more.

Each test reads ``sys.modules`` in a fresh interpreter, so the verdict
is a set of module names, not a timing: it cannot flake on a busy host.
Two directions are guarded (``docs/architecture.md``):

* ``pvc-bench`` imports a subsystem only in the dispatch branch that
  runs it, so a sweep never pays for the campaign, service or analysis
  layers;
* an executor imports its work before it reports ready, so the timed
  part of a campaign run or a daemon request never contains an import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

#: The last line a probe prints: its repro.* modules as a JSON list.
_REPORT = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules"
    " if m.startswith('repro'))))\n"
)


def _run(script: str, tmp_path, report: bool = False) -> list[str]:
    """Run ``script`` in a fresh interpreter; decode its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = textwrap.dedent(script) + (_REPORT if report else "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _under(modules: list[str], packages: tuple[str, ...]) -> list[str]:
    """The modules that are, or live under, ``repro.<package>``."""
    return [
        m for m in modules
        if any(m == f"repro.{p}" or m.startswith(f"repro.{p}.") for p in packages)
    ]


def test_cli_import_loads_no_subsystem(tmp_path):
    modules = _run("import repro.cli\n", tmp_path, report=True)
    assert "repro.cli" in modules
    assert _under(modules, (
        "analysis", "apps", "campaign", "faults", "micro", "miniapps", "obs",
        "profiler", "runtime", "service", "sweep", "telemetry",
    )) == []


def test_sweep_loads_only_the_sweep(tmp_path):
    modules = _run(
        """
        import contextlib, io
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sweep", "ci", "--dir", "out"]) == 0
        """,
        tmp_path,
        report=True,
    )
    assert "repro.sweep.runner" in modules
    assert _under(modules, (
        "analysis", "apps", "campaign", "faults", "micro", "miniapps", "obs",
        "profiler", "runtime", "service", "telemetry",
    )) == []


def test_systems_loads_no_model_layer(tmp_path):
    modules = _run(
        """
        import contextlib, io
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["systems"]) == 0
        """,
        tmp_path,
        report=True,
    )
    assert _under(modules, (
        "analysis", "apps", "campaign", "micro", "miniapps", "profiler",
        "runtime", "service", "sweep",
    )) == []


def test_campaign_run_imports_nothing_once_built(tmp_path):
    """The orchestrator is ready once built: ``run()`` first-imports nothing."""
    new = _run(
        """
        import contextlib, io, sys
        from repro.campaign.orchestrator import Orchestrator
        from repro.campaign.spec import get_spec
        orch = Orchestrator("run", spec=get_spec("paper"), jobs=1)
        before = set(sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            assert orch.run() == 0
        import json
        print(json.dumps(sorted(
            m for m in set(sys.modules) - before if m.startswith("repro")
        )))
        """,
        tmp_path,
    )
    assert new == []


def test_daemon_requests_import_nothing_once_serving(tmp_path):
    """A table miss and a campaign request run on what start-up imported."""
    new = _run(
        """
        import json, sys, urllib.request
        from repro.service.daemon import BenchDaemon

        daemon = BenchDaemon("state", workers=1)
        daemon.start()
        before = set(sys.modules)

        def ask(doc):
            req = urllib.request.Request(
                daemon.url + "/v1/requests?wait=1",
                data=json.dumps(doc).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(req, timeout=240) as resp:
                body = json.loads(resp.read())
            assert body["status"] == "done", body

        try:
            ask({"request_id": "t2", "command": "table2"})
            ask({"request_id": "c1", "kind": "campaign", "spec": "smoke"})
        finally:
            daemon.stop(timeout_s=10.0)
        print(json.dumps(sorted(
            m for m in set(sys.modules) - before if m.startswith("repro")
        )))
        """,
        tmp_path,
    )
    assert new == []
