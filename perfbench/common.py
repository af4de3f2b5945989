"""Paths, the child environment and the run's outcome ledger."""

from __future__ import annotations

import os
import shutil
from pathlib import Path

from stats import Series

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything a run writes; listed in the repository's .gitignore.
OUT = HERE / "out"
CHILD = HERE / "child.py"

#: Upper bound on one child process; a hung child fails the run.
CHILD_TIMEOUT_S = 120.0


class RunError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def fresh_dir(*parts: str) -> str:
    """An empty output directory, with the previous run's files gone.

    The deletions are flushed (``os.sync``) before anything is timed,
    so their write-back does not land inside the measurement.
    """
    path = OUT.joinpath(*parts)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    os.sync()
    return str(path)


class Outcome:
    """What one workload run measured and whether its outputs were right."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.series: dict[str, Series] = {}
        #: series holding each repeat's median and mean latency (ms)
        self.repeat_p50 = ""
        self.repeat_mean = ""
        #: per-layer metric name -> value, ``None`` where bypassed
        self.per_layer: dict[str, float | None] = {}
        #: human-readable lines printed above the result
        self.notes: list[str] = []

    def series_for(self, name: str, unit: str) -> Series:
        if name not in self.series:
            self.series[name] = Series(name, unit)
        return self.series[name]

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; remember it if it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    def end_to_end(self) -> dict[str, float | None]:
        """The ``end_to_end`` metrics of ``BENCHMARK.json``.

        Latencies are the best repeat, as the paper reports (Sec. IV-A);
        set-up time and memory are medians.
        """
        return {
            "setup_s": self.series["setup_s"].summary().get("median"),
            "best_p50_ms": self.series[self.repeat_p50].summary().get("min"),
            "best_mean_ms": self.series[self.repeat_mean].summary().get(
                "min"),
            "peak_rss_mb": self.series["peak_rss_mb"].summary().get("median"),
        }
