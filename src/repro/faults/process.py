"""Process-level fault plans: killing, hanging, and starving workers.

PR 1's injectors perturb the *simulated hardware* inside a run; the
plans here attack the campaign machinery itself at the operating-system
level, the failure mode "Scaling MPI Applications on Aurora" reports as
the common case at scale: worker processes SIGKILLed mid-unit (OOM
killer, node health daemon), workers that stop making progress without
dying, and the shared filesystem transiently refusing writes.

A :class:`WorkerFaultPlan` is — like every other plan in this package —
a pure function of ``(scenario, seed)``: the same pair always kills the
same worker at the same unit attempt, which is what lets the chaos
property suite assert that a supervised campaign's artifacts are
byte-identical to a clean serial run at *every* kill point.

The plan is consulted in two places:

* the campaign worker loop (:mod:`repro.campaign.scheduler`) asks
  :meth:`WorkerFaultPlan.kill_point` / :meth:`WorkerFaultPlan.should_hang`
  per ``(unit, attempt)`` — attempts are numbered by the parent's
  supervisor, so a fault scheduled for attempts ``1..K`` clears once the
  unit has been retried K times (or quarantines it when K reaches the
  poison threshold);
* the orchestrator installs :meth:`WorkerFaultPlan.io_gate` into
  :func:`repro.ioutils.set_io_fault_gate`, failing scheduled journal and
  store write ops with ``ENOSPC`` until the bounded retry absorbs them.

Worker faults fire only inside worker processes: the supervisor's
degraded-mode serial drain executes units in the orchestrator process,
which deliberately bypasses them (a poison unit must not take the
orchestrator down with it).
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass, field
from typing import Mapping

from ..errors import ScenarioError
from ..names import WORKER_SCENARIO_NAMES
from .plan import SeededDraw

__all__ = [
    "DEFAULT_POISON_CRASHES",
    "KILL_POINTS",
    "WORKER_SCENARIO_NAMES",
    "WorkerFaultPlan",
    "build_worker_plan",
]

#: Consecutive worker crashes on one unit before it is quarantined.
DEFAULT_POISON_CRASHES = 3

#: Where a scheduled kill lands relative to the unit's execution:
#: ``"start"`` — the worker dies before executing (the unit is lost and
#: must be re-enqueued); ``"done"`` — the worker dies *after* its result
#: is flushed to the result queue (the classic swallowed-result race:
#: the supervisor must drain and commit the queued outcome instead of
#: re-running the unit).
KILL_POINTS = ("start", "done")

#: Transient-failure depth for ``io-enospc``: each scheduled op fails
#: this many consecutive attempts, comfortably inside the
#: :data:`repro.ioutils.IO_RETRY_ATTEMPTS` budget so the retry absorbs it.
_ENOSPC_FAILURES = 2

#: Write ops eligible for the ``io-enospc`` schedule (the journal and
#: store land well within this window for every spec).
_ENOSPC_OP_RANGE = (1, 12)


@dataclass(frozen=True)
class WorkerFaultPlan:
    """A deterministic schedule of process-level campaign faults.

    ``kills`` maps a unit id to ``(attempts, point)``: any worker
    executing that unit dies (SIGKILL to itself) on attempts
    ``1..attempts``, at the given :data:`KILL_POINTS` position.
    ``hangs`` maps a unit id to the number of attempts that stall
    forever instead of dying.  ``enospc`` maps 1-based write-op indices
    (journal appends + store/artifact writes, in commit order) to the
    number of consecutive attempts that fail with ``ENOSPC``.
    """

    scenario: str
    seed: int
    kills: Mapping[str, tuple[int, str]] = field(default_factory=dict)
    hangs: Mapping[str, int] = field(default_factory=dict)
    enospc: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for unit_id, (attempts, point) in self.kills.items():
            if point not in KILL_POINTS:
                raise ScenarioError(
                    f"kill point for unit {unit_id!r} must be one of "
                    f"{', '.join(KILL_POINTS)}, got {point!r}"
                )
            if attempts < 1:
                raise ScenarioError(
                    f"kill attempts for unit {unit_id!r} must be >= 1"
                )

    # -- worker-side queries ------------------------------------------------

    def kill_point(self, unit_id: str, attempt: int) -> str | None:
        """The kill position for this ``(unit, attempt)``, or ``None``."""
        spec = self.kills.get(unit_id)
        if spec is None:
            return None
        attempts, point = spec
        return point if attempt <= attempts else None

    def should_hang(self, unit_id: str, attempt: int) -> bool:
        return attempt <= self.hangs.get(unit_id, 0)

    @property
    def wants_workers(self) -> bool:
        """True when the plan needs a worker pool to have any effect."""
        return bool(self.kills or self.hangs)

    # -- orchestrator-side IO gate ------------------------------------------

    def io_gate(self):
        """A stateful gate for :func:`repro.ioutils.set_io_fault_gate`.

        Counts write ops (first attempts only, so retries re-test the
        same op index) and raises ``ENOSPC`` while an op's scheduled
        failure budget lasts.
        """
        remaining = {int(op): int(n) for op, n in self.enospc.items()}
        counter = {"op": 0}

        def gate(op: str, path: str, attempt: int) -> None:
            if attempt == 1:
                counter["op"] += 1
            index = counter["op"]
            if remaining.get(index, 0) > 0:
                remaining[index] -= 1
                raise OSError(
                    errno.ENOSPC,
                    f"injected ENOSPC ({op} op {index}, attempt {attempt})",
                    os.fspath(path),
                )

        return gate

    # -- reporting ----------------------------------------------------------

    def describe(self) -> str:
        head = f"worker scenario {self.scenario!r} seed {self.seed}"
        parts = []
        for unit_id, (attempts, point) in sorted(self.kills.items()):
            parts.append(
                f"SIGKILL {unit_id} at {point} (attempts 1..{attempts})"
            )
        for unit_id, attempts in sorted(self.hangs.items()):
            parts.append(f"hang {unit_id} (attempts 1..{attempts})")
        for op, n in sorted(self.enospc.items()):
            parts.append(f"ENOSPC write op {op} x{n}")
        if not parts:
            return f"{head}: no events"
        return f"{head}: " + "; ".join(parts)


def build_worker_plan(
    scenario: str,
    seed: int,
    unit_ids: "list[str] | tuple[str, ...]",
    poison_crashes: int = DEFAULT_POISON_CRASHES,
) -> WorkerFaultPlan:
    """Build the process-fault schedule for one campaign.

    ``unit_ids`` is the spec's execution order; the targeted unit is a
    seeded draw over it, so the schedule is a pure function of
    ``(scenario, seed, spec)``.
    """
    key = scenario.strip().lower()
    if key not in WORKER_SCENARIO_NAMES:
        raise ScenarioError(
            f"unknown worker fault scenario {scenario!r}; "
            f"known: {', '.join(WORKER_SCENARIO_NAMES)}"
        )
    if not unit_ids and key != "io-enospc":
        raise ScenarioError(f"scenario {key!r} needs at least one unit")
    draw = SeededDraw(seed, f"worker:{key}")
    if key == "worker-kill":
        unit = draw.choice(tuple(unit_ids), "unit")
        point = draw.choice(KILL_POINTS, "point")
        return WorkerFaultPlan(key, seed, kills={unit: (1, point)})
    if key == "worker-poison":
        unit = draw.choice(tuple(unit_ids), "unit")
        return WorkerFaultPlan(
            key, seed, kills={unit: (poison_crashes, "start")}
        )
    if key == "worker-hang":
        unit = draw.choice(tuple(unit_ids), "unit")
        return WorkerFaultPlan(key, seed, hangs={unit: 1})
    ops = draw.distinct_ints(2, *_ENOSPC_OP_RANGE, "op")
    return WorkerFaultPlan(
        key, seed, enospc={op: _ENOSPC_FAILURES for op in ops}
    )
