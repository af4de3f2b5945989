"""Names the ``pvc-bench`` parser offers, kept apart from the code they select.

Building the parser must not import the subsystems these names choose
between: a command imports only what it runs (``docs/architecture.md``).
So the tuples live in this dependency-free module, and the modules that
own them re-export them and key their builders by them:
:mod:`repro.faults.scenarios`, :mod:`repro.faults.process` and
:mod:`repro.campaign.spec`.
"""

from __future__ import annotations

from .errors import ScenarioError

__all__ = [
    "SCENARIO_NAMES",
    "CAMPAIGN_SCENARIO_NAMES",
    "WORKER_SCENARIO_NAMES",
    "SPEC_NAMES",
    "check_scenario",
]

#: Hardware fault scenarios (``--inject``), sorted, then the ``all`` mix.
SCENARIO_NAMES: tuple[str, ...] = (
    "device-loss",
    "kernel-flaky",
    "link-degrade",
    "mpi-corrupt",
    "mpi-hang",
    "partition",
    "plane-outage",
    "throttle",
    "usm-pressure",
    "all",
)

#: Orchestrator-level scenarios: instead of perturbing the simulated
#: hardware they kill the campaign driver itself, to prove the journal
#: and resume path recover.  ``crash-midrun`` stops the orchestrator
#: abruptly after a seeded unit; ``journal-truncate`` additionally tears
#: the last journal record, simulating a power cut mid-append.
CAMPAIGN_SCENARIO_NAMES: tuple[str, ...] = ("crash-midrun", "journal-truncate")

#: Orchestrator ``--inject`` scenarios built by
#: :func:`repro.faults.process.build_worker_plan`.
WORKER_SCENARIO_NAMES: tuple[str, ...] = (
    "worker-kill",
    "worker-hang",
    "worker-poison",
    "io-enospc",
)

#: Named campaign specs (:func:`repro.campaign.spec.get_spec`), sorted.
SPEC_NAMES: tuple[str, ...] = ("paper", "smoke")


def check_scenario(scenario: str | None) -> None:
    """Reject an ``--inject`` value that names no hardware fault scenario."""
    if scenario is not None and scenario not in SCENARIO_NAMES:
        raise ScenarioError(
            f"unknown fault scenario {scenario!r}; choose from: "
            + ", ".join(SCENARIO_NAMES)
        )
