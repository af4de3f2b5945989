"""Named fault scenarios (``pvc-bench --inject <scenario> --seed N``).

Each builder turns ``(seed, node)`` into a :class:`FaultPlan`.  Builders
only use :class:`SeededDraw`, so the schedule is a pure function of the
scenario name, the seed and the node shape — the determinism guarantee
documented in ``docs/fault_injection.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import ScenarioError
from ..hw.ids import StackRef
from ..hw.node import Node
from ..names import CAMPAIGN_SCENARIO_NAMES, SCENARIO_NAMES
from .plan import FaultEvent, FaultKind, FaultPlan, SeededDraw

__all__ = [
    "SCENARIO_NAMES",
    "CAMPAIGN_SCENARIO_NAMES",
    "CampaignFaultPlan",
    "build_plan",
    "build_campaign_plan",
]

#: Ticks into the suite at which one-shot topology faults land.  Kept low
#: enough that every table command crosses them well before its last
#: cell (Table III is the shortest driver at ~48 repetitions per system).
_TOPOLOGY_TICK_RANGE = (4, 28)

#: Clock ratio during a DVFS throttle excursion: ~2.5x slowdown, far past
#: the resilient runner's quarantine threshold.
_THROTTLE_RATIO = 0.4

#: Watchdog override used by hang scenarios so a hung rank surfaces fast.
_HANG_TIMEOUT_S = 2.0


def _device_loss(draw: SeededDraw, node: Node) -> list[FaultEvent]:
    ref = draw.choice(node.stacks(), "stack")
    tick = draw.randint(*_TOPOLOGY_TICK_RANGE, "tick")
    return [FaultEvent(FaultKind.DEVICE_LOSS, at=tick, target=ref)]


def _plane_outage(draw: SeededDraw, node: Node) -> list[FaultEvent]:
    n_planes = max(1, len(node.fabric.planes))
    plane = draw.randint(0, n_planes, "plane")
    tick = draw.randint(*_TOPOLOGY_TICK_RANGE, "tick")
    return [
        FaultEvent(FaultKind.PLANE_OUTAGE, at=tick, target=plane, magnitude=0.0)
    ]


def _link_degrade(draw: SeededDraw, node: Node) -> list[FaultEvent]:
    n_planes = max(1, len(node.fabric.planes))
    plane = draw.randint(0, n_planes, "plane")
    tick = draw.randint(*_TOPOLOGY_TICK_RANGE, "tick")
    return [
        FaultEvent(FaultKind.LINK_DEGRADE, at=tick, target=plane, magnitude=0.5)
    ]


def _partition(draw: SeededDraw, node: Node) -> list[FaultEvent]:
    """Plane 0 outage plus a cut intra-card link: some pairs unroutable."""
    card = draw.randint(0, node.n_cards, "card")
    cut: object = (StackRef(card, 0), StackRef(card, min(1, node.card.n_devices - 1)))
    events = [
        FaultEvent(FaultKind.PLANE_OUTAGE, at=5, target=0, magnitude=0.0),
    ]
    if node.card.n_devices > 1:
        events.append(FaultEvent(FaultKind.LINK_CUT, at=5, target=cut))
    return events


def _kernel_flaky(draw: SeededDraw, node: Node) -> list[FaultEvent]:
    ops = draw.distinct_ints(3, 2, 200, "kernel-op")
    return [FaultEvent(FaultKind.KERNEL_TRANSIENT, at=op) for op in ops]


def _usm_pressure(draw: SeededDraw, node: Node) -> list[FaultEvent]:
    # The PCIe rows perform ~48 USM allocations per system in Table II;
    # keep the failure ops inside that window so the scenario bites.
    ops = draw.distinct_ints(2, 2, 40, "alloc-op")
    return [FaultEvent(FaultKind.ALLOC_FAIL, at=op) for op in ops]


def _throttle(draw: SeededDraw, node: Node) -> list[FaultEvent]:
    ticks = draw.distinct_ints(4, 3, 200, "excursion")
    return [
        FaultEvent(FaultKind.DVFS_THROTTLE, at=t, magnitude=_THROTTLE_RATIO)
        for t in ticks
    ]


def _mpi_hang(draw: SeededDraw, node: Node) -> list[FaultEvent]:
    run = draw.randint(1, 8, "run")
    rank_seed = draw.randint(0, 4096, "rank")
    return [FaultEvent(FaultKind.MPI_HANG, at=run, target=rank_seed)]


def _mpi_corrupt(draw: SeededDraw, node: Node) -> list[FaultEvent]:
    ops = draw.distinct_ints(2, 1, 40, "send-op")
    return [FaultEvent(FaultKind.MPI_CORRUPT, at=op) for op in ops]


#: Keyed by :data:`repro.names.SCENARIO_NAMES` (all but ``all``).
_BUILDERS: dict[str, Callable[[SeededDraw, Node], list[FaultEvent]]] = {
    "device-loss": _device_loss,
    "plane-outage": _plane_outage,
    "link-degrade": _link_degrade,
    "partition": _partition,
    "kernel-flaky": _kernel_flaky,
    "usm-pressure": _usm_pressure,
    "throttle": _throttle,
    "mpi-hang": _mpi_hang,
    "mpi-corrupt": _mpi_corrupt,
}

#: Everything except ``partition`` (which intentionally makes pairs
#: unroutable, i.e. produces FAILED cells rather than degraded ones).
_ALL = tuple(name for name in _BUILDERS if name != "partition")


@dataclass(frozen=True, slots=True)
class CampaignFaultPlan:
    """A deterministic plan for killing the campaign orchestrator.

    ``crash_after_unit`` is a topological index: the orchestrator exits
    (as if SIGKILLed) right after journalling that unit's completion.
    ``truncate_journal`` then chops the tail of the journal so the last
    record fails its checksum — the torn-write case resume must detect.
    """

    scenario: str
    seed: int
    crash_after_unit: int | None = None
    truncate_journal: bool = False

    def describe(self) -> str:
        if self.crash_after_unit is None:
            return f"campaign scenario {self.scenario!r}: no crash"
        tail = ", then truncate journal tail" if self.truncate_journal else ""
        return (
            f"campaign scenario {self.scenario!r} seed {self.seed}: "
            f"crash after unit index {self.crash_after_unit}{tail}"
        )


def build_campaign_plan(
    scenario: str, seed: int, n_units: int
) -> CampaignFaultPlan:
    """Build the orchestrator-kill schedule for one campaign.

    The crash lands after some unit in ``[0, n_units - 1)`` so at least
    one unit always remains for ``campaign resume`` to execute.
    """
    key = scenario.strip().lower()
    if key not in CAMPAIGN_SCENARIO_NAMES:
        raise ScenarioError(
            f"unknown campaign fault scenario {scenario!r}; "
            f"known: {', '.join(CAMPAIGN_SCENARIO_NAMES)}"
        )
    draw = SeededDraw(seed, f"campaign:{key}")
    crash_after = draw.randint(0, max(1, n_units - 1), "unit")
    return CampaignFaultPlan(
        scenario=key,
        seed=seed,
        crash_after_unit=crash_after,
        truncate_journal=(key == "journal-truncate"),
    )


def build_plan(scenario: str, seed: int, node: Node) -> FaultPlan:
    """Build the deterministic fault schedule for one system."""
    key = scenario.strip().lower()
    timeout = None
    if key == "all":
        events: list[FaultEvent] = []
        for name in _ALL:
            draw = SeededDraw(seed, f"{name}:{node.name}")
            events.extend(_BUILDERS[name](draw, node))
        timeout = _HANG_TIMEOUT_S
    elif key in _BUILDERS:
        draw = SeededDraw(seed, f"{key}:{node.name}")
        events = _BUILDERS[key](draw, node)
        if key == "mpi-hang":
            timeout = _HANG_TIMEOUT_S
    else:
        raise ScenarioError(
            f"unknown fault scenario {scenario!r}; "
            f"known: {', '.join(SCENARIO_NAMES)}"
        )
    return FaultPlan(
        scenario=key,
        seed=seed,
        events=tuple(events),
        mpi_timeout_s=timeout,
    )
