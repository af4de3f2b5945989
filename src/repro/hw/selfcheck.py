"""Hardware-model self-checks.

Structural invariants every node model must satisfy, runnable as a
diagnostic (``pvc-bench selfcheck``) and asserted by the test suite.
A failed check means a construction bug, not a calibration issue.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..dtypes import Precision
from ..errors import TopologyError
from .node import Node
from .systems import System

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import PerfEngine

__all__ = ["CheckResult", "self_check", "HealthReport", "node_health"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, condition: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(condition), detail)


def self_check(system: System) -> list[CheckResult]:
    """All structural invariants for one system."""
    node: Node = system.node
    fabric = node.fabric
    checks: list[CheckResult] = []

    # 1. Every logical device appears in the fabric.
    fabric_stacks = set(fabric.stacks)
    checks.append(
        _check(
            "fabric covers all stacks",
            set(node.stacks()) == fabric_stacks,
            f"{len(fabric_stacks)} fabric vs {node.n_stacks} node stacks",
        )
    )

    # 2. Planes partition the stacks exactly.
    if fabric.planes:
        union = set().union(*fabric.planes)
        overlap = (
            set(fabric.planes[0]) & set(fabric.planes[1])
            if len(fabric.planes) > 1
            else set()
        )
        checks.append(
            _check(
                "planes partition the stacks",
                union == fabric_stacks and not overlap,
                f"{len(union)} in planes, {len(overlap)} overlapping",
            )
        )

    # 3. Each card's stack 0 reaches its host socket.
    reachable = all(
        fabric.host_route(node.socket_of_card[card], node.stacks_of_card(card)[0])
        for card in range(node.n_cards)
    )
    checks.append(_check("every card has a host route", reachable, ""))

    # 4. Every stack pair is routable without the host.
    stacks = node.stacks()
    ok = True
    for a in stacks:
        for b in stacks:
            if a != b and not fabric.routes(a, b):
                ok = False
    checks.append(_check("all-to-all device routing", ok, ""))

    # 5. Peaks are consistent: FP32 >= FP64 for every declared precision.
    dev = node.device
    if Precision.FP64 in dev.flops_per_clock and Precision.FP32 in dev.flops_per_clock:
        checks.append(
            _check(
                "FP32 peak >= FP64 peak",
                dev.peak_flops(Precision.FP32) >= dev.peak_flops(Precision.FP64),
                "",
            )
        )

    # 6. Memory hierarchy grows in size and latency (already enforced at
    # construction; re-checked here as belt and braces).
    levels = dev.memory.levels
    checks.append(
        _check(
            "memory hierarchy monotone",
            all(
                a.capacity_bytes < b.capacity_bytes
                and a.latency_cycles < b.latency_cycles
                for a, b in zip(levels, levels[1:])
            ),
            " -> ".join(l.name for l in levels),
        )
    )

    # 7. Socket attachment is balanced (paper nodes split cards evenly).
    per_socket = [node.gpus_per_socket(s) for s in range(len(node.sockets))]
    checks.append(
        _check(
            "cards balanced across sockets",
            max(per_socket) - min(per_socket) <= 1,
            str(per_socket),
        )
    )

    # 8. HBM capacity aggregates correctly.
    checks.append(
        _check(
            "HBM totals consistent",
            node.total_hbm_bytes
            == node.n_stacks * dev.hbm_capacity_bytes,
            f"{node.total_hbm_bytes / 1e9:.0f} GB",
        )
    )
    return checks


# ---------------------------------------------------------------------------
# Node health under fault injection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HealthReport:
    """Snapshot of a node's health after faults have been applied.

    ``pvc-bench health --inject <scenario>`` fast-forwards the fault plan
    and prints this report, so operators can preview what a scenario does
    to the topology before committing to a full benchmark run.
    """

    system: str
    n_stacks: int
    dead_stacks: tuple[str, ...] = ()
    degraded_links: tuple[str, ...] = ()
    unroutable_pairs: int = 0
    clock_ratio: float = 1.0
    incidents: tuple[str, ...] = ()

    @property
    def healthy(self) -> bool:
        return (
            not self.dead_stacks
            and not self.degraded_links
            and self.unroutable_pairs == 0
            and self.clock_ratio == 1.0
        )

    def render(self) -> str:
        alive = self.n_stacks - len(self.dead_stacks)
        lines = [
            f"node health: {self.system}",
            f"  stacks alive: {alive}/{self.n_stacks}"
            + (
                f" (lost: {', '.join(self.dead_stacks)})"
                if self.dead_stacks
                else ""
            ),
        ]
        if self.degraded_links:
            lines.append("  degraded links:")
            lines.extend(f"    {entry}" for entry in self.degraded_links)
        else:
            lines.append("  degraded links: none")
        lines.append(f"  unroutable device pairs: {self.unroutable_pairs}")
        if self.clock_ratio != 1.0:
            lines.append(f"  clocks throttled to {self.clock_ratio:.0%}")
        if self.incidents:
            lines.append("  fault history:")
            lines.extend(f"    {msg}" for msg in self.incidents)
        lines.append(
            "  verdict: "
            + ("HEALTHY" if self.healthy else "DEGRADED")
        )
        return "\n".join(lines)


def node_health(engine: "PerfEngine") -> HealthReport:
    """Assess a node's health as *engine* sees it: its fabric view (the
    shared topology through its injector's overlay) plus fault history."""
    system, faults, fabric = engine.system, engine.faults, engine.fabric
    node: Node = system.node
    dead = tuple(str(r) for r in fabric.down_stacks)
    degraded = tuple(
        f"{a} -- {b}: {health:.0%} of nominal bandwidth"
        for a, b, health in fabric.degraded_links
    )
    unroutable = 0
    alive = fabric.alive_stacks
    for a, b in itertools.combinations(alive, 2):
        try:
            fabric.route(a, b)
        except TopologyError:
            unroutable += 1
    return HealthReport(
        system=system.name,
        n_stacks=node.n_stacks,
        dead_stacks=dead,
        degraded_links=degraded,
        unroutable_pairs=unroutable,
        clock_ratio=faults.clock_ratio() if faults is not None else 1.0,
        incidents=tuple(faults.history) if faults is not None else (),
    )
