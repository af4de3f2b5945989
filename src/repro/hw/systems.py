"""Factories for the four systems of the paper (Section III).

* **Aurora** — 2x Xeon Gold 5320 (52c, 64 GB HBM + 512 GB DDR5 each),
  six PVC with 56 active Xe-Cores per stack, 500 W power cap, idle
  frequency pinned at 1.6 GHz, all-to-all Xe-Link with the published
  two-plane wiring.
* **Dawn** — 2x Xeon Platinum 8468 (48c, 1 TB DDR total), four PVC with
  all 64 Xe-Cores active, 600 W power cap.
* **JLSE-H100** — 2x Xeon Platinum 8468, four NVIDIA H100 SXM5 80GB.
* **JLSE-MI250** — 2x EPYC 7713 (64c), four AMD MI250 (eight GCDs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.units import GB
from ..errors import UnknownSystemError
from .cpu import CpuSocket, epyc_7713, xeon_gold_5320_max, xeon_platinum_8468
from .gpu import GpuCardModel, h100_card_model, mi250_card_model, pvc_card_model
from .interconnect import (
    LinkKind,
    aurora_planes,
    build_dual_gcd_fabric,
    build_pvc_fabric,
    build_single_device_fabric,
)
from .node import Node

__all__ = [
    "System",
    "aurora",
    "dawn",
    "jlse_h100",
    "jlse_mi250",
    "get_system",
    "SYSTEM_NAMES",
    "all_systems",
]


@dataclass(frozen=True)
class System:
    """A named system: its node model plus reporting metadata."""

    name: str
    node: Node
    #: Label used for the calibration tables in :mod:`repro.sim.calibration`.
    calibration_key: str
    #: The paper's column headings ("Aurora (PVC)", ...).
    display_name: str
    #: Software stack note (Section III), for reports only.
    software: str

    @property
    def n_stacks(self) -> int:
        return self.node.n_stacks

    @property
    def device(self):
        return self.node.device

    def full_node_scope_name(self) -> str:
        """'Six PVC' / 'Four PVC' / 'Four GPU' per the paper's tables."""
        n = self.node.n_cards
        word = {4: "Four", 6: "Six"}.get(n, str(n))
        unit = "PVC" if self.device.arch == "pvc" else "GPU"
        return f"{word} {unit}"


def aurora() -> System:
    """The Aurora node (Section III): 6x PVC, 56 Xe-Cores/stack, 500 W."""
    card = pvc_card_model(active_xe_cores=56, power_cap_w=500.0, idle_pinned=True)
    socket_of_card = (0, 0, 0, 1, 1, 1)
    node = Node(
        name="Aurora node",
        sockets=(xeon_gold_5320_max(), xeon_gold_5320_max()),
        card=card,
        n_cards=6,
        socket_of_card=socket_of_card,
        fabric=build_pvc_fabric(6, socket_of_card, planes=aurora_planes()),
    )
    return System(
        name="aurora",
        node=node,
        calibration_key="aurora",
        display_name="Aurora (PVC)",
        software="Intel oneAPI 2024.1 public release",
    )


def dawn() -> System:
    """The Dawn node (Section III): 4x PVC, 64 Xe-Cores/stack, 600 W."""
    card = pvc_card_model(active_xe_cores=64, power_cap_w=600.0, idle_pinned=False)
    socket_of_card = (0, 0, 1, 1)
    sock = xeon_platinum_8468()
    # Dawn carries 1024 GB DDR total (Section III).
    sock = CpuSocket(
        model=sock.model,
        cores=sock.cores,
        threads=sock.threads,
        base_clock_hz=sock.base_clock_hz,
        ddr_peak_bw=sock.ddr_peak_bw,
        ddr_capacity_bytes=512 * GB,
    )
    node = Node(
        name="Dawn node",
        sockets=(sock, sock),
        card=card,
        n_cards=4,
        socket_of_card=socket_of_card,
        fabric=build_pvc_fabric(4, socket_of_card),
    )
    return System(
        name="dawn",
        node=node,
        calibration_key="dawn",
        display_name="Dawn (PVC)",
        software="Intel oneAPI 2024.1 public release",
    )


def jlse_h100() -> System:
    """The JLSE-H100 node: 2x Xeon 8468, 4x H100 SXM5 80GB."""
    socket_of_card = (0, 0, 1, 1)
    node = Node(
        name="JLSE-H100 node",
        sockets=(xeon_platinum_8468(), xeon_platinum_8468()),
        card=h100_card_model(),
        n_cards=4,
        socket_of_card=socket_of_card,
        fabric=build_single_device_fabric(
            4, socket_of_card, LinkKind.PCIE_GEN5_X16, LinkKind.NVLINK4
        ),
    )
    return System(
        name="jlse-h100",
        node=node,
        calibration_key="jlse-h100",
        display_name="JLSE (H100)",
        software="NVHPC 24.1 and CUDA 12.3.0",
    )


def jlse_mi250() -> System:
    """The JLSE-MI250 node: 2x EPYC 7713, 4x MI250 (8 GCDs)."""
    socket_of_card = (0, 0, 1, 1)
    node = Node(
        name="JLSE-MI250 node",
        sockets=(epyc_7713(), epyc_7713()),
        card=mi250_card_model(),
        n_cards=4,
        socket_of_card=socket_of_card,
        fabric=build_dual_gcd_fabric(4, socket_of_card),
    )
    return System(
        name="jlse-mi250",
        node=node,
        calibration_key="jlse-mi250",
        display_name="JLSE (MI250)",
        software="ROCm 6.1.0",
    )


_FACTORIES: dict[str, Callable[[], System]] = {
    "aurora": aurora,
    "dawn": dawn,
    "jlse-h100": jlse_h100,
    "jlse-mi250": jlse_mi250,
}

#: Canonical system order used throughout the tables (paper order).
SYSTEM_NAMES: tuple[str, ...] = ("aurora", "dawn", "jlse-h100", "jlse-mi250")

_ALIASES = {
    "h100": "jlse-h100",
    "mi250": "jlse-mi250",
    "jlse_h100": "jlse-h100",
    "jlse_mi250": "jlse-mi250",
}


#: Every system built so far, by canonical name.  A node model is fixed
#: hardware and a System is immutable, so each factory runs at most once
#: per process and every caller shares its result.
_BUILT: dict[str, System] = {}


def get_system(name: str) -> System:
    """Look up a system by name (case-insensitive, aliases accepted).

    Returns the same object on every call for the same system.
    """
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    system = _BUILT.get(key)
    if system is None:
        try:
            factory = _FACTORIES[key]
        except KeyError:
            raise UnknownSystemError(
                f"unknown system {name!r}; known: {', '.join(SYSTEM_NAMES)}"
            ) from None
        system = _BUILT.setdefault(key, factory())
    return system


def all_systems() -> list[System]:
    """All four paper systems, in the paper's column order."""
    return [get_system(n) for n in SYSTEM_NAMES]
