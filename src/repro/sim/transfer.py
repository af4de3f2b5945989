"""Data-transfer performance model.

Covers the paper's three transfer benchmarks:

* **Host <-> device over PCIe** (Section IV-A.3): per-card Gen5 x16 link
  with calibrated efficiency; a PVC card's two stacks share stack 0's
  link; full-node aggregates are throttled by the host-side cap
  (:mod:`repro.sim.contention`).
* **Local stack pair** (Section IV-A.4 first case): the on-card MDFI
  stack-to-stack interconnect.
* **Remote stack pair over Xe-Link** (second case): routed through the
  plane topology; cross-plane pairs take one of the two 2-hop paths the
  paper describes, and the Xe-Link hop is the bottleneck either way.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import TopologyError
from ..hw.ids import StackRef
from ..hw.interconnect import FabricView, LinkKind, Route
from ..hw.node import Node
from .calibration import SystemCalibration
from .contention import aggregate_rate

__all__ = ["TransferModel"]

_DEFAULT_LINK_EFFICIENCY = 0.85

#: Per-extra-hop efficiency when a dead link forces a longer-than-healthy
#: route: each relay stack forwards at a fraction of the link rate.  Healthy
#: routes (hop count equal to the pristine topology's minimum) never pay it.
_RELAY_EFFICIENCY = 0.6


class TransferModel:
    """Achieved transfer bandwidths for one node.

    ``enable_planes=False`` is an ablation switch: remote stacks are then
    modelled as directly connected (single Xe-Link hop) regardless of the
    plane wiring.  ``enable_contention=False`` drops the host aggregate
    caps, isolating their contribution to the full-node PCIe rows.
    Routing reads *fabric*, the owning engine's view (by default the
    healthy node fabric, unobserved).
    """

    def __init__(
        self,
        node: Node,
        cal: SystemCalibration,
        *,
        fabric: FabricView | None = None,
        enable_planes: bool = True,
        enable_contention: bool = True,
    ) -> None:
        self.node = node
        self.fabric = fabric if fabric is not None else FabricView(node.fabric)
        self.cal = cal
        self.enable_planes = enable_planes
        self.enable_contention = enable_contention

    # ------------------------------------------------------------------
    # link helpers
    # ------------------------------------------------------------------

    def link_efficiency(self, kind: LinkKind) -> float:
        return self.cal.link_efficiency.get(kind, _DEFAULT_LINK_EFFICIENCY)

    def link_bidir_factor(self, kind: LinkKind) -> float:
        return self.cal.link_bidir_factor.get(kind, 2.0)

    def achieved_link_bw(self, kind: LinkKind) -> float:
        """Single-direction achieved bandwidth of one link of *kind*."""
        return kind.peak_bw_per_dir * self.link_efficiency(kind)

    # ------------------------------------------------------------------
    # Host <-> device (PCIe)
    # ------------------------------------------------------------------

    def _pcie_kind(self, ref: StackRef) -> LinkKind:
        route = self.fabric.host_route(self.node.socket_of(ref), ref)
        for _, _, link in route.hops:
            if link.kind in (LinkKind.PCIE_GEN5_X16, LinkKind.PCIE_GEN4_X16):
                return link.kind
        raise TopologyError(f"no PCIe hop on host route to {ref}")

    def host_device_bw(self, ref: StackRef, direction: str = "h2d") -> float:
        """Achieved host<->device bandwidth of a single transfer.

        ``direction`` is ``"h2d"``, ``"d2h"`` or ``"bidir"`` (total of the
        simultaneous two-way transfer — the paper's 1 GB case).
        """
        kind = self._pcie_kind(ref)
        if direction == "bidir":
            base = kind.peak_bw_per_dir * self.cal.pcie_efficiency["h2d"]
            return base * self.cal.pcie_bidir_factor
        try:
            eff = self.cal.pcie_efficiency[direction]
        except KeyError:
            raise ValueError(f"bad direction {direction!r}") from None
        return kind.peak_bw_per_dir * eff

    def node_host_bw(
        self, direction: str, refs: Sequence[StackRef] | None = None
    ) -> float:
        """Aggregate host<->device bandwidth with *refs* all active.

        Stacks sharing a card share that card's single PCIe link (only
        stack 0 carries it, Section II); the per-card flows are then
        throttled by the node-level host cap.
        """
        if refs is None:
            refs = self.node.stacks()
        cards = sorted({r.card for r in refs})
        demands = [
            self.host_device_bw(StackRef(card, 0), direction)
            for card in cards
        ]
        cap = (
            self.cal.host_agg_caps.get(direction)
            if self.enable_contention
            else None
        )
        return aggregate_rate(demands, cap)

    def host_transfer_time(
        self, ref: StackRef, nbytes: float, direction: str = "h2d"
    ) -> float:
        route = self.fabric.host_route(self.node.socket_of(ref), ref)
        return nbytes / self.host_device_bw(ref, direction) + route.latency_s

    # ------------------------------------------------------------------
    # Device <-> device
    # ------------------------------------------------------------------

    def p2p_route(self, src: StackRef, dst: StackRef) -> Route:
        return self.fabric.route(src, dst)

    def p2p_routes(self, src: StackRef, dst: StackRef) -> list[Route]:
        return self.fabric.routes(src, dst)

    def pair_class(self, src: StackRef, dst: StackRef) -> str:
        """"local" for same-card stack pairs, "remote" otherwise."""
        return "local" if src.card == dst.card else "remote"

    def _bottleneck(self, route: Route) -> tuple[LinkKind, float]:
        fabric = self.fabric
        best_kind, best_bw = None, float("inf")
        for u, v, link in route.hops:
            bw = self.achieved_link_bw(link.kind) * fabric.link_health(u, v)
            if bw < best_bw:
                best_kind, best_bw = link.kind, bw
        assert best_kind is not None
        return best_kind, best_bw

    def p2p_bw(
        self, src: StackRef, dst: StackRef, *, bidirectional: bool = False
    ) -> float:
        """Achieved bandwidth of a single pairwise transfer.

        Unidirectional: the bottleneck hop's achieved rate.  Bidirectional:
        the total two-way rate, ``uni * bidir_factor`` of the bottleneck
        link kind (the paper's local pair reaches only 284/2x197 = 72% of
        doubling; Xe-Link 23/2x15).
        """
        if not self.enable_planes and self.pair_class(src, dst) == "remote":
            # Ablation: pretend a direct Xe-Link (or fabric) hop exists.
            kind = self._remote_kind()
            uni = self.achieved_link_bw(kind)
        else:
            fabric = self.fabric
            route = self.p2p_route(src, dst)
            kind, uni = self._bottleneck(route)
            if fabric.has_degradation:
                extra = route.n_hops - fabric.healthy_hops(src, dst)
                if extra > 0:
                    uni *= _RELAY_EFFICIENCY ** extra
        if bidirectional:
            return uni * self.link_bidir_factor(kind)
        return uni

    def _remote_kind(self) -> LinkKind:
        arch = self.node.device.arch
        return {
            "pvc": LinkKind.XELINK,
            "h100": LinkKind.NVLINK4,
            "a100": LinkKind.NVLINK4,
            "mi250": LinkKind.XGMI,
        }[arch]

    def concurrent_p2p_bw(
        self,
        pairs: Iterable[tuple[StackRef, StackRef]],
        *,
        bidirectional: bool = False,
    ) -> float:
        """Aggregate bandwidth with many pairs communicating at once.

        Applies the measured parallel efficiency per pair class (Table III:
        six local pairs on Aurora reach 95% of 6x the single-pair rate).
        """
        pairs = list(pairs)
        if not pairs:
            return 0.0
        total = 0.0
        by_class: dict[str, float] = {}
        for src, dst in pairs:
            cls = self.pair_class(src, dst)
            by_class[cls] = by_class.get(cls, 0.0) + self.p2p_bw(
                src, dst, bidirectional=bidirectional
            )
        for cls, demand in by_class.items():
            total += demand * self.cal.p2p_parallel_efficiency.get(cls, 1.0)
        return total

    def p2p_transfer_time(
        self, src: StackRef, dst: StackRef, nbytes: float
    ) -> float:
        route = self.p2p_route(src, dst)
        return nbytes / self.p2p_bw(src, dst) + route.latency_s
