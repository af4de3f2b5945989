"""The fault injector: wires a :class:`FaultPlan` into the substrates.

One injector instance is shared by everything simulating a node: the
performance engine consults it for device health and DVFS throttle, the
SYCL runtime for USM allocation failures, the Level-Zero driver (via the
engine's fabric view) for device enumeration, and the MPI layer for rank
hangs and message corruption.  Topology faults are applied to the
injector's own :class:`~repro.hw.interconnect.FabricHealth` overlay on the
node's shared, immutable fabric; every engine built with this injector
routes through that overlay, so routing and bandwidth queries degrade
without any benchmark code knowing about it, and no other engine sees it.

The injector also keeps two logs:

* ``history`` — every fault ever applied (for health reports);
* an *incident* buffer — drained per repetition by the resilient runner,
  becoming the per-cell provenance shown in degraded tables.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..errors import AllocationError, DeviceLostError, TransientKernelError
from ..hw.ids import StackRef
from ..hw.interconnect import FabricHealth
from ..hw.node import Node
from .plan import FaultClock, FaultEvent, FaultKind, FaultPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..telemetry.session import Telemetry

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies one system's fault plan as its clocks advance."""

    def __init__(
        self,
        plan: FaultPlan,
        node: Node,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.plan = plan
        self.node = node
        #: This injector's health overlay: lost stacks and link health.
        self.health = FabricHealth(node.fabric)
        self.clock = FaultClock()
        self.telemetry = telemetry
        self.history: list[str] = []
        self._incidents: dict[str, None] = {}  # ordered de-duplicated set
        self._pending_ticks = plan.tick_events()
        self._stream_events = plan.stream_events()
        self._clock_ratio = 1.0
        self._throttle_noted = False

    def _mark(self, name: str, lane: str | None = None, **args) -> None:
        """Drop an instant marker on the trace timeline (if telemetry on)."""
        if self.telemetry is not None:
            self.telemetry.instant_fault(name, lane=lane, **args)

    # ------------------------------------------------------------------
    # logs
    # ------------------------------------------------------------------

    def note(self, message: str) -> None:
        """Record an incident (per-cell provenance + permanent history)."""
        if message not in self._incidents:
            self._incidents[message] = None
        self.history.append(message)

    def drain(self) -> list[str]:
        """Incidents since the last drain (consumed by the runner)."""
        out = list(self._incidents)
        self._incidents.clear()
        return out

    # ------------------------------------------------------------------
    # the tick clock (advanced once per benchmark repetition)
    # ------------------------------------------------------------------

    def tick(self) -> int:
        now = self.clock.tick()
        if self._clock_ratio != 1.0:
            # Excursions last one tick; clear before applying new events.
            self._clock_ratio = 1.0
            self._throttle_noted = False
        while self._pending_ticks and self._pending_ticks[0].at <= now:
            self._apply(self._pending_ticks.pop(0))
        return now

    def fast_forward(self) -> None:
        """Apply every remaining tick event immediately (health preview)."""
        while self._pending_ticks:
            self._apply(self._pending_ticks.pop(0))

    def _apply(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind is FaultKind.DEVICE_LOSS:
            ref = event.target
            assert isinstance(ref, StackRef)
            if ref not in self.health.down:
                self.health.set_stack_down(ref)
                self.note(f"device {ref} lost (tick {event.at})")
                lane = (
                    self.telemetry.gpu_lane(ref)
                    if self.telemetry is not None
                    else None
                )
                self._mark(
                    f"device {ref} lost", lane=lane,
                    kind="device-loss", tick=event.at,
                )
        elif kind is FaultKind.PLANE_OUTAGE:
            self.health.set_plane_health(int(event.target), 0.0)
            self.note(f"Xe-Link plane {event.target} outage")
            self._mark(
                f"plane {event.target} outage",
                kind="plane-outage", plane=int(event.target),
            )
        elif kind is FaultKind.LINK_DEGRADE:
            factor = event.magnitude if event.magnitude is not None else 0.5
            self.health.set_plane_health(int(event.target), factor)
            self.note(f"Xe-Link plane {event.target} degraded to {factor:g}x")
            self._mark(
                f"plane {event.target} degraded",
                kind="link-degrade", plane=int(event.target), factor=factor,
            )
        elif kind is FaultKind.LINK_CUT:
            a, b = event.target  # type: ignore[misc]
            self.health.set_link_health(a, b, 0.0)
            self.note(f"link {a} -- {b} cut")
            self._mark(
                f"link {a} -- {b} cut", kind="link-cut",
                a=str(a), b=str(b),
            )
        elif kind is FaultKind.DVFS_THROTTLE:
            self._clock_ratio = (
                event.magnitude if event.magnitude is not None else 0.5
            )
            self._mark(
                "DVFS throttle excursion", kind="dvfs-throttle",
                ratio=self._clock_ratio,
            )
        # Stream-driven kinds never reach _apply.

    # ------------------------------------------------------------------
    # device health (engine, driver, benchmarks)
    # ------------------------------------------------------------------

    def is_dead(self, ref: StackRef) -> bool:
        return ref in self.health.down

    def alive(self, refs: Iterable[StackRef]) -> list[StackRef]:
        return [r for r in refs if r not in self.health.down]

    def check_stack(self, *refs: StackRef) -> None:
        """Raise :class:`DeviceLostError` if any endpoint is dead."""
        for ref in refs:
            if ref in self.health.down:
                self.note(f"transfer touched lost device {ref}")
                raise DeviceLostError(f"device {ref} is lost", stack=ref)

    # ------------------------------------------------------------------
    # DVFS throttle (engine clocks)
    # ------------------------------------------------------------------

    def clock_ratio(self) -> float:
        """Current sustained-clock ratio (1.0 outside excursions)."""
        if self._clock_ratio != 1.0 and not self._throttle_noted:
            self._throttle_noted = True
            self.note(
                f"DVFS throttle excursion: clocks at "
                f"{self._clock_ratio:.0%} (tick {self.clock.now})"
            )
        return self._clock_ratio

    # ------------------------------------------------------------------
    # stream-driven faults
    # ------------------------------------------------------------------

    def _fire(self, stream: str) -> FaultEvent | None:
        count = self.clock.advance(stream)
        return self._stream_events.get(stream, {}).get(count)

    def on_kernel(self, key: str) -> None:
        """Called per kernel launch; may raise a transient failure."""
        event = self._fire("kernel")
        if event is not None:
            self.note(f"transient kernel failure injected in {key}")
            self._mark(
                f"transient kernel failure: {key}",
                kind="kernel-transient", kernel=key,
            )
            raise TransientKernelError(
                f"injected transient failure in kernel {key!r}"
            )

    def on_alloc(self, kind: str, nbytes: int) -> None:
        """Called per USM allocation; may raise an allocation failure."""
        event = self._fire("alloc")
        if event is not None:
            self.note(f"USM {kind} allocation of {nbytes} B failed (injected)")
            self._mark(
                f"USM {kind} allocation failed",
                kind="alloc-fail", usm=kind, nbytes=nbytes,
            )
            raise AllocationError(
                f"injected USM {kind} allocation failure ({nbytes} B)"
            )

    def mpi_hang_rank(self, size: int) -> int | None:
        """Rank to hang for this MPI job launch, or None."""
        event = self._fire("mpi-run")
        if event is None or size < 2:
            return None
        rank = int(event.target or 0) % size
        self.note(f"MPI rank {rank} hang injected")
        lane = (
            self.telemetry.rank_lane(rank)
            if self.telemetry is not None
            else None
        )
        self._mark(f"rank {rank} hang", lane=lane, kind="mpi-hang", rank=rank)
        return rank

    def corrupt_payload(self, payload: np.ndarray, src: int, dst: int) -> bool:
        """Flip one byte of *payload* in place when a corruption fires."""
        event = self._fire("mpi-send")
        if event is None:
            return False
        flat = payload.view(np.uint8).reshape(-1)
        if flat.size:
            flat[flat.size // 2] ^= 0xFF
        self.note(f"MPI message {src}->{dst} corrupted in flight")
        lane = (
            self.telemetry.rank_lane(src)
            if self.telemetry is not None
            else None
        )
        self._mark(
            f"message {src}->{dst} corrupted", lane=lane,
            kind="mpi-corruption", src=src, dst=dst,
        )
        return True

    # ------------------------------------------------------------------
    # integrity helper shared with the MPI layer
    # ------------------------------------------------------------------

    @staticmethod
    def checksum(payload: np.ndarray) -> int:
        return zlib.crc32(np.ascontiguousarray(payload).tobytes())

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    @property
    def dead_stacks(self) -> list[StackRef]:
        return sorted(self.health.down)
