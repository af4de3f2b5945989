"""Level-Zero-style device discovery and affinity masking.

The paper controls which PVC stacks each MPI rank sees with the
``ZE_AFFINITY_MASK`` environment variable ("similar to
CUDA_VISIBLE_DEVICES", Section IV-A).  This module reproduces those
semantics over a :class:`repro.hw.node.Node`:

* mask entries are either whole cards (``"0"``) or single stacks
  (``"0.1"``); a comma-separated list selects several;
* selected devices are renumbered densely in mask order, exactly like the
  real driver;
* ``ZE_FLAT_DEVICE_HIERARCHY`` chooses whether each *stack* (FLAT) or each
  *card* (COMPOSITE) appears as a root device.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AffinityError, DeviceLostError
from ..hw.ids import StackRef
from ..hw.interconnect import FabricView
from ..hw.node import Node

__all__ = ["ZeDriver", "ZeDevice", "parse_affinity_mask", "FLAT", "COMPOSITE"]

FLAT = "FLAT"
COMPOSITE = "COMPOSITE"


@dataclass(frozen=True, slots=True)
class ZeDevice:
    """A root device as exposed by the driver.

    In FLAT hierarchy each device wraps one stack; in COMPOSITE it wraps a
    whole card and exposes its stacks as sub-devices.
    """

    index: int
    stacks: tuple[StackRef, ...]

    @property
    def n_sub_devices(self) -> int:
        return len(self.stacks)

    def sub_device(self, i: int) -> StackRef:
        try:
            return self.stacks[i]
        except IndexError:
            raise AffinityError(
                f"device {self.index} has no sub-device {i}"
            ) from None


def parse_affinity_mask(mask: str, node: Node) -> list[StackRef]:
    """Expand a ``ZE_AFFINITY_MASK`` string to stack references.

    >>> # "0,1.1" -> both stacks of card 0, then stack 1 of card 1
    """
    out: list[StackRef] = []
    n_sub = node.card.n_devices
    for entry in mask.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(".")
        try:
            card = int(parts[0])
        except ValueError:
            raise AffinityError(f"bad mask entry {entry!r}") from None
        if not (0 <= card < node.n_cards):
            raise AffinityError(f"mask references missing card {card}")
        if len(parts) == 1:
            out.extend(StackRef(card, s) for s in range(n_sub))
        elif len(parts) == 2:
            try:
                stack = int(parts[1])
            except ValueError:
                raise AffinityError(f"bad mask entry {entry!r}") from None
            if not (0 <= stack < n_sub):
                raise AffinityError(
                    f"mask references missing stack {card}.{stack}"
                )
            out.append(StackRef(card, stack))
        else:
            raise AffinityError(f"bad mask entry {entry!r}")
    if not out:
        raise AffinityError(f"mask selects no devices: {mask!r}")
    seen = set()
    unique = []
    for ref in out:
        if ref not in seen:
            seen.add(ref)
            unique.append(ref)
    return unique


class ZeDriver:
    """Device discovery for one node under an optional affinity mask.

    Lost stacks are read from *fabric*, the engine's view of the node
    (by default the healthy node fabric).
    """

    def __init__(
        self,
        node: Node,
        affinity_mask: str | None = None,
        hierarchy: str = FLAT,
        *,
        profiler=None,
        fabric: FabricView | None = None,
    ) -> None:
        if hierarchy not in (FLAT, COMPOSITE):
            raise AffinityError(f"bad hierarchy {hierarchy!r}")
        self.node = node
        self.hierarchy = hierarchy
        self._profiler = profiler
        if profiler is not None:
            from ..profiler.core import ZE_DRIVER_POINTS

            profiler.register("ze", *ZE_DRIVER_POINTS)
            profiler.record("zeInit", "ze")
            profiler.record("zeDeviceGet", "ze")
        if affinity_mask is None:
            selected = node.stacks()
        else:
            selected = parse_affinity_mask(affinity_mask, node)
        # Like the real driver, stacks that dropped off the bus simply do
        # not enumerate; callers see the survivors, densely renumbered.
        if fabric is None:
            fabric = FabricView(node.fabric)
        self._visible = [r for r in selected if not fabric.is_down(r)]
        self.excluded: list[StackRef] = [
            r for r in selected if fabric.is_down(r)
        ]
        if not self._visible:
            raise DeviceLostError(
                "no devices enumerate: "
                f"{', '.join(str(r) for r in self.excluded)} lost"
            )

    @property
    def visible_stacks(self) -> list[StackRef]:
        return list(self._visible)

    def devices(self) -> list[ZeDevice]:
        """Root devices in mask order, renumbered densely."""
        if self._profiler is not None:
            self._profiler.record("zeDeviceGetSubDevices", "ze")
        if self.hierarchy == FLAT:
            return [
                ZeDevice(index=i, stacks=(ref,))
                for i, ref in enumerate(self._visible)
            ]
        # COMPOSITE: group visible stacks by card, preserving order.
        by_card: dict[int, list[StackRef]] = {}
        order: list[int] = []
        for ref in self._visible:
            if ref.card not in by_card:
                order.append(ref.card)
            by_card.setdefault(ref.card, []).append(ref)
        return [
            ZeDevice(index=i, stacks=tuple(by_card[card]))
            for i, card in enumerate(order)
        ]

    def device_count(self) -> int:
        return len(self.devices())
