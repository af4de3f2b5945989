"""Roofline time estimation.

The classic roofline: a kernel's time is the maximum of its compute time
and its memory time (overlapped execution), plus a serialized
latency term for dependent-load chains (which overlap with nothing).

This module is pure arithmetic — the engine supplies achieved rates that
already fold in calibration and scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import KernelSpec

__all__ = ["BOUND_CODES", "BOUND_LABELS", "RooflinePoint", "kernel_time"]

#: Bound regime per integer code: the batch engine's ``bound_code``
#: column and the engine's ``roofline.regime`` gauge use these codes.
BOUND_LABELS: tuple[str, ...] = ("latency", "memory", "compute")
BOUND_CODES = {label: code for code, label in enumerate(BOUND_LABELS)}


@dataclass(frozen=True, slots=True)
class RooflinePoint:
    """Diagnostic decomposition of a kernel's roofline time.

    ``compute_rate``/``mem_bw`` stash the achieved-rate ceilings the
    model was evaluated with, so the profiler can attribute a kernel
    without re-querying the engine (which would re-trigger
    fault-injection notes).
    """

    compute_s: float
    memory_s: float
    latency_s: float
    compute_rate: float = 0.0
    mem_bw: float = 0.0

    @property
    def total_s(self) -> float:
        return max(self.compute_s, self.memory_s) + self.latency_s

    @property
    def bound(self) -> str:
        """The binding regime: the one bound rule every caller uses."""
        if self.latency_s > max(self.compute_s, self.memory_s):
            return "latency"
        return "compute" if self.compute_s >= self.memory_s else "memory"


def kernel_time(
    spec: KernelSpec,
    compute_rate: float,
    mem_bw: float,
    chase_latency_s: float = 0.0,
) -> RooflinePoint:
    """Roofline execution time of *spec*.

    Parameters
    ----------
    compute_rate:
        Achieved flop/s (or iop/s) for this kernel's precision/engine.
    mem_bw:
        Achieved device-memory bandwidth in B/s.
    chase_latency_s:
        Load-to-use latency per dependent access (for pointer chases).
    """
    if compute_rate <= 0 or mem_bw <= 0:
        raise ValueError("rates must be positive")
    compute_s = spec.flops / compute_rate if spec.flops else 0.0
    memory_s = spec.total_bytes / mem_bw if spec.total_bytes else 0.0
    latency_s = spec.serial_chases * chase_latency_s
    return RooflinePoint(
        compute_s, memory_s, latency_s,
        compute_rate=compute_rate, mem_bw=mem_bw,
    )
