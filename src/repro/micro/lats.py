"""Memory access latency: the ``lats`` pointer chase (Section IV-A.7).

"The lats benchmark measures the memory access latency by chasing
pointers on arrays of various lengths to determine the different levels
of the memory hierarchy.  It was originally designed to chase the
pointers in a ring ... We modified this benchmark to perform the same
operation simultaneously on one sub-group or warp (Coalesced Access)
with 16 work-items."

Two legs:

* the **functional chase** really builds the pointer array (a single
  Hamiltonian cycle, so the chase provably touches every cache line) and
  follows it, in ring or coalesced-16 mode;
* the **latency curve** queries the device's memory-hierarchy model,
  producing the Figure 1 staircase (L1 -> L2 -> HBM in cycles).
"""

from __future__ import annotations

import numpy as np

from ..core.registry import register
from ..core.result import BenchmarkResult, DeviceScope, Measurement, SampleSet
from ..core.runner import RunPlan, Runner
from ..core.units import KIB
from ..sim.engine import PerfEngine
from .common import MicroBenchmark

__all__ = [
    "build_chain",
    "chase",
    "chase_coalesced",
    "Lats",
    "latency_curve",
    "default_sizes",
]

#: The coalesced variant uses one sub-group of 16 work-items.
SUBGROUP_SIZE = 16

#: One pointer per cache line, like the original benchmark.
STRIDE_BYTES = 64


def build_chain(n: int, seed: int = 0, ring: bool = False) -> np.ndarray:
    """A pointer array forming a single cycle over all *n* slots.

    ``ring=True`` gives the original sequential ring (``i -> i+1``);
    otherwise a random single cycle (Sattolo's algorithm) defeats any
    prefetcher, as latency benchmarks require.
    """
    if n < 2:
        raise ValueError("need at least two slots")
    if ring:
        chain = np.roll(np.arange(n, dtype=np.int64), -1)
        return chain
    rng = np.random.default_rng(seed)
    perm = np.arange(n, dtype=np.int64)
    # Sattolo's algorithm: a uniformly random cyclic permutation.
    for i in range(n - 1, 0, -1):
        j = rng.integers(0, i)
        perm[i], perm[j] = perm[j], perm[i]
    chain = np.empty(n, dtype=np.int64)
    # perm, read as a cycle (perm[0] -> perm[1] -> ... -> perm[0]),
    # becomes the successor array.
    chain[perm[:-1]] = perm[1:]
    chain[perm[-1]] = perm[0]
    return chain


def chase(chain: np.ndarray, steps: int, start: int = 0) -> int:
    """Follow *steps* dependent loads; returns the final index."""
    idx = int(start)
    for _ in range(steps):
        idx = int(chain[idx])
    return idx


def chase_coalesced(
    chain: np.ndarray, steps: int, width: int = SUBGROUP_SIZE
) -> np.ndarray:
    """The coalesced variant: *width* work-items chase in lockstep.

    Work-item *w* starts at slot *w*; each step is one gathered load for
    the whole sub-group (what the modified benchmark measures on GPUs).
    """
    if width < 1 or width > len(chain):
        raise ValueError("bad sub-group width")
    idx = np.arange(width, dtype=np.int64)
    for _ in range(steps):
        idx = chain[idx]
    return idx


def default_sizes(max_bytes: int = 8 << 30) -> np.ndarray:
    """Working-set sizes: powers of two from 16 KiB up, plus midpoints."""
    sizes = []
    s = 16 * KIB
    while s <= max_bytes:
        sizes.append(s)
        sizes.append(s + s // 2)
        s *= 2
    return np.array(sizes[:-1], dtype=np.int64)


def latency_curve(
    engine: PerfEngine, sizes: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(sizes, latency_cycles) — one Figure 1 series."""
    if sizes is None:
        sizes = default_sizes(engine.device.hbm_capacity_bytes // 2)
    lats = np.array([engine.latency_cycles(int(s)) for s in sizes])
    return sizes, lats


@register(
    name="lats",
    category="micro",
    programming_model="SYCL, CUDA, HIP",
    description=(
        "Measure the access latency of different levels of the memory "
        "hierarchy"
    ),
)
class Lats(MicroBenchmark):
    """Figure 1: latency (cycles) at one working-set size."""

    def __init__(
        self,
        working_set_bytes: int = 64 * KIB,
        coalesced: bool = True,
        functional_slots: int = 4096,
        chase_steps: int = 2048,
    ) -> None:
        self.working_set_bytes = working_set_bytes
        self.coalesced = coalesced
        self.functional_slots = functional_slots
        self.chase_steps = chase_steps

    def params(self) -> dict:
        return {
            "working_set_bytes": self.working_set_bytes,
            "coalesced": self.coalesced,
        }

    def _measure_once(
        self, engine: PerfEngine, n_stacks: int, rep: int
    ) -> Measurement:
        # Functional chase on a small chain (proves the harness logic).
        # Not memoised: the chain is seeded by ``rep``, so every
        # repetition checks a different permutation.
        chain = build_chain(self.functional_slots, seed=rep)
        if self.coalesced:
            idx = chase_coalesced(chain, self.functional_slots)
            # After exactly n steps around a single n-cycle, every lane
            # returns to its start.
            if not np.array_equal(idx, np.arange(SUBGROUP_SIZE)):
                raise AssertionError("coalesced chase left its cycle")
        else:
            if chase(chain, self.functional_slots) != 0:
                raise AssertionError("ring chase left its cycle")

        # Timed leg: dependent loads at the model's level latency.
        lat_s = engine.latency_seconds(self.working_set_bytes)
        elapsed = engine.noise.apply(
            self.chase_steps * lat_s,
            f"{engine.system.name}:lats:{self.working_set_bytes}",
            rep,
        )
        # Work = chase steps; rate unit is loads/s, but the quantity of
        # interest is cycles/load, exposed via `latency_cycles`.
        return Measurement(
            elapsed_s=elapsed, work=float(self.chase_steps), unit="load/s"
        )

    def latency_cycles(self, engine: PerfEngine) -> float:
        """The Figure 1 y-value for this working-set size."""
        return engine.latency_cycles(self.working_set_bytes)
