"""The injector: tick/stream firing, fabric overlay, integrity helpers."""

import numpy as np
import pytest

from repro.errors import (
    AllocationError,
    DeviceLostError,
    TopologyError,
    TransientKernelError,
)
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.hw.ids import StackRef
from repro.hw.systems import get_system
from repro.sim.engine import PerfEngine
from repro.sim.noise import QUIET


def _injector(*events, system="aurora", scenario="test"):
    system = get_system(system)
    plan = FaultPlan(scenario=scenario, seed=0, events=tuple(events))
    injector = FaultInjector(plan, system.node)
    engine = PerfEngine(system, noise=QUIET, faults=injector)
    return engine, injector


class TestDeviceLoss:
    def test_loss_applies_at_tick(self):
        ref = StackRef(2, 1)
        engine, inj = _injector(
            FaultEvent(FaultKind.DEVICE_LOSS, at=3, target=ref)
        )
        inj.tick()
        assert not inj.is_dead(ref)
        inj.tick(), inj.tick()
        assert inj.is_dead(ref)
        assert engine.fabric.is_down(ref)
        assert ref not in engine.alive_stacks()

    def test_check_stack_raises(self):
        ref = StackRef(0, 0)
        _, inj = _injector(FaultEvent(FaultKind.DEVICE_LOSS, at=1, target=ref))
        inj.fast_forward()
        with pytest.raises(DeviceLostError):
            inj.check_stack(ref)
        inj.check_stack(StackRef(1, 0))  # survivors stay usable

    def test_scope_clips_to_survivors(self):
        ref = StackRef(0, 0)
        engine, inj = _injector(
            FaultEvent(FaultKind.DEVICE_LOSS, at=1, target=ref)
        )
        inj.fast_forward()
        n = engine.node.n_stacks
        assert len(engine.select_stacks(n)) == n - 1
        assert any("only" in msg for msg in inj.drain())

    def test_routing_avoids_dead_stack(self):
        ref = StackRef(1, 0)
        engine, inj = _injector(
            FaultEvent(FaultKind.DEVICE_LOSS, at=1, target=ref)
        )
        inj.fast_forward()
        fabric = engine.fabric
        with pytest.raises(TopologyError):
            fabric.route(StackRef(0, 0), ref)


class TestFabricDegradation:
    def test_plane_outage_reroutes_with_penalty(self):
        engine, inj = _injector(
            FaultEvent(FaultKind.PLANE_OUTAGE, at=1, target=0, magnitude=0.0)
        )
        clean = PerfEngine(get_system("aurora"), noise=QUIET)
        inj.fast_forward()
        fabric = engine.fabric
        # Find a pair whose route got longer and check the relay penalty.
        hit = [
            (a, b)
            for a, b in __import__("itertools").combinations(
                fabric.alive_stacks, 2
            )
            if a.card != b.card
            and fabric.route(a, b).n_hops > fabric.healthy_hops(a, b)
        ]
        assert hit, "plane outage should lengthen at least one route"
        a, b = hit[0]
        assert engine.transfers.p2p_bw(a, b) < clean.transfers.p2p_bw(a, b)

    def test_link_degrade_halves_bottleneck(self):
        engine, inj = _injector(
            FaultEvent(FaultKind.LINK_DEGRADE, at=1, target=0, magnitude=0.5)
        )
        clean = PerfEngine(get_system("aurora"), noise=QUIET)
        inj.fast_forward()
        fabric = engine.fabric
        degraded = [
            (a, b, f) for a, b, f in fabric.degraded_links if f == 0.5
        ]
        assert degraded
        a, b, _ = degraded[0]
        assert engine.transfers.p2p_bw(a, b) == pytest.approx(
            0.5 * clean.transfers.p2p_bw(a, b), rel=0.2
        )

    def test_link_cut_makes_pair_unroutable(self):
        a, b = StackRef(0, 0), StackRef(0, 1)
        engine, inj = _injector(
            FaultEvent(FaultKind.PLANE_OUTAGE, at=1, target=0, magnitude=0.0),
            FaultEvent(FaultKind.PLANE_OUTAGE, at=1, target=1, magnitude=0.0),
            FaultEvent(FaultKind.LINK_CUT, at=1, target=(a, b)),
        )
        inj.fast_forward()
        with pytest.raises(TopologyError):
            engine.fabric.route(a, b)

    def test_overlay_is_per_injector(self):
        engine, inj = _injector(
            FaultEvent(FaultKind.DEVICE_LOSS, at=1, target=StackRef(0, 0)),
            FaultEvent(FaultKind.PLANE_OUTAGE, at=1, target=0, magnitude=0.0),
        )
        other, other_inj = _injector(
            FaultEvent(FaultKind.DEVICE_LOSS, at=1, target=StackRef(0, 0)),
        )
        inj.fast_forward()
        assert engine.fabric.has_degradation
        assert inj.dead_stacks == [StackRef(0, 0)]
        # Same shared System, different injector: nothing leaked.
        assert other.system is engine.system
        assert not other.fabric.has_degradation
        assert not other_inj.dead_stacks
        assert not PerfEngine(engine.system).fabric.has_degradation


class TestThrottle:
    def test_excursion_lasts_one_tick(self):
        engine, inj = _injector(
            FaultEvent(FaultKind.DVFS_THROTTLE, at=2, magnitude=0.4)
        )
        inj.tick()
        assert inj.clock_ratio() == 1.0
        inj.tick()
        assert inj.clock_ratio() == 0.4
        inj.tick()
        assert inj.clock_ratio() == 1.0

    def test_throttle_slows_kernels(self):
        engine, inj = _injector(
            FaultEvent(FaultKind.DVFS_THROTTLE, at=1, magnitude=0.4)
        )
        clean = PerfEngine(get_system("aurora"), noise=QUIET)
        from repro.dtypes import Precision

        base = clean.fma_rate(Precision.FP64, 1)
        inj.tick()
        assert engine.fma_rate(Precision.FP64, 1) == pytest.approx(
            0.4 * base, rel=0.01
        )


class TestStreamFaults:
    def test_kernel_transient_fires_once(self):
        engine, inj = _injector(
            FaultEvent(FaultKind.KERNEL_TRANSIENT, at=2)
        )
        inj.on_kernel("a")  # op 1: clean
        with pytest.raises(TransientKernelError):
            inj.on_kernel("b")  # op 2: fires
        inj.on_kernel("c")  # op 3: cleared — transient

    def test_alloc_failure_fires_once(self):
        _, inj = _injector(FaultEvent(FaultKind.ALLOC_FAIL, at=1))
        with pytest.raises(AllocationError):
            inj.on_alloc("device", 1024)
        inj.on_alloc("device", 1024)

    def test_hang_rank_modulo_size(self):
        _, inj = _injector(FaultEvent(FaultKind.MPI_HANG, at=1, target=13))
        assert inj.mpi_hang_rank(4) == 13 % 4

    def test_hang_skipped_for_single_rank(self):
        _, inj = _injector(FaultEvent(FaultKind.MPI_HANG, at=1, target=13))
        assert inj.mpi_hang_rank(1) is None


class TestIntegrity:
    def test_corruption_breaks_checksum(self):
        _, inj = _injector(FaultEvent(FaultKind.MPI_CORRUPT, at=1))
        payload = np.arange(64.0)
        before = FaultInjector.checksum(payload)
        assert inj.corrupt_payload(payload, 0, 1)
        assert FaultInjector.checksum(payload) != before

    def test_clean_send_keeps_checksum(self):
        _, inj = _injector(FaultEvent(FaultKind.MPI_CORRUPT, at=5))
        payload = np.arange(64.0)
        before = FaultInjector.checksum(payload)
        assert not inj.corrupt_payload(payload, 0, 1)
        assert FaultInjector.checksum(payload) == before


class TestIncidentLog:
    def test_drain_dedupes_but_history_keeps_all(self):
        _, inj = _injector()
        inj.note("same thing")
        inj.note("same thing")
        inj.note("other thing")
        assert inj.drain() == ["same thing", "other thing"]
        assert inj.drain() == []
        assert inj.history == ["same thing", "same thing", "other thing"]
