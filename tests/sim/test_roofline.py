"""Roofline arithmetic."""

import pytest

from repro.sim.kernel import KernelSpec
from repro.sim.roofline import RooflinePoint, kernel_time


def _spec(flops=0.0, rbytes=0.0, wbytes=0.0, chases=0):
    return KernelSpec(
        "k",
        flops=flops,
        bytes_read=rbytes,
        bytes_written=wbytes,
        serial_chases=chases,
        working_set_bytes=1,
    )


class TestKernelTime:
    def test_compute_bound(self):
        pt = kernel_time(_spec(flops=100.0, rbytes=1.0), 10.0, 1000.0)
        assert pt.bound == "compute"
        assert pt.total_s == pytest.approx(10.0)

    def test_memory_bound(self):
        pt = kernel_time(_spec(flops=1.0, rbytes=1000.0), 1000.0, 10.0)
        assert pt.bound == "memory"
        assert pt.total_s == pytest.approx(100.0)

    def test_overlap_takes_max_not_sum(self):
        pt = kernel_time(_spec(flops=100.0, rbytes=100.0), 10.0, 10.0)
        assert pt.total_s == pytest.approx(10.0)

    def test_latency_term_added_serially(self):
        pt = kernel_time(
            _spec(flops=100.0, chases=20), 10.0, 1e9, chase_latency_s=1.0
        )
        assert pt.bound == "latency"
        assert pt.total_s == pytest.approx(10.0 + 20.0)

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            kernel_time(_spec(flops=1.0), 0.0, 1.0)
        with pytest.raises(ValueError):
            kernel_time(_spec(flops=1.0), 1.0, -1.0)


class TestBoundRule:
    def test_ties_resolve_as_the_one_rule_says(self):
        assert RooflinePoint(1.0, 1.0, 0.0).bound == "compute"
        assert RooflinePoint(1.0, 2.0, 2.0).bound == "memory"
        assert RooflinePoint(1.0, 2.0, 2.5).bound == "latency"

    def test_regime_gauge_keeps_its_codes(self):
        from repro.sim.engine import _REGIME_CODE

        assert _REGIME_CODE == {"latency": 0.0, "memory": 1.0, "compute": 2.0}
