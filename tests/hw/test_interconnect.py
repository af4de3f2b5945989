"""Fabric topology: planes, routing, the paper's two-path example."""

import pytest

from repro.errors import TopologyError
from repro.hw.ids import StackRef, parse_stack_ref
from repro.hw.interconnect import (
    HOST,
    Fabric,
    Link,
    LinkKind,
    aurora_planes,
    build_dual_gcd_fabric,
    build_pvc_fabric,
    build_single_device_fabric,
    parity_planes,
)


def _aurora_fabric() -> Fabric:
    return build_pvc_fabric(6, (0, 0, 0, 1, 1, 1), planes=aurora_planes())


class TestPlanes:
    def test_aurora_planes_match_section_iv(self):
        planes = aurora_planes()
        plane_a = {str(r) for r in planes[0]}
        plane_b = {str(r) for r in planes[1]}
        assert plane_a == {"0.0", "1.1", "2.0", "3.0", "4.0", "5.1"}
        assert plane_b == {"0.1", "1.0", "2.1", "3.1", "4.1", "5.0"}

    def test_planes_partition_all_stacks(self):
        planes = aurora_planes()
        union = set(planes[0]) | set(planes[1])
        assert len(union) == 12
        assert not set(planes[0]) & set(planes[1])

    def test_parity_planes_partition(self):
        planes = parity_planes(4)
        union = set(planes[0]) | set(planes[1])
        assert len(union) == 8

    def test_plane_of(self):
        f = _aurora_fabric()
        assert f.plane_of(parse_stack_ref("0.0")) == 0
        assert f.plane_of(parse_stack_ref("1.0")) == 1

    def test_same_plane_example_from_paper(self):
        # "Even though 0.0 and 1.1 Stack are in different positions ...
        # they are connected in a single plane."
        f = _aurora_fabric()
        assert f.same_plane(parse_stack_ref("0.0"), parse_stack_ref("1.1"))
        assert not f.same_plane(parse_stack_ref("0.0"), parse_stack_ref("1.0"))


class TestRouting:
    def test_same_plane_is_one_xelink_hop(self):
        f = _aurora_fabric()
        route = f.route(parse_stack_ref("0.0"), parse_stack_ref("2.0"))
        assert route.n_hops == 1
        assert route.kinds == (LinkKind.XELINK,)

    def test_cross_plane_has_exactly_the_two_paper_paths(self):
        # "to transfer data from 0.0 to 1.0, the driver can use one of two
        # possible paths: 0.0 -> 1.1 -> 1.0 or 0.0 -> 0.1 -> 1.0".
        f = _aurora_fabric()
        routes = f.routes(parse_stack_ref("0.0"), parse_stack_ref("1.0"))
        described = {r.describe() for r in routes}
        assert len(routes) == 2
        assert any("0.1" in d for d in described)
        assert any("1.1" in d for d in described)
        for r in routes:
            assert r.n_hops == 2
            assert set(r.kinds) == {LinkKind.XELINK, LinkKind.MDFI}

    def test_gpu_routes_never_cross_host(self):
        f = _aurora_fabric()
        for r in f.routes(StackRef(0, 0), StackRef(1, 0)):
            for u, v, _ in r.hops:
                assert not (isinstance(u, tuple) and u[0] == HOST)
                assert not (isinstance(v, tuple) and v[0] == HOST)

    def test_local_pair_is_mdfi(self):
        f = _aurora_fabric()
        route = f.route(StackRef(0, 0), StackRef(0, 1))
        assert route.kinds == (LinkKind.MDFI,)

    def test_host_route_stack0_is_direct_pcie(self):
        f = _aurora_fabric()
        route = f.host_route(0, StackRef(0, 0))
        assert route.kinds == (LinkKind.PCIE_GEN5_X16,)

    def test_host_route_stack1_crosses_mdfi(self):
        # Section II: "Data movement from the second Xe-Stack needs to go
        # via the high-speed Stack-to-Stack interconnect".
        f = _aurora_fabric()
        route = f.host_route(0, StackRef(0, 1))
        assert LinkKind.MDFI in route.kinds
        assert LinkKind.PCIE_GEN5_X16 in route.kinds

    def test_route_to_self_rejected(self):
        f = _aurora_fabric()
        with pytest.raises(TopologyError):
            f.route(StackRef(0, 0), StackRef(0, 0))

    def test_bottleneck_bw(self):
        f = _aurora_fabric()
        route = f.route(StackRef(0, 0), StackRef(1, 0))
        bw = route.bottleneck_bw(lambda kind: 1.0)
        assert bw == pytest.approx(LinkKind.XELINK.peak_bw_per_dir)

    def test_route_latency_accumulates(self):
        f = _aurora_fabric()
        one_hop = f.route(StackRef(0, 0), StackRef(0, 1))
        two_hop = f.route(StackRef(0, 0), StackRef(1, 0))
        assert two_hop.latency_s > one_hop.latency_s


class TestBuilders:
    def test_single_device_fabric_h100(self):
        f = build_single_device_fabric(
            4, (0, 0, 1, 1), LinkKind.PCIE_GEN5_X16, LinkKind.NVLINK4
        )
        assert len(f.stacks) == 4
        route = f.route(StackRef(0, 0), StackRef(3, 0))
        assert route.kinds == (LinkKind.NVLINK4,)

    def test_dual_gcd_fabric_mi250(self):
        f = build_dual_gcd_fabric(4, (0, 0, 1, 1))
        assert len(f.stacks) == 8
        local = f.route(StackRef(0, 0), StackRef(0, 1))
        assert local.kinds == (LinkKind.INFINITY_FABRIC,)

    def test_socket_count_mismatch_rejected(self):
        with pytest.raises(TopologyError):
            build_pvc_fabric(4, (0, 0, 1))

    def test_link_to_unknown_endpoint_rejected(self):
        with pytest.raises(TopologyError):
            Fabric(
                [(HOST, 0)],
                [((HOST, 0), StackRef(0, 0), Link(LinkKind.MDFI))],
            )

    def test_xelink_neighbors(self):
        f = _aurora_fabric()
        nbrs = f.xelink_neighbors(parse_stack_ref("0.0"))
        # 0.0's plane has five other members.
        assert len(nbrs) == 5
        assert parse_stack_ref("1.1") in nbrs
