"""Node interconnect model: PCIe host links, intra-card links, GPU fabric.

Two structural facts from the paper drive this module:

1. **Only Stack 0 of a PVC card has the PCIe link** (Section II): host
   traffic for stack 1 first crosses the on-card stack-to-stack (MDFI)
   interconnect.
2. **Xe-Link planes** (Section IV-A.4): although the stacks appear
   all-to-all connected, each stack physically belongs to one of two
   planes.  On Aurora the planes are ``{0.0, 1.1, 2.0, 3.0, 4.0, 5.1}``
   and ``{0.1, 1.0, 2.1, 3.1, 4.1, 5.0}``.  Stacks within a plane are
   directly connected; a transfer between stacks in *different* planes
   needs an extra hop, e.g. ``0.0 -> 1.0`` routes as ``0.0 -> 1.1 -> 1.0``
   or ``0.0 -> 0.1 -> 1.0``.

The fabric is an adjacency map over host sockets and logical devices;
routing runs a breadth-first search and enumerates every minimum-hop
path, so the two alternative paths the paper describes fall out of the
topology.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from ..errors import TopologyError
from .ids import StackRef

__all__ = [
    "LinkKind",
    "Link",
    "Route",
    "Fabric",
    "FabricHealth",
    "FabricView",
    "HOST",
]

#: Graph node representing a host socket: ("host", socket_index).
HOST = "host"


class LinkKind(enum.Enum):
    """Physical link types with their per-direction raw peak bandwidth."""

    PCIE_GEN5_X16 = ("PCIe Gen5 x16", 64e9)
    PCIE_GEN4_X16 = ("PCIe Gen4 x16", 32e9)
    MDFI = ("PVC stack-to-stack", 230e9)
    XELINK = ("Xe-Link", 26.6e9)
    NVLINK4 = ("NVLink 4", 450e9)
    INFINITY_FABRIC = ("Infinity Fabric", 50e9)
    XGMI = ("xGMI GPU bridge", 50e9)

    def __init__(self, label: str, peak_bw_per_dir: float) -> None:
        self.label = label
        self.peak_bw_per_dir = peak_bw_per_dir


@dataclass(frozen=True, slots=True)
class Link:
    """A bidirectional link instance between two fabric endpoints."""

    kind: LinkKind
    #: Small fixed per-message latency (seconds).
    latency_s: float = 2e-6

    @property
    def peak_bw_per_dir(self) -> float:
        return self.kind.peak_bw_per_dir


@dataclass(frozen=True, slots=True)
class Route:
    """An ordered path through the fabric."""

    hops: tuple[tuple[object, object, Link], ...]

    @property
    def n_hops(self) -> int:
        return len(self.hops)

    @property
    def endpoints(self) -> tuple[object, object]:
        return (self.hops[0][0], self.hops[-1][1])

    @property
    def kinds(self) -> tuple[LinkKind, ...]:
        return tuple(link.kind for _, _, link in self.hops)

    @property
    def latency_s(self) -> float:
        return sum(link.latency_s for _, _, link in self.hops)

    def bottleneck_bw(self, efficiency) -> float:
        """Min over hops of ``peak * efficiency(kind)``."""
        return min(
            link.peak_bw_per_dir * efficiency(link.kind)
            for _, _, link in self.hops
        )

    def describe(self) -> str:
        parts = [str(self.hops[0][0])]
        for _, dst, link in self.hops:
            parts.append(f"--{link.kind.name}--> {dst}")
        return " ".join(parts)


class Fabric:
    """The node's interconnect topology, immutable once built.

    Nodes are either ``(HOST, socket)`` tuples or :class:`StackRef`s;
    *links* are ``(a, b, Link)`` triples.  One instance is shared by every
    engine of a system, so it carries no health state: fault injection
    records lost stacks and links in a per-injector :class:`FabricHealth`
    overlay, and each engine reads both through its own
    :class:`FabricView`.
    """

    def __init__(
        self,
        nodes: Iterable,
        links: Iterable[tuple[object, object, Link]],
        planes: Sequence[Iterable[StackRef]] = (),
    ) -> None:
        adj: dict[object, dict[object, Link]] = {n: {} for n in nodes}
        for a, b, link in links:
            if a not in adj or b not in adj:
                raise TopologyError(f"unknown endpoint in {a} -- {b}")
            adj[a][b] = adj[b][a] = link
        self._adj = adj
        self._planes = tuple(frozenset(p) for p in planes)
        # Healthy routes per (src, dst).  The topology never changes, so
        # nothing ever invalidates an entry.
        self._routes: dict[tuple, list[Route]] = {}

    # -- queries --------------------------------------------------------

    @property
    def stacks(self) -> list[StackRef]:
        return sorted(n for n in self._adj if isinstance(n, StackRef))

    @property
    def planes(self) -> tuple[frozenset[StackRef], ...]:
        return self._planes

    def plane_of(self, ref: StackRef) -> int:
        for i, plane in enumerate(self._planes):
            if ref in plane:
                return i
        raise TopologyError(f"{ref} is not in any plane")

    def same_plane(self, a: StackRef, b: StackRef) -> bool:
        return self.plane_of(a) == self.plane_of(b)

    def link_between(self, a, b) -> Link | None:
        return self._adj.get(a, {}).get(b)

    def xelink_neighbors(self, ref: StackRef) -> list[StackRef]:
        return sorted(
            nbr
            for nbr, link in self._adj[ref].items()
            if link.kind is LinkKind.XELINK
        )

    # -- routing --------------------------------------------------------

    def min_hop_routes(
        self,
        src,
        dst,
        down: Collection = (),
        dead_links: Collection[frozenset] = (),
    ) -> list[Route]:
        """Every minimum-hop route from *src* to *dst*, sorted by
        description, avoiding the *down* stacks and *dead_links*.

        Device-to-device routes never detour through a host socket (the
        driver moves GPU buffers over the GPU fabric); for cross-plane PVC
        stack pairs this returns exactly the two 2-hop alternatives the
        paper describes.
        """
        if src == dst:
            raise TopologyError("src == dst")
        adj = self._adj
        if src not in adj or dst not in adj or src in down or dst in down:
            raise TopologyError(f"no route {src} -> {dst}")
        devices_only = isinstance(src, StackRef) and isinstance(dst, StackRef)
        # Breadth-first levels from src, one whole level at a time, until
        # dst is labelled: every level below dst's is then complete.
        level = {src: 0}
        frontier = [src]
        while frontier and dst not in level:
            reached = []
            for u in frontier:
                for v in adj[u]:
                    if (
                        v in level
                        or v in down
                        or (devices_only and not isinstance(v, StackRef))
                        or frozenset((u, v)) in dead_links
                    ):
                        continue
                    level[v] = level[u] + 1
                    reached.append(v)
            frontier = reached
        if dst not in level:
            raise TopologyError(f"no route {src} -> {dst}")
        # Extend backwards from dst through every live link to a node one
        # level nearer src: that enumerates all the shortest paths.
        paths = [(dst,)]
        for depth in range(level[dst] - 1, -1, -1):
            paths = [
                (u,) + path
                for path in paths
                for u in adj[path[0]]
                if level.get(u) == depth
                and frozenset((u, path[0])) not in dead_links
            ]
        routes = [
            Route(tuple((u, v, adj[u][v]) for u, v in zip(path, path[1:])))
            for path in paths
        ]
        routes.sort(key=Route.describe)
        return routes

    def routes(self, src, dst) -> list[Route]:
        """All healthy minimum-hop routes from *src* to *dst*."""
        cached = self._routes.get((src, dst))
        if cached is None:
            cached = self._routes[(src, dst)] = self.min_hop_routes(src, dst)
        return list(cached)

    def route(self, src, dst) -> Route:
        """A deterministic best (minimum-hop, lexicographically first) route."""
        return self.routes(src, dst)[0]

    def host_route(self, socket: int, ref: StackRef) -> Route:
        """Route from a host socket to a stack (via PCIe, + MDFI if needed)."""
        return self.route((HOST, socket), ref)


class FabricHealth:
    """One fault injector's health overlay on a shared :class:`Fabric`.

    Lost stacks and scaled links are recorded here, never on the fabric,
    so any number of injectors degrade the same topology independently.
    Routes that must avoid the overlay's dead stacks or links are cached
    here as well.  Every mutator drops that cache, and only the owning
    injector's ``_apply`` calls the mutators.
    """

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric
        self.down: set[StackRef] = set()
        #: Bandwidth factor per link (``frozenset`` of its endpoints):
        #: 1.0 healthy, 0.0 outage.
        self.link_health: dict[frozenset, float] = {}
        self._dead_links: set[frozenset] = set()
        self._routes: dict[tuple, list[Route]] = {}

    def set_stack_down(self, ref: StackRef) -> None:
        """Mark a stack as lost: it disappears from routing and enumeration."""
        if ref not in self.fabric.stacks:
            raise TopologyError(f"unknown stack {ref}")
        self.down.add(ref)
        self._routes.clear()

    def set_link_health(self, a, b, factor: float) -> None:
        """Scale a link's bandwidth: 1.0 healthy, 0.0 outage."""
        if self.fabric.link_between(a, b) is None:
            raise TopologyError(f"no link {a} -- {b}")
        if not (0.0 <= factor <= 1.0):
            raise TopologyError(f"bad link health {factor}")
        key = frozenset((a, b))
        self.link_health[key] = factor
        if factor == 0.0:
            self._dead_links.add(key)
        else:
            self._dead_links.discard(key)
        self._routes.clear()

    def set_plane_health(self, plane_index: int, factor: float) -> None:
        """Degrade (or kill, factor=0) every Xe-Link edge inside a plane."""
        try:
            plane = self.fabric.planes[plane_index]
        except IndexError:
            raise TopologyError(f"no plane {plane_index}") from None
        for a, b in itertools.combinations(sorted(plane), 2):
            link = self.fabric.link_between(a, b)
            if link is not None and link.kind is LinkKind.XELINK:
                self.set_link_health(a, b, factor)

    def routes(self, src, dst) -> list[Route]:
        """All minimum-hop routes that avoid dead stacks and links."""
        if not self.down and not self._dead_links:
            return self.fabric.routes(src, dst)
        cached = self._routes.get((src, dst))
        if cached is None:
            cached = self._routes[(src, dst)] = self.fabric.min_hop_routes(
                src, dst, self.down, self._dead_links
            )
        return list(cached)


class FabricView:
    """One engine's view of its node's fabric.

    The shared topology, seen through the engine's fault overlay (an
    empty one that nothing mutates on a clean engine), plus the engine's
    own routing observer: called as ``fn(src, dst, route)`` on every
    :meth:`route` decision, it must not call :meth:`route` back.
    """

    __slots__ = ("topology", "health", "_observer")

    def __init__(
        self,
        topology: Fabric,
        health: FabricHealth | None = None,
        observer=None,
    ) -> None:
        self.topology = topology
        self.health = health if health is not None else FabricHealth(topology)
        self._observer = observer

    # -- health ---------------------------------------------------------

    def is_down(self, ref) -> bool:
        return ref in self.health.down

    def link_health(self, a, b) -> float:
        return self.health.link_health.get(frozenset((a, b)), 1.0)

    @property
    def has_degradation(self) -> bool:
        return bool(self.health.down) or any(
            f < 1.0 for f in self.health.link_health.values()
        )

    @property
    def down_stacks(self) -> list[StackRef]:
        return sorted(self.health.down)

    @property
    def alive_stacks(self) -> list[StackRef]:
        return [s for s in self.topology.stacks if not self.is_down(s)]

    @property
    def degraded_links(self) -> list[tuple[object, object, float]]:
        """(a, b, health) for every link whose health is below 1.0."""
        out = []
        for key, health in self.health.link_health.items():
            if health < 1.0:
                a, b = sorted(key, key=str)
                out.append((a, b, health))
        return sorted(out, key=lambda t: (str(t[0]), str(t[1])))

    # -- routing --------------------------------------------------------

    def routes(self, src, dst) -> list[Route]:
        """All minimum-hop routes (plus ties) over the live fabric."""
        return self.health.routes(src, dst)

    def route(self, src, dst) -> Route:
        """A deterministic best (minimum-hop, lexicographically first) route."""
        route = self.routes(src, dst)[0]
        if self._observer is not None:
            self._observer(src, dst, route)
        return route

    def host_route(self, socket: int, ref: StackRef) -> Route:
        """Route from a host socket to a stack (via PCIe, + MDFI if needed)."""
        return self.route((HOST, socket), ref)

    def healthy_hops(self, src, dst) -> int:
        """Minimum hop count of the healthy topology.

        The degraded-routing model compares the current route against this
        baseline: extra hops forced by dead links cost relay efficiency.
        """
        return self.topology.route(src, dst).n_hops

    def is_route_degraded(self, src, dst) -> bool:
        """True when the best live route is longer than the healthy route
        or crosses a bandwidth-degraded link."""
        if not self.has_degradation:
            return False
        route = self.route(src, dst)  # raises TopologyError if unroutable
        if route.n_hops > self.healthy_hops(src, dst):
            return True
        return any(self.link_health(u, v) < 1.0 for u, v, _ in route.hops)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def aurora_planes() -> list[list[StackRef]]:
    """The Aurora Xe-Link plane assignment quoted verbatim in Section IV-A."""
    plane_a = ["0.0", "1.1", "2.0", "3.0", "4.0", "5.1"]
    plane_b = ["0.1", "1.0", "2.1", "3.1", "4.1", "5.0"]
    from .ids import parse_stack_ref

    return [[parse_stack_ref(s) for s in plane_a],
            [parse_stack_ref(s) for s in plane_b]]


def parity_planes(n_cards: int) -> list[list[StackRef]]:
    """A generic two-plane assignment for systems whose exact wiring the
    paper does not publish (Dawn): alternate stacks by card parity."""
    plane_a, plane_b = [], []
    for card in range(n_cards):
        first, second = StackRef(card, 0), StackRef(card, 1)
        if card % 2 == 0:
            plane_a.append(first)
            plane_b.append(second)
        else:
            plane_a.append(second)
            plane_b.append(first)
    return [plane_a, plane_b]


def build_pvc_fabric(
    n_cards: int,
    socket_of_card: Sequence[int],
    planes: Sequence[Iterable[StackRef]] | None = None,
    pcie: LinkKind = LinkKind.PCIE_GEN5_X16,
) -> Fabric:
    """Fabric for a PVC node: per-card PCIe on stack 0, MDFI between
    siblings, all-to-all Xe-Link within each plane."""
    if len(socket_of_card) != n_cards:
        raise TopologyError("socket_of_card length mismatch")
    nodes: list = [(HOST, socket) for socket in sorted(set(socket_of_card))]
    links = []
    for card in range(n_cards):
        s0, s1 = StackRef(card, 0), StackRef(card, 1)
        nodes += [s0, s1]
        links.append(((HOST, socket_of_card[card]), s0, Link(pcie)))
        links.append((s0, s1, Link(LinkKind.MDFI, latency_s=0.5e-6)))
    if planes is None:
        planes = parity_planes(n_cards)
    planes = [sorted(plane) for plane in planes]
    for plane in planes:
        for a, b in itertools.combinations(plane, 2):
            links.append((a, b, Link(LinkKind.XELINK, latency_s=1.5e-6)))
    return Fabric(nodes, links, planes)


def build_single_device_fabric(
    n_cards: int,
    socket_of_card: Sequence[int],
    pcie: LinkKind,
    gpu_link: LinkKind,
) -> Fabric:
    """Fabric for single-device cards (H100 node): PCIe per GPU plus an
    all-to-all GPU link (NVLink/NVSwitch abstracted as direct links)."""
    refs = [StackRef(card, 0) for card in range(n_cards)]
    nodes = [(HOST, socket) for socket in sorted(set(socket_of_card))] + refs
    links = [
        ((HOST, socket_of_card[card]), ref, Link(pcie))
        for card, ref in enumerate(refs)
    ]
    links += [
        (a, b, Link(gpu_link, latency_s=1.0e-6))
        for a, b in itertools.combinations(refs, 2)
    ]
    return Fabric(nodes, links, [refs])


def build_dual_gcd_fabric(
    n_cards: int,
    socket_of_card: Sequence[int],
    pcie: LinkKind = LinkKind.PCIE_GEN4_X16,
) -> Fabric:
    """Fabric for the MI250 node: each card's GCD 0 on PCIe, Infinity
    Fabric between sibling GCDs and xGMI between cards."""
    nodes: list = [(HOST, socket) for socket in sorted(set(socket_of_card))]
    links = []
    for card in range(n_cards):
        g0, g1 = StackRef(card, 0), StackRef(card, 1)
        nodes += [g0, g1]
        links.append(((HOST, socket_of_card[card]), g0, Link(pcie)))
        links.append(
            (g0, g1, Link(LinkKind.INFINITY_FABRIC, latency_s=1.0e-6))
        )
    links += [
        (StackRef(a, 0), StackRef(b, 0), Link(LinkKind.XGMI, latency_s=1.5e-6))
        for a, b in itertools.combinations(range(n_cards), 2)
    ]
    return Fabric(nodes, links, parity_planes(n_cards))
