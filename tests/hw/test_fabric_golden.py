"""The fabric reproduces the pinned route tables exactly.

``fabric_routes.json`` was recorded from the earlier networkx-based
fabric.  For each paper system it holds every ordered node pair's
``routes()`` (as ``describe()`` strings, or ``"TopologyError"``), its
``healthy_hops``, and the pairs ``is_route_degraded`` flags: once
healthy, and once after ``fast_forward()`` of each topology scenario
(seed 0) plus a two-link cut.
"""

import json
import pathlib

import pytest

from repro.errors import TopologyError
from repro.faults import (
    ExecutionContext,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
)
from repro.hw.ids import StackRef
from repro.hw.interconnect import HOST
from repro.hw.systems import SYSTEM_NAMES, get_system
from repro.sim.engine import PerfEngine

GOLDEN = json.loads(
    pathlib.Path(__file__).with_name("fabric_routes.json").read_text()
)

SCENARIOS = ("device-loss", "plane-outage", "link-degrade", "partition", "all")


def _link_cut_plan(node) -> FaultPlan:
    """Cut 0.0's link to its first neighbour on another card, and the
    on-card link 0.0 -- 0.1 where the card has two devices."""
    a = StackRef(0, 0)
    far = min(
        (
            r
            for r in node.stacks()
            if r.card != 0 and node.fabric.link_between(a, r) is not None
        ),
        key=str,
    )
    events = [FaultEvent(FaultKind.LINK_CUT, at=1, target=(a, far))]
    if node.card.n_devices > 1:
        events.append(
            FaultEvent(FaultKind.LINK_CUT, at=1, target=(a, StackRef(0, 1)))
        )
    return FaultPlan(scenario="link-cut", seed=0, events=tuple(events))


def _engine(name: str, state: str) -> PerfEngine:
    system = get_system(name)
    if state == "healthy":
        return PerfEngine(system)
    if state == "link-cut":
        injector = FaultInjector(_link_cut_plan(system.node), system.node)
        engine = PerfEngine(system, faults=injector)
    else:
        engine = ExecutionContext(state, 0).engine(name)
    engine.faults.fast_forward()
    return engine


def _nodes(node) -> list:
    """Every host socket and stack of *node*, in ``str`` order."""
    hosts = [(HOST, socket) for socket in set(node.socket_of_card)]
    return sorted(hosts + node.fabric.stacks, key=str)


def _pairs(nodes):
    return [(src, dst) for src in nodes for dst in nodes if src != dst]


def _routes(fabric, nodes) -> dict:
    routes, degraded = {}, []
    for src, dst in _pairs(nodes):
        key = f"{src} -> {dst}"
        try:
            routes[key] = [r.describe() for r in fabric.routes(src, dst)]
        except TopologyError:
            routes[key] = "TopologyError"
            continue
        if fabric.is_route_degraded(src, dst):
            degraded.append(key)
    return {"routes": routes, "degraded": degraded}


@pytest.mark.parametrize("state", ("healthy",) + SCENARIOS + ("link-cut",))
@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_routes_match_golden(name, state):
    engine = _engine(name, state)
    fabric, nodes = engine.fabric, _nodes(engine.node)
    golden = GOLDEN[name]
    assert [str(n) for n in nodes] == golden["nodes"]
    assert _routes(fabric, nodes) == golden[state]
    assert {
        f"{src} -> {dst}": fabric.healthy_hops(src, dst)
        for src, dst in _pairs(nodes)
    } == golden["hops"]
