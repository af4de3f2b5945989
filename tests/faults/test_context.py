"""ExecutionContext: engine caching, status accounting, isolation."""

import itertools

import pytest

from repro.core.result import CellStatus
from repro.errors import ScenarioError
from repro.faults import ExecutionContext
from repro.hw.ids import StackRef
from repro.hw.systems import get_system
from repro.sim.engine import PerfEngine
from repro.sim.noise import QUIET


class TestLifecycle:
    def test_inactive_by_default(self):
        ctx = ExecutionContext()
        assert not ctx.active
        assert ctx.engine("aurora").faults is None
        assert ctx.exit_code() == 0
        assert ctx.describe() == "fault injection: off"

    def test_active_engines_carry_injector(self):
        ctx = ExecutionContext("device-loss", 0)
        engine = ctx.engine("aurora")
        assert engine.faults is not None
        assert engine.faults.plan.scenario == "device-loss"
        assert ctx.engine("aurora") is engine  # cached

    def test_bad_scenario_rejected_eagerly(self):
        with pytest.raises(ScenarioError):
            ExecutionContext("meteor-strike", 0)


class TestStatusAccounting:
    def test_worst_status_wins(self):
        ctx = ExecutionContext("device-loss", 0)
        ctx.record(CellStatus.OK)
        assert ctx.exit_code() == 0
        ctx.record(CellStatus.DEGRADED)
        ctx.record(CellStatus.OK)
        assert ctx.exit_code() == 1
        ctx.record(CellStatus.FAILED)
        assert ctx.exit_code() == 2
        ctx.record(CellStatus.DEGRADED)
        assert ctx.worst_status is CellStatus.FAILED


class TestIsolation:
    def test_fabric_mutations_do_not_leak(self):
        clean = PerfEngine(get_system("aurora"), noise=QUIET)
        pairs = list(itertools.permutations(clean.node.stacks(), 2))
        before = [clean.transfers.p2p_bw(a, b) for a, b in pairs]
        ctx = ExecutionContext("device-loss", 0)
        engine = ctx.engine("aurora")
        engine.faults.fast_forward()
        assert engine.fabric.has_degradation
        assert engine.system is clean.system  # one shared System
        # The injector's overlay is its own: an existing clean engine, a
        # new one, and any other context all see a pristine fabric.
        fresh = PerfEngine(get_system("aurora"), noise=QUIET)
        other = ExecutionContext("device-loss", 0).engine("aurora")
        for view in (clean, fresh, other):
            assert not view.fabric.has_degradation
            assert not view.fabric.down_stacks
            assert [view.transfers.p2p_bw(a, b) for a, b in pairs] == before

    @pytest.mark.parametrize(
        "scenario, faulty",
        [
            (
                "plane-outage",
                [(1, False, 201), (2, False, 282), (3, False, 135)],
            ),
            ("device-loss", [(1, False, 280), (2, False, 237)]),
            ("partition", [(1, False, 192), (2, False, 237), (3, False, 90)]),
            (
                "link-degrade",
                [
                    (1, False, 201),
                    (1, True, 135),
                    (2, False, 143),
                    (2, True, 139),
                ],
            ),
        ],
    )
    def test_route_counts_are_per_engine(self, scenario, faulty):
        # Two telemetry engines on the one shared System each count only
        # their own routing decisions, including the route() calls made
        # by is_route_degraded and node_health.  The figures were pinned
        # when every engine still built its own System.
        from repro.errors import DeviceLostError, TopologyError
        from repro.hw.selfcheck import node_health
        from repro.telemetry import Telemetry

        def exercise(engine):
            stacks = engine.node.stacks()
            for a, b in itertools.permutations(stacks, 2):
                try:
                    engine.p2p_transfer_time(a, b, 1 << 20)
                except (DeviceLostError, TopologyError):
                    pass
            for ref in stacks:
                try:
                    engine.host_transfer_time(ref, 1 << 20)
                except (DeviceLostError, TopologyError):
                    pass
            node_health(engine)

        def counts(telemetry):
            return sorted(
                (
                    int(dict(labels)["hops"]),
                    dict(labels)["degraded"] == "true",
                    int(value),
                )
                for labels, value in telemetry.metrics.counter(
                    "route.count"
                ).samples()
            )

        ta, tb = Telemetry(), Telemetry()
        injected = ExecutionContext(scenario, 0, telemetry=ta).engine("aurora")
        clean = ExecutionContext(None, 0, telemetry=tb).engine("aurora")
        assert injected.system is clean.system
        injected.faults.fast_forward()
        exercise(injected)
        exercise(clean)
        assert counts(ta) == faulty
        assert counts(tb) == [(1, False, 264), (2, False, 222)]

    def test_same_seed_same_plan_across_contexts(self):
        a = ExecutionContext("all", 5).engine("aurora").faults.plan
        b = ExecutionContext("all", 5).engine("aurora").faults.plan
        assert a.describe() == b.describe()


class TestReporting:
    def test_describe_lists_materialised_systems(self):
        ctx = ExecutionContext("throttle", 0)
        ctx.engine("aurora")
        ctx.engine("dawn")
        text = ctx.describe()
        assert "scenario 'throttle'" in text
        assert "aurora:" in text and "dawn:" in text

    def test_incident_log_prefixes_system(self):
        ctx = ExecutionContext("device-loss", 0)
        ctx.engine("aurora").faults.fast_forward()
        log = ctx.incident_log()
        assert log and all(entry.startswith("aurora: ") for entry in log)


class TestHealthReport:
    def test_clean_node_healthy(self):
        from repro.hw.selfcheck import node_health

        report = node_health(PerfEngine(get_system("aurora")))
        assert report.healthy
        assert "HEALTHY" in report.render()

    def test_injected_node_degraded(self):
        from repro.hw.selfcheck import node_health

        ctx = ExecutionContext("device-loss", 0)
        engine = ctx.engine("aurora")
        engine.faults.fast_forward()
        report = node_health(engine)
        assert not report.healthy
        assert report.dead_stacks
        assert "DEGRADED" in report.render()

    def test_partition_counts_unroutable_pairs(self):
        from repro.hw.selfcheck import node_health

        ctx = ExecutionContext("partition", 0)
        engine = ctx.engine("aurora")
        engine.faults.fast_forward()
        report = node_health(engine)
        assert report.unroutable_pairs > 0
