"""System factories must match the node inventories of Section III."""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.core.units import GB
from repro.dtypes import Precision
from repro.errors import UnknownSystemError
from repro.hw.interconnect import Fabric
from repro.hw.systems import SYSTEM_NAMES, all_systems, get_system

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def _run_python(code: str, cwd) -> str:
    """Run *code* in a fresh interpreter and return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestInventory:
    def test_aurora_six_pvc_two_52core_sockets(self):
        node = get_system("aurora").node
        assert node.n_cards == 6
        assert node.n_stacks == 12
        assert all(s.cores == 52 for s in node.sockets)
        assert all(s.threads == 104 for s in node.sockets)
        assert all(s.hbm_capacity_bytes == 64 * GB for s in node.sockets)

    def test_aurora_56_active_xe_cores(self):
        dev = get_system("aurora").device
        assert dev.spec is not None
        assert dev.spec.active_xe_cores == 56

    def test_dawn_four_pvc_64_cores_per_stack(self):
        system = get_system("dawn")
        assert system.node.n_cards == 4
        assert system.node.n_stacks == 8
        assert system.device.spec.active_xe_cores == 64
        assert all(s.cores == 48 for s in system.node.sockets)

    def test_power_caps(self):
        # 600 W on Dawn, 500 W on Aurora (Section III).
        assert get_system("aurora").device.frequency.power_cap_w == 500.0
        assert get_system("dawn").device.frequency.power_cap_w == 600.0

    def test_h100_node(self):
        node = get_system("jlse-h100").node
        assert node.n_cards == 4
        assert node.n_stacks == 4
        assert node.device.hbm_capacity_bytes == 80 * GB

    def test_mi250_node(self):
        node = get_system("jlse-mi250").node
        assert node.n_cards == 4
        assert node.n_stacks == 8  # two GCDs per card
        assert all(s.cores == 64 for s in node.sockets)

    def test_cards_split_across_sockets(self):
        for system in all_systems():
            node = system.node
            per_socket = [node.gpus_per_socket(s) for s in range(2)]
            assert sum(per_socket) == node.n_cards
            assert abs(per_socket[0] - per_socket[1]) <= 0


class TestPeaks:
    def test_aurora_stack_peaks_match_paper_arithmetic(self, aurora):
        dev = aurora.device
        assert dev.peak_flops(Precision.FP64) == pytest.approx(17.2e12, rel=1e-3)
        assert dev.peak_flops(Precision.FP32) == pytest.approx(22.9e12, rel=1e-2)

    def test_dawn_stack_peaks(self, dawn):
        dev = dawn.device
        assert dev.peak_flops(Precision.FP64) == pytest.approx(19.7e12, rel=1e-2)
        assert dev.peak_flops(Precision.FP32) == pytest.approx(26.2e12, rel=1e-2)

    def test_h100_table_iv_peaks(self, h100):
        dev = h100.device
        assert dev.peak_flops(Precision.FP32) == pytest.approx(67e12, rel=2e-2)
        assert dev.peak_flops(Precision.FP64) == pytest.approx(34e12, rel=2e-2)

    def test_mi250_gcd_is_half_card(self, mi250):
        dev = mi250.device
        assert dev.peak_flops(Precision.FP64) == pytest.approx(
            45.3e12 / 2, rel=2e-2
        )
        # MI250: FP32 vector peak equals FP64 (Table IV).
        assert dev.peak_flops(Precision.FP32) == dev.peak_flops(Precision.FP64)


class TestLookup:
    def test_names(self):
        assert set(SYSTEM_NAMES) == {"aurora", "dawn", "jlse-h100", "jlse-mi250"}

    def test_aliases(self):
        assert get_system("H100").name == "jlse-h100"
        assert get_system("mi250").name == "jlse-mi250"

    def test_unknown_raises(self):
        with pytest.raises(UnknownSystemError):
            get_system("frontier")

    def test_full_node_scope_names(self):
        assert get_system("aurora").full_node_scope_name() == "Six PVC"
        assert get_system("dawn").full_node_scope_name() == "Four PVC"
        assert get_system("jlse-h100").full_node_scope_name() == "Four GPU"

    def test_describe_mentions_hardware(self):
        text = get_system("aurora").node.describe()
        assert "Max 1550" in text and "12" in text


class TestSharedSystems:
    def test_one_object_per_system(self):
        for name in SYSTEM_NAMES:
            assert get_system(name) is get_system(name)
        assert get_system("H100") is get_system("jlse-h100")
        for system, name in zip(all_systems(), SYSTEM_NAMES):
            assert system is get_system(name)

    def test_shared_fabric_exposes_no_mutator(self):
        fabric = get_system("aurora").node.fabric
        for name in (
            "connect", "add_host", "add_stack", "set_planes",
            "set_stack_down", "set_link_health", "set_plane_health",
            "revive_stack", "reset_health", "set_observer",
            "_route_generation", "_invalidate_routes",
        ):
            assert not hasattr(fabric, name), name
        assert not any(
            attr.startswith("set_") for attr in dir(Fabric)
        )

    def test_each_factory_runs_at_most_once_per_process(self, tmp_path):
        out = _run_python(
            """
            import json
            from repro.hw import systems

            calls = dict.fromkeys(systems._FACTORIES, 0)

            def counting(name, factory):
                def build():
                    calls[name] += 1
                    return factory()
                return build

            for name, factory in list(systems._FACTORIES.items()):
                systems._FACTORIES[name] = counting(name, factory)

            from repro.campaign.orchestrator import Orchestrator
            from repro.campaign.spec import get_spec
            from repro.sweep.runner import run_sweep
            from repro.sweep.spec import load_sweep_spec

            run_sweep(load_sweep_spec("ci"), out_dir="sweep")
            smoke = get_spec("smoke")
            code = Orchestrator("campaign", spec=smoke, jobs=1).run()
            print(json.dumps({"calls": calls, "exit": int(code)}))
            """,
            tmp_path,
        )
        result = json.loads(out.splitlines()[-1])
        assert result["exit"] == 0
        assert set(result["calls"]) == set(SYSTEM_NAMES)
        assert all(n <= 1 for n in result["calls"].values()), result
        assert sum(result["calls"].values()) >= 1

    def test_cli_import_leaves_networkx_out(self, tmp_path):
        out = _run_python(
            """
            import sys
            import repro.cli
            print("networkx" in sys.modules)
            """,
            tmp_path,
        )
        assert out.strip() == "False"
