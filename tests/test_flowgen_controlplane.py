"""Closed-loop generator edge cases and the control-plane API."""

import numpy as np
import pytest

from repro import ControlPlane, TestConfig
from repro.errors import ConfigError
from repro.units import MS
from repro.workload import ClosedLoopGenerator, FixedSize, FlowSlot, websearch


def deployed(**cfg):
    cp = ControlPlane()
    tester = cp.deploy(TestConfig(**cfg))
    cp.wire_loopback_fabric()
    return cp, tester


class TestControlPlane:
    def test_sim_backend_accepts_only_none(self):
        assert ControlPlane(sim_backend=None).sim.backend_name == "python"
        for value in ("python", "compiled", "auto"):
            with pytest.raises(ConfigError, match="sim_backend"):
                ControlPlane(sim_backend=value)

    def test_double_deploy_rejected(self):
        cp = ControlPlane()
        cp.deploy(TestConfig(n_test_ports=2))
        with pytest.raises(ConfigError):
            cp.deploy(TestConfig(n_test_ports=2))

    def test_operations_require_deploy(self):
        cp = ControlPlane()
        with pytest.raises(ConfigError):
            cp.wire_loopback_fabric()
        with pytest.raises(ConfigError):
            cp.start_flows(size_packets=10)

    def test_pairs_pattern_requires_even_ports(self):
        cp, tester = deployed(n_test_ports=3)
        with pytest.raises(ConfigError):
            cp.start_flows(size_packets=10, pattern="pairs")

    def test_unknown_pattern(self):
        cp, tester = deployed(n_test_ports=2)
        with pytest.raises(ConfigError):
            cp.start_flows(size_packets=10, pattern="mesh")

    def test_fan_in_flow_count(self):
        cp, tester = deployed(n_test_ports=4, flows_per_port=2)
        flow_ids = cp.start_flows(size_packets=100, pattern="fan_in")
        assert len(flow_ids) == 6  # 3 sender ports x 2 flows

    def test_default_allocation_uses_paper_optimum(self):
        cp = ControlPlane()
        tester = cp.deploy(TestConfig(template_bytes=1024))
        assert tester.n_test_ports == 12

    def test_port_addresses_assigned_by_fabric(self):
        cp, tester = deployed(n_test_ports=2)
        assert tester.port_address(0) != tester.port_address(1)

    def test_unassigned_address_rejected(self):
        cp = ControlPlane()
        tester = cp.deploy(TestConfig(n_test_ports=2))
        with pytest.raises(ConfigError):
            tester.port_address(0)

    def test_start_flow_needs_exactly_one_destination(self):
        cp, tester = deployed(n_test_ports=2)
        with pytest.raises(ConfigError):
            tester.start_flow(port_index=0, size_packets=10)
        with pytest.raises(ConfigError):
            tester.start_flow(
                port_index=0, dst_port_index=1, dst_addr=5, size_packets=10
            )

    def test_receiver_mode_auto_resolution(self):
        cp_w, tester_w = deployed(n_test_ports=2, cc_algorithm="dctcp")
        cp_r, tester_r = deployed(n_test_ports=2, cc_algorithm="dcqcn")
        from repro.pswitch.module_a import ReceiverMode

        assert tester_w.switch.receiver.mode is ReceiverMode.TCP
        assert tester_r.switch.receiver.mode is ReceiverMode.ROCE


class TestClosedLoopGenerator:
    def test_stop_at_time(self):
        cp, tester = deployed(n_test_ports=2, cc_algorithm="dcqcn")
        generator = ClosedLoopGenerator(
            tester,
            FixedSize(50 * 1024),
            [FlowSlot(0, 1)],
            rng=np.random.default_rng(0),
            stop_at_ps=2 * MS,
        )
        generator.start()
        cp.run(duration_ps=10 * MS)
        assert generator.flows_completed == generator.flows_started
        assert tester.fct.records[-1].start_ps <= 2 * MS

    def test_manual_stop(self):
        cp, tester = deployed(n_test_ports=2, cc_algorithm="dcqcn")
        generator = ClosedLoopGenerator(
            tester, FixedSize(50 * 1024), [FlowSlot(0, 1)],
        )
        generator.start()
        cp.run(duration_ps=1 * MS)
        generator.stop()
        started = generator.flows_started
        cp.run(duration_ps=5 * MS)
        assert generator.flows_started == started

    def test_multiple_slots_independent(self):
        cp, tester = deployed(n_test_ports=4, cc_algorithm="dcqcn")
        slots = [FlowSlot(0, 2), FlowSlot(1, 3)]
        generator = ClosedLoopGenerator(
            tester,
            FixedSize(20 * 1024),
            slots,
            rng=np.random.default_rng(0),
            stop_after_flows=10,
        )
        generator.start()
        cp.run(duration_ps=20 * MS)
        assert generator.flows_completed == 10

    def test_empty_slots_rejected(self):
        cp, tester = deployed(n_test_ports=2)
        with pytest.raises(ConfigError):
            ClosedLoopGenerator(tester, FixedSize(1000), [])

    def test_websearch_sizes_vary(self):
        cp, tester = deployed(n_test_ports=2, cc_algorithm="dcqcn")
        generator = ClosedLoopGenerator(
            tester,
            websearch(),
            [FlowSlot(0, 1)],
            rng=np.random.default_rng(7),
            stop_after_flows=10,
        )
        generator.start()
        cp.run(duration_ps=100 * MS)
        sizes = {record.size_packets for record in tester.fct.records}
        assert len(sizes) > 3  # heavy-tailed draws differ
