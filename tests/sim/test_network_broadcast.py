"""Simulator tests: hardware broadcast via the serialized crossbar."""

import pytest

from repro.core import Fault, Header, Packet, RC
from repro.sim import MDCrossbarAdapter, NetworkSimulator, SimConfig
from repro.topology import MDCrossbar
from repro.topology.base import rtr, xb
from tests.conftest import make_logic


def make_sim(topo, sim_config=None, **logic_kw):
    return NetworkSimulator(
        MDCrossbarAdapter(make_logic(topo, **logic_kw)),
        sim_config or SimConfig(),
    )


def bcast(src, length=4, naive=False):
    rc = RC.BROADCAST if naive else RC.BROADCAST_REQUEST
    return Packet(Header(source=src, dest=src, rc=rc), length=length)


def p2p(src, dst, length=4):
    return Packet(Header(source=src, dest=dst), length=length)


class TestSingleBroadcast:
    def test_reaches_every_pe(self, topo43):
        sim = make_sim(topo43)
        sim.send(bcast((2, 1)))
        res = sim.run()
        assert len(res.delivered) == 1
        assert res.delivered[0].latency is not None

    def test_expected_deliveries_equals_nodes(self, topo43):
        sim = make_sim(topo43)
        pkt = bcast((2, 1))
        assert sim.expected_deliveries(pkt) == 12

    def test_from_every_source(self, topo43):
        for src in topo43.node_coords():
            sim = make_sim(topo43)
            sim.send(bcast(src))
            res = sim.run()
            assert len(res.delivered) == 1, src
            assert not res.deadlocked

    def test_3d_broadcast(self, topo333):
        sim = make_sim(topo333)
        sim.send(bcast((1, 2, 0)))
        res = sim.run()
        assert len(res.delivered) == 1

    def test_broadcast_with_fault_skips_dead_pe(self, topo43):
        sim = make_sim(topo43, fault=Fault.router((2, 0)))
        pkt = bcast((0, 1))
        assert sim.expected_deliveries(pkt) == 11
        sim.send(pkt)
        res = sim.run()
        assert len(res.delivered) == 1


class TestSerialization:
    def test_two_broadcasts_serialize(self, topo43):
        sim = make_sim(topo43)
        a, b = bcast((0, 1)), bcast((3, 2))
        sim.send(a)
        sim.send(b)
        res = sim.run()
        assert len(res.delivered) == 2
        assert not res.deadlocked

    def test_many_broadcasts_all_complete(self, topo43):
        sim = make_sim(topo43)
        pkts = [bcast(src) for src in topo43.node_coords()]
        for p in pkts:
            sim.send(p)
        res = sim.run()
        assert len(res.delivered) == len(pkts)

    def test_serialization_is_fifo_at_sxb(self, topo43):
        # a broadcast arriving first at the S-XB finishes spreading first
        sim = make_sim(topo43)
        a = bcast((0, 0))  # on the S-XB row: short request leg
        b = bcast((3, 2))  # far away: longer leg
        sim.send(a)
        sim.send(b)
        res = sim.run()
        da = next(p for p in res.delivered if p.pid == a.pid)
        db = next(p for p in res.delivered if p.pid == b.pid)
        assert da.delivered_at < db.delivered_at

    def test_completion_time_scales_linearly(self, topo43):
        """Serialization makes k broadcasts take ~k times one broadcast's
        spread time (paper: packets transmitted one-by-one)."""
        times = {}
        for k in (1, 2, 4):
            sim = make_sim(topo43)
            for i in range(k):
                sim.send(bcast((i % 4, (i // 4) % 3), length=8))
            times[k] = sim.run().cycles
        assert times[2] > times[1]
        assert times[4] > times[2]

    def test_mixed_p2p_and_broadcast_complete(self, topo43):
        sim = make_sim(topo43)
        sim.send(bcast((1, 2)))
        for s, t in [((0, 0), (3, 1)), ((2, 2), (0, 1)), ((3, 0), (1, 1))]:
            sim.send(p2p(s, t))
        res = sim.run()
        assert len(res.delivered) == 4
        assert not res.deadlocked


class TestNaiveBroadcastMode:
    def test_single_naive_broadcast_ok(self, topo43):
        from repro.core.config import BroadcastMode

        sim = make_sim(topo43, broadcast_mode=BroadcastMode.NAIVE)
        sim.send(bcast((2, 1), naive=True))
        res = sim.run()
        assert len(res.delivered) == 1
        assert not res.deadlocked

    def test_two_naive_broadcasts_deadlock(self, topo43):
        """Paper Fig. 5: simultaneous naive broadcasts deadlock."""
        from repro.core.config import BroadcastMode

        sim = make_sim(
            topo43,
            SimConfig(stall_limit=300),
            broadcast_mode=BroadcastMode.NAIVE,
        )
        sim.send(bcast((2, 1), length=6, naive=True))
        sim.send(bcast((3, 2), length=6, naive=True))
        res = sim.run(max_cycles=5000)
        assert res.deadlocked
        assert len(res.deadlock.cycle_pids) >= 2

    def test_serialized_mode_resolves_same_workload(self, topo43):
        sim = make_sim(topo43, SimConfig(stall_limit=300))
        sim.send(bcast((2, 1), length=6))
        sim.send(bcast((3, 2), length=6))
        res = sim.run(max_cycles=5000)
        assert not res.deadlocked
        assert len(res.delivered) == 2


class TestBroadcastSink:
    """In a dimension of extent 2 a broadcast copy can enter a crossbar
    whose only other router is faulty: the decision has no outputs and no
    drop.  That connection swallows just the copy -- the broadcast still
    reaches every live PE and is not reported dropped."""

    SHAPE = (4, 4, 2)
    FAULT = (1, 2, 1)

    def test_copy_decision_has_no_outputs(self):
        logic = make_logic(
            MDCrossbar(self.SHAPE), fault=Fault.router(self.FAULT)
        )
        d = logic.decide(
            xb(2, (1, 2)),
            rtr((1, 2, 0)),
            Header(source=(0, 0, 0), dest=(0, 0, 0), rc=RC.BROADCAST),
        )
        assert d.outputs == () and not d.drop

    @pytest.mark.parametrize("driver", ["active", "legacy", "soa"])
    @pytest.mark.parametrize("src", [(0, 0, 0), (1, 2, 0), (3, 3, 1)])
    def test_reaches_every_live_pe(self, driver, src):
        sim = make_sim(
            MDCrossbar(self.SHAPE),
            SimConfig(engine=driver if driver == "soa" else "active",
                      legacy_scan=driver == "legacy"),
            fault=Fault.router(self.FAULT),
        )
        served = []
        sim.add_delivery_listener(lambda pkt, coord, cycle: served.append(coord))
        pkt = bcast(src)
        sim.send(pkt)
        res = sim.run(max_cycles=5000)
        assert not res.deadlocked
        assert res.dropped == []
        assert [p.pid for p in res.delivered] == [pkt.pid]
        assert sorted(served) == sorted(sim.live_nodes)
