"""Unit tests for the tiered channel-dependency deadlock analysis.

These are the paper's headline results as executable checks:

* point-to-point dimension-order routing alone: deadlock free;
* serialized broadcast (Fig. 6): deadlock free;
* naive dimension-order broadcast (Fig. 5): deadlock hazard;
* detour facility alone, either D-XB choice (Section 4): deadlock free;
* naive detour + serialized broadcast (Fig. 9): deadlock hazard;
* D-XB = S-XB + serialized broadcast (Fig. 10 / Section 5): deadlock free.
"""

import pytest

from repro.core import Fault, analyze_deadlock_freedom, build_cdg
from repro.core.config import BroadcastMode, DetourScheme
from repro.core.routes import Unicast
from tests.conftest import make_logic


class TestPaperClaims:
    def test_p2p_only_deadlock_free(self, topo43):
        logic = make_logic(topo43)
        res = analyze_deadlock_freedom(topo43, logic, include_broadcasts=False)
        assert res.deadlock_free

    def test_serialized_broadcast_deadlock_free(self, topo43):
        logic = make_logic(topo43)
        res = analyze_deadlock_freedom(topo43, logic)
        assert res.deadlock_free
        assert res.hazard is None

    def test_naive_broadcast_hazard(self, topo43):
        logic = make_logic(topo43, broadcast_mode=BroadcastMode.NAIVE)
        res = analyze_deadlock_freedom(topo43, logic)
        assert not res.deadlock_free
        assert res.hazard.kind in ("multi-tree-cycle", "tree-path-cycle")

    def test_naive_broadcast_hazard_is_multicast_pair(self, topo43):
        # Fig. 5 deadlocks two broadcasts against each other even with no
        # point-to-point traffic at all
        logic = make_logic(topo43, broadcast_mode=BroadcastMode.NAIVE)
        res = analyze_deadlock_freedom(topo43, logic, include_unicasts=False)
        assert not res.deadlock_free
        assert res.hazard.kind == "multi-tree-cycle"
        assert len(res.hazard.flows) >= 2

    def test_detour_alone_deadlock_free_both_schemes(self, topo43):
        for scheme in DetourScheme:
            logic = make_logic(
                topo43, fault=Fault.router((2, 0)), detour_scheme=scheme
            )
            res = analyze_deadlock_freedom(
                topo43, logic, include_broadcasts=False
            )
            assert res.deadlock_free, scheme

    def test_fig9_naive_detour_with_broadcast_hazard(self, topo43):
        logic = make_logic(
            topo43,
            fault=Fault.router((2, 0)),
            detour_scheme=DetourScheme.NAIVE,
        )
        res = analyze_deadlock_freedom(topo43, logic)
        assert not res.deadlock_free

    def test_fig10_safe_scheme_deadlock_free(self, topo43):
        logic = make_logic(topo43, fault=Fault.router((2, 0)))
        res = analyze_deadlock_freedom(topo43, logic)
        assert res.deadlock_free

    def test_safe_scheme_xb_fault_deadlock_free(self, topo43):
        for fault in (Fault.crossbar(0, (1,)), Fault.crossbar(1, (2,))):
            logic = make_logic(topo43, fault=fault)
            res = analyze_deadlock_freedom(topo43, logic)
            assert res.deadlock_free, fault

    def test_naive_detour_xb_fault_hazard(self, topo43):
        logic = make_logic(
            topo43,
            fault=Fault.crossbar(0, (1,)),
            detour_scheme=DetourScheme.NAIVE,
        )
        res = analyze_deadlock_freedom(topo43, logic)
        assert not res.deadlock_free


class TestSmallAndOddShapes:
    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (5, 4), (2, 2, 2)])
    def test_serialized_safe_everywhere(self, shape):
        from repro.topology import MDCrossbar

        topo = MDCrossbar(shape)
        logic = make_logic(topo)
        assert analyze_deadlock_freedom(topo, logic).deadlock_free

    def test_plain_crossbar_d1(self):
        from repro.topology import MDCrossbar

        topo = MDCrossbar((6,))
        logic = make_logic(topo)
        assert analyze_deadlock_freedom(topo, logic).deadlock_free

    def test_3d_serialized_safe(self, topo333):
        logic = make_logic(topo333)
        res = analyze_deadlock_freedom(topo333, logic)
        assert res.deadlock_free

    def test_3d_fig10(self, topo333):
        logic = make_logic(topo333, fault=Fault.router((1, 1, 1)))
        res = analyze_deadlock_freedom(topo333, logic)
        assert res.deadlock_free

    def test_3d_naive_detour_hazard(self, topo333):
        logic = make_logic(
            topo333,
            fault=Fault.router((1, 1, 1)),
            detour_scheme=DetourScheme.NAIVE,
        )
        res = analyze_deadlock_freedom(topo333, logic)
        assert not res.deadlock_free


class TestGraphMechanics:
    def test_flow_subsets(self, topo43, logic43):
        flows = [Unicast((0, 0), (3, 2)), Unicast((3, 2), (0, 0))]
        cdg = build_cdg(
            topo43, logic43, unicast_flows=flows, include_broadcasts=False
        )
        assert cdg.num_flows == 2
        assert cdg.find_deadlock().deadlock_free

    def test_counts_populated(self, topo43, logic43):
        res = analyze_deadlock_freedom(topo43, logic43)
        assert res.num_flows == 12 * 11 + 12
        assert res.num_channels > 0
        assert res.num_edges > 0

    def test_result_truthiness(self, topo43, logic43):
        res = analyze_deadlock_freedom(topo43, logic43)
        assert bool(res) is res.deadlock_free

    def test_hazard_description(self, topo43):
        logic = make_logic(topo43, broadcast_mode=BroadcastMode.NAIVE)
        res = analyze_deadlock_freedom(topo43, logic)
        text = res.hazard.describe()
        assert "cycle" in text or "Ch#" in text

    def test_broadcast_source_subset(self, topo43, logic43):
        cdg = build_cdg(
            topo43,
            logic43,
            include_unicasts=False,
            broadcast_sources=[(0, 0), (3, 2)],
        )
        assert cdg.num_flows == 2
        assert len(cdg.trees) == 2


class TestHazardWitnesses:
    """A witness names a real cyclic wait: its channels follow tier-1
    edges and every flow it lists is one that owns such an edge."""

    def _find(self, topo, logic):
        cdg = build_cdg(topo, logic)
        return cdg, cdg.find_deadlock().hazard

    def test_path_cycle_walks_tier1_edges(self, topo43):
        logic = make_logic(
            topo43, fault=Fault.router((2, 0)), detour_scheme=DetourScheme.NAIVE
        )
        cdg, hz = self._find(topo43, logic)
        assert hz.kind == "path-cycle"
        cids = [c.cid for c in hz.channels]
        closed = list(zip(cids, cids[1:] + cids[:1]))
        assert all(v in cdg.succ[u] for u, v in closed)
        assert set(hz.flows) == {cdg.edge_flows[e] for e in closed}

    def test_tree_path_witness_lists_each_channel_once(self, topo43):
        logic = make_logic(
            topo43,
            fault=Fault.router((2, 0)),
            detour_scheme=DetourScheme.NAIVE,
            broadcast_mode=BroadcastMode.NAIVE,
        )
        cdg, hz = self._find(topo43, logic)
        assert hz.kind == "tree-path-cycle"
        cids = [c.cid for c in hz.channels]
        # a chain w ->+ a of distinct tier-1 edges ...
        assert len(set(cids)) == len(cids) >= 2
        assert all(v in cdg.succ[u] for u, v in zip(cids, cids[1:]))
        assert "?" not in hz.flows
        # ... closed by one multicast that can hold a while waiting for w
        (tree,) = [t for t in cdg.trees if t.name in hz.flows]
        assert tree.state_allows(held=cids[-1], waited=cids[0])
