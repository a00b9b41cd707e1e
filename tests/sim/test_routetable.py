"""The closed-form NORMAL route table against the switch logic.

:class:`~repro.sim.routetable.NormalRouteTable` replaces
:meth:`SwitchLogic.decide` for NORMAL headers at fault-free switches in
the SoA route phase.  A property-based differential test (hypothesis)
draws small shapes, routing orders, fault sets and detour schemes, and
checks, for every switch input channel the table claims and every live
destination, that its output channel is the one the switch logic picks --
and that it claims exactly the switches whose local fault information is
empty.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.core import Fault, Header, RC, SwitchLogic, make_config
from repro.core.config import DetourScheme
from repro.core.coords import all_lines
from repro.sim import MDCrossbarAdapter
from repro.sim.routetable import NormalRouteTable
from repro.topology import MDCrossbar
from repro.topology.base import xb

SHAPES = [(2,), (5,), (3, 2), (4, 3), (2, 2, 2), (3, 1, 2), (4, 4, 2)]


@st.composite
def logics(draw):
    shape = draw(st.sampled_from(SHAPES))
    order = tuple(draw(st.permutations(range(len(shape)))))
    topo = MDCrossbar(shape)
    coords = sorted(topo.node_coords())
    faults = [
        Fault.router(c)
        for c in draw(
            st.lists(st.sampled_from(coords), max_size=2, unique=True)
        )
    ]
    if draw(st.booleans()):
        # rule R1: a faulty crossbar's dimension is routed first
        lines = sorted(all_lines(shape, order[0]))
        faults.append(Fault.crossbar(order[0], draw(st.sampled_from(lines))))
    scheme = draw(st.sampled_from(list(DetourScheme)))
    try:
        cfg = make_config(
            shape, faults=faults, order=order, detour_scheme=scheme
        )
    except ValueError:
        assume(False)  # the facility rejects this configuration
    return SwitchLogic(topo, cfg)


@settings(max_examples=60, deadline=None)
@given(logics())
def test_table_matches_switch_logic(logic):
    topo = logic.topo
    table = NormalRouteTable(logic)
    adapter = MDCrossbarAdapter(logic)
    live = [
        c
        for c in sorted(topo.node_coords())
        if not logic.registry.router_is_faulty(c)
    ]
    dests = np.array([table.node_of[c] for c in live], dtype=np.int64)
    claimed = 0
    for ch in topo.channels():
        el = ch.dst
        if el[0] == "PE":
            assert not table.clear[ch.cid]
            continue
        # never answers for a switch that holds fault information
        assert table.clear[ch.cid] == logic.registry.info(el).clear
        if not table.clear[ch.cid]:
            continue
        claimed += 1
        outs = table.route(np.full(len(live), ch.cid), dests).tolist()
        for dest, out, (wanted, decision) in zip(
            live, outs, table.requests(outs)
        ):
            header = Header(source=dest, dest=dest)
            ref = logic.decide(el, ch.src, header)
            assert ref.rc is RC.NORMAL and not ref.drop
            assert out == topo.channel(el, ref.outputs[0]).cid
            assert wanted == ((out, 0),)
            assert decision == adapter.decide(el, ch.src, 0, header)
    assert claimed > 0


def test_logic_swap_rebuilds_the_table():
    topo = MDCrossbar((4, 4))
    adapter = MDCrossbarAdapter(SwitchLogic(topo, make_config((4, 4))))
    # channels into the two crossbars that serve router (2, 2)
    into = [ch.cid for k in (0, 1) for ch in topo.channels_to(xb(k, (2,)))]
    first = adapter.normal_table()
    assert adapter.normal_table() is first  # built once per logic
    assert first.clear[into].all()
    adapter.logic = SwitchLogic(
        topo, make_config((4, 4), fault=Fault.router((2, 2)))
    )
    second = adapter.normal_table()
    assert second is not first and second.logic is adapter.logic
    assert not second.clear[into].any()  # they now hold fault bits
