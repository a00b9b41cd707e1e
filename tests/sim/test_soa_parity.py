"""SoA kernel vs active vs legacy: three-way byte-identical results.

``SimConfig(engine="soa")`` selects the batched structure-of-arrays
driver (:mod:`repro.sim.soa`); these tests pin its contract -- the same
:meth:`SimResult.fingerprint` as the active driver and the legacy full
scan on every workload, whether the kernel ran the cycles itself or
handed them back to the scalar path mid-run.  A property-based sweep
(hypothesis) draws random small grids, fault sets, traffic patterns and
seeds; directed cases cover each remaining fallback reason, the
in-kernel S-XB / multicast / sink paths, chunked runs that hand
mid-flight S-XB queues and partial reservations across
``sync_out``/``materialize``, and the mid-run reconfiguration handoff.
"""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.packet as packet_mod
from repro.core import Fault, Header, Packet, RC
from repro.core.config import DetourScheme
from repro.core.switch_logic import RoutingError
from repro.routing import get_scheme, make_scheme, scheme_names
from repro.sim import MDCrossbarAdapter, NetworkSimulator, SimConfig
from repro.topology import MDCrossbar
from repro.traffic import BernoulliInjector, uniform
from tests.conftest import make_logic

DRIVERS = ("soa", "active", "legacy")
UNROUTABLE = "unroutable packet"


def reset_pids():
    """Restart the process-global pid counter so every driver of a
    repeat sees identical ids and fingerprints compare exactly."""
    packet_mod._packet_ids = itertools.count(1_000_000)


def build(driver, shape, stall_limit=400, recovery=False, **logic_kw):
    cfg = SimConfig(
        stall_limit=stall_limit,
        engine="soa" if driver == "soa" else "active",
        legacy_scan=driver == "legacy",
        recovery=recovery,
    )
    return NetworkSimulator(
        MDCrossbarAdapter(make_logic(MDCrossbar(shape), **logic_kw)), cfg
    )


def run_three(workload, shape, until_drained=True, **build_kw):
    """The same workload under all three drivers; asserts fingerprint
    identity and returns the soa-driver simulator for extra checks."""
    results = {}
    sims = {}
    for driver in DRIVERS:
        reset_pids()
        sim = build(driver, shape, **build_kw)
        max_cycles = workload(sim)
        results[driver] = sim.run(
            max_cycles=max_cycles, until_drained=until_drained
        )
        sims[driver] = sim
    f = {d: results[d].fingerprint() for d in DRIVERS}
    assert f["soa"] == f["active"], (
        f"soa diverged from active (engine_used={sims['soa'].engine_used},"
        f" fallback={sims['soa'].engine_fallback})"
    )
    assert f["active"] == f["legacy"], "active diverged from legacy"
    assert (
        results["soa"].recoveries == results["active"].recoveries
        and results["soa"].recovery_victims
        == results["active"].recovery_victims
    )
    assert_closed_form_routing(sims["soa"], sims["active"], results["soa"])
    return sims["soa"], results["soa"]


def assert_closed_form_routing(soa, active, res):
    """The kernel routes NORMAL headers at fault-free switches through the
    adapter's closed-form table, so when it drove the whole run its memo
    sees a subset of the keys of a full-memo run (the active driver) -- a
    strict subset once it has routed any unicast packet.  After a bail the
    active driver repeats the bailing cycle's lookups, so no bound holds."""
    if soa.engine_used != "soa":
        return
    misses = soa.adapter.cache_info()["misses"]
    full_keys = active.adapter.cache_info()["size"]
    assert misses <= full_keys
    if any(p.header.rc is RC.NORMAL for p in res.delivered + res.dropped):
        assert misses < full_keys


# --------------------------------------------------------- fuzz sweep
SHAPES = [(3, 2), (4, 3), (2, 2, 2), (5,), (3, 3)]


@st.composite
def scenarios(draw):
    shape = draw(st.sampled_from(SHAPES))
    coords = sorted(MDCrossbar(shape).node_coords())
    n_faults = draw(st.integers(0, 1 if len(shape) < 2 else 2))
    faulted = draw(
        st.lists(
            st.sampled_from(coords),
            min_size=n_faults,
            max_size=n_faults,
            unique=True,
        )
    )
    live = [c for c in coords if c not in faulted]
    naive = draw(st.booleans())
    n_sends = draw(st.integers(1, 12))
    sends = []
    for _ in range(n_sends):
        src = draw(st.sampled_from(live))
        kind = draw(st.sampled_from(("p2p", "p2p", "p2p", "bcast", "sbcast")))
        if kind == "p2p":
            dest = draw(st.sampled_from(coords))  # dead dests: drop path
            rc = RC.NORMAL
        else:
            dest = src
            rc = RC.BROADCAST if kind == "bcast" else RC.BROADCAST_REQUEST
        sends.append(
            (
                src,
                dest,
                rc,
                draw(st.integers(1, 10)),  # length
                draw(st.integers(0, 6)),  # at_cycle
            )
        )
    load = draw(st.sampled_from((0.0, 0.1, 0.4, 0.8)))
    seed = draw(st.integers(0, 2**16))
    recovery = draw(st.booleans())
    return shape, tuple(faulted), naive, tuple(sends), load, seed, recovery


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_fuzzed_three_way_parity(scenario):
    shape, faulted, naive, sends, load, seed, recovery = scenario
    logic_kw = {}
    if faulted:
        logic_kw["fault"] = [Fault.router(c) for c in faulted]
    if naive:
        logic_kw["detour_scheme"] = DetourScheme.NAIVE

    def workload(sim):
        for src, dest, rc, length, at in sends:
            sim.send(
                Packet(Header(source=src, dest=dest, rc=rc), length=length),
                at_cycle=at,
            )
        if load:
            sim.add_generator(
                BernoulliInjector(
                    load=load, pattern=uniform, seed=seed, stop_at=60
                )
            )
        return 3000

    try:
        sim, _ = run_three(workload, shape, recovery=recovery, **logic_kw)
    except ValueError:
        # an infeasible fault configuration is rejected while building
        # the switch logic, before any driver is involved -- every
        # driver sees the identical rejection, so there is no parity
        # left to check
        return
    # S-XB broadcasts, naive broadcasts, sinks, drops and recovery all
    # run in-kernel; the one fallback this fuzz can reach is a
    # BROADCAST injected while the facility serializes broadcasts,
    # which the switch logic rejects as unroutable
    if sim.engine_fallback is not None:
        assert sim.engine_fallback == UNROUTABLE
        assert any(rc is RC.BROADCAST for _, _, rc, _, _ in sends)
    else:
        assert sim.engine_used == "soa"


# ----------------------------------------------------- directed cases
def test_pure_p2p_runs_in_kernel():
    def workload(sim):
        sim.add_generator(
            BernoulliInjector(load=0.3, pattern=uniform, seed=7, stop_at=150)
        )
        return 1500

    sim, _ = run_three(workload, (4, 3), until_drained=False)
    assert sim.engine_used == "soa"
    assert sim.engine_fallback is None
    # fault-free: every header took the closed form, none the memo
    info = sim.adapter.cache_info()
    assert info["hits"] == info["misses"] == 0


def test_naive_broadcast_runs_in_kernel():
    """Naive broadcast: multicast decisions with progressive reservation,
    no S-XB -- connections fan out in lockstep inside the kernel."""
    from repro.core.config import BroadcastMode

    def workload(sim):
        sim.send(
            Packet(
                Header(source=(2, 1), dest=(2, 1), rc=RC.BROADCAST), length=6
            )
        )
        return 2000

    sim, res = run_three(
        workload, (4, 3), broadcast_mode=BroadcastMode.NAIVE
    )
    assert sim.engine_used == "soa"
    assert sim.engine_fallback is None
    assert len(res.delivered) == 1 and not res.deadlocked


def test_serialized_broadcast_runs_in_kernel():
    def workload(sim):
        sim.send(
            Packet(
                Header(
                    source=(3, 2), dest=(3, 2), rc=RC.BROADCAST_REQUEST
                ),
                length=6,
            )
        )
        return 2000

    sim, res = run_three(workload, (4, 3))
    assert sim.engine_used == "soa"
    assert sim.engine_fallback is None
    assert len(res.delivered) == 1 and not res.deadlocked


def test_broadcast_sink_runs_in_kernel():
    """The extent-2 sink of ``TestBroadcastSink``: a copy entering a
    crossbar whose only other router is dead gets a decision with no
    outputs; the kernel swallows the copy without dropping the packet."""

    def workload(sim):
        for src in ((0, 0, 0), (1, 2, 0), (3, 3, 1)):
            sim.send(
                Packet(
                    Header(source=src, dest=src, rc=RC.BROADCAST_REQUEST),
                    length=4,
                )
            )
        return 5000

    sim, res = run_three(workload, (4, 4, 2), fault=Fault.router((1, 2, 1)))
    assert sim.engine_used == "soa"
    assert sim.engine_fallback is None
    assert not res.deadlocked and res.dropped == []
    assert len(res.delivered) == 3


def test_naive_broadcast_deadlock_report_matches():
    """Fig. 5: two naive broadcasts each hold part of the other's
    multicast reservation.  The kernel reaches the deadlock itself and
    the report built from its synced-out partial reservations equals
    the scalar drivers'."""
    from repro.core.config import BroadcastMode

    reports = {}
    for driver in DRIVERS:
        reset_pids()
        sim = build(driver, (4, 3), broadcast_mode=BroadcastMode.NAIVE)
        for src in [(2, 1), (3, 2)]:
            sim.send(
                Packet(Header(source=src, dest=src, rc=RC.BROADCAST), length=6)
            )
        res = sim.run(max_cycles=5000)
        assert res.deadlocked
        if driver == "soa":
            assert sim.engine_used == "soa"
            assert any(r.reserved for r in sim.pending)
        reports[driver] = (
            res.deadlock.cycle,
            res.deadlock.cycle_pids,
            res.deadlock.waits,
            res.deadlock.blocked_pids,
        )
    assert reports["soa"] == reports["active"] == reports["legacy"]


def test_chunked_broadcast_run_matches_one_active_run():
    """Broadcasts + unicast around a dead router, run under the kernel in
    ``max_cycles=k`` slices: every slice boundary syncs the fabric out
    and back in, crossing mid-flight S-XB queues and partial multicast
    reservations, and the end result equals one uninterrupted run."""

    def workload(sim):
        for k, src in enumerate([(0, 0), (3, 3), (1, 2), (2, 3), (0, 3)]):
            sim.send(
                Packet(
                    Header(source=src, dest=src, rc=RC.BROADCAST_REQUEST),
                    length=5,
                ),
                at_cycle=k,
            )
        sim.add_generator(
            BernoulliInjector(load=0.5, pattern=uniform, seed=3, stop_at=80)
        )

    reset_pids()
    ref_sim = build("active", (4, 4), fault=Fault.router((1, 1)))
    workload(ref_sim)
    ref = ref_sim.run(max_cycles=400, until_drained=False).fingerprint()
    saw_queue = saw_partial = False
    for k in (1, 2, 3, 7):
        reset_pids()
        sim = build("soa", (4, 4), fault=Fault.router((1, 1)))
        workload(sim)
        while sim.cycle < 400:
            res = sim.run(max_cycles=min(k, 400 - sim.cycle), until_drained=False)
            assert sim.engine_used == "soa", sim.engine_fallback
            saw_queue |= any(sim.serial_queues.values())
            saw_partial |= any(r.reserved for r in sim.pending)
        assert res.fingerprint() == ref, k
    assert saw_queue and saw_partial


def test_unroutable_packet_falls_back():
    """A BROADCAST injected while the facility serializes broadcasts has
    no route: the kernel bails before routing it and the active driver
    runs the unroutable-packet kill path."""

    def workload(sim):
        sim.send(Packet(Header(source=(1, 1), dest=(1, 1), rc=RC.BROADCAST)))
        sim.send(Packet(Header(source=(0, 0), dest=(3, 2)), length=4))
        return 2000

    sim, res = run_three(workload, (4, 3))
    assert sim.engine_used == "active"
    assert sim.engine_fallback == UNROUTABLE
    assert len(res.dropped) == 1 and len(res.delivered) == 1


class _CopyRewritingAdapter(MDCrossbarAdapter):
    """Naive broadcast whose copies alternate their RC bit between
    BROADCAST (leaving routers) and BROADCAST_REQUEST (leaving
    crossbars); routing treats both as BROADCAST.  Copies of one packet
    then carry different headers, which one shared header entry cannot
    represent."""

    def decide(self, element, in_from, in_vc, header):
        d = super().decide(
            element, in_from, in_vc, header.with_rc(RC.BROADCAST)
        )
        rc = RC.BROADCAST if element[0] == "RTR" else RC.BROADCAST_REQUEST
        return dataclasses.replace(d, rc=rc)

    decide_batch = None


def test_per_copy_header_rewrite_falls_back():
    from repro.core.config import BroadcastMode

    fps = {}
    for driver in DRIVERS:
        reset_pids()
        logic = make_logic(
            MDCrossbar((4, 3)), broadcast_mode=BroadcastMode.NAIVE
        )
        sim = NetworkSimulator(
            _CopyRewritingAdapter(logic),
            SimConfig(
                engine="soa" if driver == "soa" else "active",
                legacy_scan=driver == "legacy",
            ),
        )
        sim.send(
            Packet(Header(source=(2, 1), dest=(2, 1), rc=RC.BROADCAST), length=4)
        )
        res = sim.run(max_cycles=2000)
        assert len(res.delivered) == 1
        fps[driver] = res.fingerprint()
        if driver == "soa":
            assert sim.engine_fallback == "per-copy header rewrite"
    assert fps["soa"] == fps["active"] == fps["legacy"]


@pytest.mark.parametrize("scheme", scheme_names())
def test_registered_schemes_keep_one_header_per_multicast(scheme):
    """The kernel shares one header entry between a packet's copies.
    Every registered scheme that can broadcast at all must run a
    broadcast + unicast mix in-kernel -- no copy ever rewrites its
    header after the fan-out -- with three-way parity."""
    shape = get_scheme(scheme).bench_shape
    sch = make_scheme(scheme, shape)
    if sch.num_vcs != 1:
        pytest.skip("multi-VC schemes run on the scalar drivers")
    coords = sorted(sch.topo.node_coords())
    srcs = [coords[0], coords[-1], coords[len(coords) // 2]]
    fps = {}
    for driver in DRIVERS:
        reset_pids()
        sch = make_scheme(scheme, shape)
        sim = NetworkSimulator(
            sch.adapter,
            SimConfig(
                stall_limit=400,
                engine="soa" if driver == "soa" else "active",
                legacy_scan=driver == "legacy",
            ),
        )
        for k, src in enumerate(srcs):
            sim.send(
                Packet(
                    Header(source=src, dest=src, rc=RC.BROADCAST_REQUEST),
                    length=4,
                ),
                at_cycle=k,
            )
            sim.send(Packet(Header(source=src, dest=coords[1]), length=4))
        try:
            res = sim.run(max_cycles=3000)
        except (RoutingError, ValueError):
            pytest.skip(f"{scheme} does not route broadcasts")
        fps[driver] = res.fingerprint()
        if driver == "soa":
            if sim.engine_fallback == UNROUTABLE:
                pytest.skip(f"{scheme} does not route broadcasts")
            assert sim.engine_used == "soa", sim.engine_fallback
    assert fps["soa"] == fps["active"] == fps["legacy"]


def test_subscribed_hook_forces_scalar_path():
    reset_pids()
    sim = build("soa", (4, 3))
    sim.hooks.deliver.append(lambda *a: None)
    sim.send(Packet(Header(source=(0, 0), dest=(3, 2)), length=4))
    res = sim.run()
    assert sim.engine_used == "active"
    assert sim.engine_fallback == "hook 'deliver' subscribed"
    reset_pids()
    ref = build("active", (4, 3))
    ref.send(Packet(Header(source=(0, 0), dest=(3, 2)), length=4))
    assert res.fingerprint() == ref.run().fingerprint()


def test_terminal_hooks_stay_in_kernel():
    """deadlock/recovery hooks fire outside the cycle loop: no fallback."""
    reset_pids()
    sim = build("soa", (4, 3))
    sim.hooks.deadlock.append(lambda *a: None)
    sim.hooks.recovery.append(lambda *a: None)
    sim.send(Packet(Header(source=(0, 0), dest=(3, 2)), length=4))
    sim.run()
    assert sim.engine_used == "soa"


def test_fig9_recovery_parity():
    def workload(sim):
        sim.send(
            Packet(
                Header(source=(3, 2), dest=(3, 2), rc=RC.BROADCAST_REQUEST),
                length=6,
            ),
            at_cycle=0,
        )
        for src, dest, at in (
            ((0, 0), (2, 2), 1),
            ((1, 0), (3, 1), 1),
            ((0, 1), (1, 2), 2),
        ):
            sim.send(Packet(Header(source=src, dest=dest), length=6), at_cycle=at)
        return 20_000

    _, res = run_three(
        workload,
        (4, 3),
        recovery=True,
        stall_limit=200,
        fault=Fault.router((2, 0)),
        detour_scheme=DetourScheme.NAIVE,
    )
    assert res.recoveries > 0


def test_midrun_fault_reconfiguration_parity():
    results = {}
    sims = {}
    for driver in DRIVERS:
        reset_pids()
        sim = build(driver, (4, 4), stall_limit=300)
        sim.add_generator(
            BernoulliInjector(load=0.4, pattern=uniform, seed=5, stop_at=200)
        )
        sim.run(max_cycles=55, until_drained=False)
        before = sim.adapter.normal_table()
        sim.inject_fault(Fault.router((2, 2)))
        after = sim.adapter.normal_table()
        # the facility reconfiguration rebuilt the table for the new logic
        assert after is not before and after.logic is sim.adapter.logic
        results[driver] = sim.run(
            max_cycles=8000, until_drained=False
        ).fingerprint()
        sims[driver] = sim
    assert results["soa"] == results["active"] == results["legacy"]
    # the dead destination exercised the kernel's drop-connection path
    assert results["soa"][2]  # dropped pids non-empty
    # fault-adjacent headers took the residual path through the memo;
    # the rest stayed on the closed form
    soa, active = sims["soa"], sims["active"]
    assert soa.engine_used == "soa"
    misses = soa.adapter.cache_info()["misses"]
    assert 0 < misses < active.adapter.cache_info()["misses"]


def test_adaptive_any_policy_runs_in_kernel():
    """The full-mesh scheme issues policy="any" grant requests with a
    single VC -- the kernel's sequential adaptive grant branch."""

    results = {}
    for driver in DRIVERS:
        reset_pids()
        sch = make_scheme("fullmesh_novc", (8,))
        cfg = SimConfig(
            num_vcs=sch.num_vcs,
            stall_limit=400,
            engine="soa" if driver == "soa" else "active",
            legacy_scan=driver == "legacy",
        )
        sim = NetworkSimulator(sch.adapter, cfg)
        sim.add_generator(
            BernoulliInjector(load=0.7, pattern=uniform, seed=11, stop_at=300)
        )
        results[driver] = (
            sim.run(max_cycles=2000, until_drained=False).fingerprint(),
            sim.engine_used,
        )
    assert results["soa"][0] == results["active"][0] == results["legacy"][0]
    assert results["soa"][1] == "soa"


def test_multi_vc_scheme_falls_back():

    reset_pids()
    sch = make_scheme("torus", (4, 4))
    sim = NetworkSimulator(
        sch.adapter,
        SimConfig(num_vcs=sch.num_vcs, stall_limit=400, engine="soa"),
    )
    sim.send(Packet(Header(source=(0, 0), dest=(2, 2)), length=4))
    sim.run()
    assert sim.engine_used == "active"
    assert sim.engine_fallback == "num_vcs > 1"


def test_engine_used_reports_legacy_scan():
    reset_pids()
    sim = NetworkSimulator(
        MDCrossbarAdapter(make_logic(MDCrossbar((4, 3)))),
        SimConfig(legacy_scan=True, engine="soa"),
    )
    sim.send(Packet(Header(source=(0, 0), dest=(3, 2)), length=4))
    sim.run()
    assert sim.engine_used == "legacy_scan"


def test_invalid_engine_rejected():
    with pytest.raises(ValueError):
        SimConfig(engine="vectorized")
