"""Pinned performance-benchmark suite and regression comparison.

A small, fixed set of simulator workloads (``BENCH_CASES``) timed
end-to-end, so a perf regression in the engine's inner loops shows up
as a drop in simulated cycles per wall-clock second.  Each case records
wall time, throughput rates, and the deterministic span aggregates
(blocked / S-XB wait cycles) so a run is also a coarse correctness
canary: the simulated quantities must not drift between runs at all,
only the wall-clock ones may.

``run_suite`` produces a plain-dict document (``BENCH_SCHEMA``),
``write_bench``/``load_bench`` round-trip it through ``BENCH_<label>.json``
files, and ``compare_bench`` gates a new run against a saved baseline:
a case regresses when its ``cycles_per_sec`` falls more than
``threshold_pct`` percent below the baseline.  Simulated-quantity drift
(delivered count, blocked cycles...) is reported as a regression at any
threshold, because those are deterministic.

The ``repro bench`` subcommand is the CLI face; CI runs the ``--smoke``
subset and compares against the committed ``benchmarks/BENCH_baseline.json``
with a deliberately generous threshold (machines differ; only a large
relative drop on the *same* machine family is meaningful).
"""

from __future__ import annotations

import cProfile
import hashlib
import io
import json
import pstats
import resource
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .core import Fault, Header, Packet, RC, SwitchLogic, make_config
from .obs.spans import PacketSpanCollector
from .sim import MDCrossbarAdapter, NetworkSimulator, SimConfig
from .topology import MDCrossbar
from .traffic import BernoulliInjector, uniform

#: bump when the per-case measurement fields change.
#: schema 2: best-of-``repeats`` wall times, fast-vs-legacy in-run
#: comparison (``speedup_vs_legacy``/``legacy_drift``) and three more
#: deterministic span aggregates per case.
#: schema 3: runner-style cases (the ``sweep_fanout`` runtime case with
#: ``specs``/``identity_sha256`` and the warm/cold/cached sweep legs).
#: schema 4: the ``scheme_shootout`` runner case -- per-scheme latency /
#: path-stretch / CDG-acyclicity / fault-coverage table (``schemes``).
#: schema 5: the ``recovery_shootout`` runner case -- VC avoidance vs
#: online drain/rotate recovery vs halt-and-report on the Fig. 9
#: deadlock workload (``legs``).
#: schema 6: sweep-runtime telemetry -- ``sweep_fanout`` runs ledgered
#: serial/chunked/cache-replay passes and carries the ledger-derived
#: deterministic fields (``ledger_records``/``ledger_identity_sha256``)
#: plus ``ledger_schema``; ``PointResult.to_dict()`` gained
#: ``recoveries``, so every ``identity_sha256`` changed too.
#: schema 7: the ``machine_2048`` runner case -- the full 16x16x8
#: SR2201 machine under the batched SoA engine vs the active driver
#: (``speedup_vs_active``/``soa_drift``/``engine_used``), with a
#: faulted detour leg riding in the identity hash.
#: schema 8: the ``campaign_reliability`` runner case -- the streaming
#: Monte-Carlo campaign engine on the full machine vs the scalar
#: per-sample loop (``samples``/``samples_per_sec``/``speedup_vs_loop``)
#: with a chunking/jobs-invariant ``identity_sha256``.
BENCH_SCHEMA = 8

#: simulated quantities that must be bit-identical between runs of a case
#: (compared only where present; runner cases carry a subset plus their
#: own ``specs``/``identity_sha256``)
DETERMINISTIC_FIELDS = (
    "cycles",
    "delivered",
    "flit_moves",
    "blocked_cycles",
    "sxb_wait_cycles",
    "mean_latency",
    "queue_wait_cycles",
    "detour_overhead_cycles",
    "specs",
    "schemes",
    "legs",
    "identity_sha256",
    "ledger_records",
    "ledger_identity_sha256",
    "engine_used",
    "samples",
)


class BenchCase(NamedTuple):
    name: str
    description: str
    smoke: bool  #: part of the fast CI subset
    #: (legacy_scan) -> (sim, max_cycles); engine cases only
    build: Optional[Callable[..., Tuple[NetworkSimulator, int]]] = None
    #: full-case measurement override: ``(repeats) -> case dict``.  The
    #: sweep_fanout case times whole sweep legs (cold pools vs a warm
    #: session vs cache replay) rather than one engine run.
    runner: Optional[Callable[..., Dict]] = None
    #: profiling override for runner cases: ``(top) -> str`` cProfile
    #: dump.  Build cases profile generically (:func:`_profile_case`);
    #: the machine_2048 runner profiles its SoA leg so the kernel's
    #: per-phase numpy sections show up in the top-N.
    profile: Optional[Callable[[int], str]] = None


def _md_sim(
    shape, faults=(), stall_limit: int = 5000, legacy: bool = False
) -> NetworkSimulator:
    topo = MDCrossbar(shape)
    logic = SwitchLogic(topo, make_config(shape, faults=tuple(faults)))
    return NetworkSimulator(
        MDCrossbarAdapter(logic),
        SimConfig(stall_limit=stall_limit, legacy_scan=legacy),
    )


def _bernoulli_case(shape, load, cycles, faults=(), seed=1):
    def build(legacy: bool = False) -> Tuple[NetworkSimulator, int]:
        sim = _md_sim(shape, faults=faults, legacy=legacy)
        sim.add_generator(
            BernoulliInjector(
                load=load,
                packet_length=4,
                pattern=uniform,
                seed=seed,
                stop_at=cycles,
            )
        )
        return sim, cycles * 10

    return build


def _broadcast_case(shape, rounds, gap):
    def build(legacy: bool = False) -> Tuple[NetworkSimulator, int]:
        sim = _md_sim(shape, legacy=legacy)
        coords = sorted(MDCrossbar(shape).node_coords())
        for i in range(rounds):
            src = coords[i % len(coords)]
            sim.send(
                Packet(
                    Header(source=src, dest=src, rc=RC.BROADCAST_REQUEST),
                    length=4,
                ),
                at_cycle=i * gap,
            )
        return sim, rounds * gap * 50 + 5000

    return build


def _stream_case(shape, packets, length, gap):
    """Long packets with idle gaps between them: exercises the engine's
    bulk flit-run windows (the body of each packet) and the idle-cycle
    fast-forward (the gaps)."""

    def build(legacy: bool = False) -> Tuple[NetworkSimulator, int]:
        sim = _md_sim(shape, legacy=legacy)
        coords = sorted(MDCrossbar(shape).node_coords())
        src, dst = coords[0], coords[-1]
        for i in range(packets):
            sim.send(
                Packet(Header(source=src, dest=dst), length=length),
                at_cycle=i * gap,
            )
        return sim, packets * gap + 2000

    return build


#: worker processes used by the sweep_fanout legs (kept small and fixed
#: so the case measures fixed-cost amortization, not machine parallelism)
SWEEP_FANOUT_JOBS = 2


def _sweep_fanout_batches():
    """The workload: four load batches of the exhaustive single-fault
    enumeration on 4x3 (the SR2201 paper's safety argument, at sweep
    scale) with short measurement windows -- the per-spec fixed costs the
    warm runtime amortizes are the point, not long simulations."""
    from .runtime import fault_placement_specs

    loads = (0.08, 0.12, 0.16, 0.2)
    return [
        fault_placement_specs(
            "md-crossbar",
            (4, 3),
            load,
            warmup=5,
            window=10,
            drain=60,
            stall_limit=200,
        )
        for load in loads
    ]


def _run_sweep_fanout(repeats: int = 3) -> Dict:
    """Measure the sweep runtime end-to-end: the same fault-enumeration
    batches through (a) per-batch cold per-spec pools -- one
    ``ProcessPoolExecutor.run`` per batch, the pre-session shape; (b) one
    persistent warm :class:`SweepSession` (chunked dispatch + per-worker
    network reuse); (c) a fully populated result cache.  Every leg must
    reproduce the serial reference byte-identically
    (:func:`repro.runtime.result_identity`); any drift raises.  Reported
    speedups are in-run ratios, machine-independent like
    ``speedup_vs_legacy``.

    The case also runs the batches once serial, once chunked and once as
    a cache replay with a run ledger attached (untimed): the three
    ledgers must strip to the same
    :func:`~repro.obs.telemetry.ledger_identity`, and the stripped record
    count plus identity hash ride in the bench doc as deterministic
    fields (``ledger_records``/``ledger_identity_sha256``)."""
    import shutil
    import tempfile

    from .obs.telemetry import (
        LEDGER_SCHEMA_VERSION,
        SweepLedger,
        ledger_identity,
        strip_ledger,
    )
    from .runtime import (
        ProcessPoolExecutor as _SpecPool,
        ResultCache,
        SerialExecutor,
        SweepSession,
        result_identity,
    )

    batches = _sweep_fanout_batches()
    specs = [s for batch in batches for s in batch]
    repeats = max(1, repeats)

    serial = SerialExecutor().run(specs)
    reference = result_identity(serial)

    def timed(leg: str, run_once: Callable[[], List]) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = run_once()
            wall = time.perf_counter() - t0
            if result_identity(out) != reference:
                raise AssertionError(
                    f"sweep_fanout: {leg} leg drifted from the serial "
                    f"reference (determinism bug)"
                )
            best = min(best, wall)
        return best

    def cold_once() -> List:
        out = []
        for batch in batches:
            out.extend(_SpecPool(SWEEP_FANOUT_JOBS).run(batch))
        return out

    cold_wall = timed("cold", cold_once)

    with SweepSession(jobs=SWEEP_FANOUT_JOBS) as session:
        session.run(batches[0])  # untimed: spawn workers, build networks
        warm_wall = timed(
            "warm",
            lambda: [r for b in batches for r in session.run(b)],
        )

    def ledgered_run(jobs, cache=None) -> SweepLedger:
        ledger = SweepLedger()
        with SweepSession(jobs=jobs, cache=cache, ledger=ledger) as s:
            for batch in batches:
                s.run(batch)
        return ledger

    serial_ledger = ledgered_run(None)
    chunked_ledger = ledgered_run(SWEEP_FANOUT_JOBS)

    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        cache = ResultCache(cache_dir)
        with SweepSession(jobs=SWEEP_FANOUT_JOBS, cache=cache) as cached:
            cached.run(specs)  # untimed: populate the cache
            cached_wall = timed(
                "cached",
                lambda: [r for b in batches for r in cached.run(b)],
            )
        if cache.hits < len(specs) * repeats:
            raise AssertionError(
                "sweep_fanout: cached leg was not fully served from cache"
            )
        replay_ledger = ledgered_run(None, cache=cache)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    ledger_sha = ledger_identity(serial_ledger.records)
    if not (
        ledger_sha
        == ledger_identity(chunked_ledger.records)
        == ledger_identity(replay_ledger.records)
    ):
        raise AssertionError(
            "sweep_fanout: ledger identity drifted between the serial, "
            "chunked and cache-replayed passes (telemetry determinism bug)"
        )

    n = len(specs)
    total_cycles = sum(r.point.cycles for r in serial)
    counted = [r.point.latency for r in serial if r.point.latency.count]
    mean_latency = (
        round(
            sum(lat.mean * lat.count for lat in counted)
            / sum(lat.count for lat in counted),
            3,
        )
        if counted
        else None
    )
    return {
        "description": (
            f"{n}-spec single-fault enumeration x {len(batches)} load "
            f"batches, jobs={SWEEP_FANOUT_JOBS}: warm session vs cold "
            f"per-spec pools vs cache replay"
        ),
        "repeats": repeats,
        "specs": n,
        "batches": len(batches),
        "jobs": SWEEP_FANOUT_JOBS,
        "wall_time_s": round(warm_wall, 6),
        "cold_wall_s": round(cold_wall, 6),
        "cached_wall_s": round(cached_wall, 6),
        "specs_per_sec_warm": round(n / warm_wall, 1),
        "specs_per_sec_cold": round(n / cold_wall, 1),
        "specs_per_sec_cached": round(n / cached_wall, 1),
        "warm_speedup": round(cold_wall / warm_wall, 3),
        "cache_speedup": round(cold_wall / cached_wall, 3),
        "cycles": total_cycles,
        "cycles_per_sec": (
            round(total_cycles / warm_wall, 1) if warm_wall > 0 else 0.0
        ),
        "delivered": sum(r.point.latency.count for r in serial),
        "mean_latency": mean_latency,
        "deadlocked": any(r.point.deadlocked for r in serial),
        "identity_sha256": hashlib.sha256(
            reference.encode("utf-8")
        ).hexdigest(),
        "ledger_schema": LEDGER_SCHEMA_VERSION,
        "ledger_records": len(strip_ledger(serial_ledger.records)),
        "ledger_identity_sha256": ledger_sha,
    }


def _scheme_faults(cls, shape) -> List[Fault]:
    """The single-fault enumeration a scheme's coverage leg must survive
    (e11-style: every placement, one at a time)."""
    if cls.kind == "md-crossbar":
        from .core.multifault import all_single_faults

        return list(all_single_faults(shape))
    # the full mesh has routers only; every router is a placement
    from .core.coords import all_coords

    return [Fault.router(c) for c in all_coords(shape)]


def _shootout_latency(name: str, shape) -> Dict:
    """One deterministic Bernoulli leg on a scheme's bench grid."""
    from .routing import make_scheme

    sch = make_scheme(name, shape)
    sim = NetworkSimulator(
        sch.adapter, SimConfig(num_vcs=sch.num_vcs, stall_limit=5000)
    )
    sim.add_generator(
        BernoulliInjector(
            load=0.15, packet_length=4, pattern=uniform, seed=1, stop_at=300
        )
    )
    t0 = time.perf_counter()
    res = sim.run(max_cycles=3000, until_drained=False)
    wall = time.perf_counter() - t0
    lats = res.latencies
    return {
        "wall_time_s": wall,
        "cycles": res.cycles,
        "flit_moves": res.flit_moves,
        "delivered": len(res.delivered),
        "mean_latency": round(sum(lats) / len(lats), 3) if lats else None,
        "deadlocked": res.deadlocked,
    }


def _shootout_coverage(name: str, cls, shape) -> Tuple[int, int]:
    """Total-exchange delivery under every single-fault placement.

    For each fault the scheme claims to tolerate, every live (src, dest)
    pair sends one packet at cycle 0 and the run must drain with zero
    drops and zero deadlocks.  Returns (placements survived, packets
    delivered); any loss raises -- fault coverage is a correctness
    property, not a statistic."""
    from .routing import make_scheme

    covered = 0
    delivered = 0
    for fault in _scheme_faults(cls, shape):
        sch = make_scheme(name, shape, faults=(fault,))
        sim = NetworkSimulator(
            sch.adapter, SimConfig(num_vcs=sch.num_vcs, stall_limit=5000)
        )
        live = sorted(sch.live_nodes())
        sent = 0
        for s in live:
            for d in live:
                if s != d:
                    sim.send(Packet(Header(source=s, dest=d), length=4))
                    sent += 1
        res = sim.run(max_cycles=50_000)
        if res.deadlocked:
            raise AssertionError(
                f"scheme_shootout: {name} deadlocked under {fault}"
            )
        if res.dropped or len(res.delivered) != sent:
            raise AssertionError(
                f"scheme_shootout: {name} lost packets under {fault} "
                f"({len(res.delivered)}/{sent} delivered, "
                f"{len(res.dropped)} dropped)"
            )
        covered += 1
        delivered += sent
    return covered, delivered


def _run_scheme_shootout(repeats: int = 3) -> Dict:
    """Cross-scheme shoot-out: every registered routing scheme on its
    bench grid, measured on one table -- zero-ish-load latency, path
    stretch vs shortest channel paths, CDG cycle-freedom (raises on any
    cyclic scheme), and, for the fault-modelling schemes, full delivery
    under the single-fault enumeration.  The latency leg runs ``repeats``
    times and every simulated quantity must agree across repeats; the
    per-scheme table is a deterministic field (``schemes``), so any
    cross-machine drift trips the baseline comparison exactly like a
    ``cycles`` drift would."""
    from .analysis.properties import route_stats
    from .routing import get_scheme, make_scheme, scheme_names

    schemes: Dict[str, Dict] = {}
    total_wall = 0.0
    total_cycles = 0
    for name in scheme_names():
        cls = get_scheme(name)
        shape = cls.bench_shape
        audit = make_scheme(name, shape).check_cycle_free()
        if not audit.cycle_free:
            raise AssertionError(f"scheme_shootout: {audit.row()}")
        stats = route_stats(make_scheme(name, shape))
        runs = [_shootout_latency(name, shape) for _ in range(max(1, repeats))]
        for other in runs[1:]:
            for field in ("cycles", "delivered", "flit_moves", "mean_latency"):
                if other[field] != runs[0][field]:
                    raise AssertionError(
                        f"scheme_shootout: {name}.{field} drifted between "
                        f"repeats ({runs[0][field]!r} != {other[field]!r})"
                    )
        best = min(runs, key=lambda r: r["wall_time_s"])
        if best["deadlocked"]:
            raise AssertionError(f"scheme_shootout: {name} deadlocked")
        covered = fault_delivered = None
        if cls.supports_faults:
            covered, fault_delivered = _shootout_coverage(name, cls, shape)
        total_wall += best["wall_time_s"]
        total_cycles += best["cycles"]
        schemes[name] = {
            "kind": cls.kind,
            "shape": "x".join(map(str, shape)),
            "cdg_edges": audit.num_edges,
            "cycle_free": audit.cycle_free,
            "pairs": stats["pairs"],
            "avg_channels": stats["avg_channels"],
            "stretch": stats["stretch"],
            "cycles": best["cycles"],
            "delivered": best["delivered"],
            "flit_moves": best["flit_moves"],
            "mean_latency": best["mean_latency"],
            "faults_covered": covered,
            "fault_delivered": fault_delivered,
        }
    identity = json.dumps(schemes, sort_keys=True, separators=(",", ":"))
    return {
        "description": (
            f"{len(schemes)}-scheme shoot-out: latency, path stretch, "
            f"CDG acyclicity and single-fault coverage per registered "
            f"routing scheme"
        ),
        "repeats": max(1, repeats),
        # no cycles_per_sec: the latency legs are deliberately tiny, so a
        # wall-clock rate would be all noise -- this case gates on the
        # deterministic ``schemes`` table, not throughput
        "wall_time_s": round(total_wall, 6),
        "cycles": total_cycles,
        "delivered": sum(s["delivered"] for s in schemes.values()),
        "deadlocked": False,
        "schemes": schemes,
        "identity_sha256": hashlib.sha256(
            identity.encode("utf-8")
        ).hexdigest(),
    }


#: (leg name, detour scheme, recovery flag) for the recovery shoot-out
RECOVERY_LEGS: Tuple[Tuple[str, str, bool], ...] = (
    ("avoidance", "safe", False),
    ("recovery", "naive", True),
    ("halt", "naive", False),
)


def _fig9_recovery_sim(detour: str, recovery: bool):
    """The paper's Fig. 9 deadlock interleaving on a (4, 3) network with
    router (2, 0) faulty: one broadcast plus three unicasts whose naive
    detours close a cyclic wait.  Returns (sim, packets)."""
    from .core.config import DetourScheme

    shape = (4, 3)
    topo = MDCrossbar(shape)
    logic = SwitchLogic(
        topo,
        make_config(
            shape,
            fault=Fault.router((2, 0)),
            detour_scheme=DetourScheme(detour),
        ),
    )
    sim = NetworkSimulator(
        MDCrossbarAdapter(logic),
        SimConfig(stall_limit=200, recovery=recovery),
    )
    pkts = [
        Packet(
            Header(source=(3, 2), dest=(3, 2), rc=RC.BROADCAST_REQUEST),
            length=6,
        ),
        Packet(Header(source=(0, 0), dest=(2, 2)), length=6),
        Packet(Header(source=(1, 0), dest=(3, 1)), length=6),
        Packet(Header(source=(0, 1), dest=(1, 2)), length=6),
    ]
    for pkt, dt in zip(pkts, (0, 1, 1, 2)):
        sim.send(pkt, at_cycle=dt)
    return sim, pkts


def _run_recovery_shootout(repeats: int = 3) -> Dict:
    """Avoidance vs recovery vs halt on the same deadlock-prone workload.

    Three legs, one table (``legs``): (a) *avoidance* -- the paper's
    safe detour scheme, which never deadlocks in the first place; (b)
    *recovery* -- the naive scheme plus the engine's online drain/rotate
    mode, which must still deliver 100% with at least one rotation; (c)
    *halt* -- the naive scheme bare, which must end in a
    :class:`DeadlockReport`.  Every leg runs ``repeats`` times and every
    simulated quantity (including the rebased victim pids) must agree
    across repeats; the whole table is a deterministic field, so
    cross-machine drift trips the baseline comparison."""
    import itertools

    import repro.core.packet as packet_mod

    legs: Dict[str, Dict] = {}
    total_wall = 0.0
    total_cycles = 0
    for leg, detour, recovery in RECOVERY_LEGS:
        runs = []
        for _ in range(max(1, repeats)):
            # pid counter restart: victim pids rebase identically per run
            packet_mod._packet_ids = itertools.count(1_000_000)
            sim, pkts = _fig9_recovery_sim(detour, recovery)
            base = min(p.pid for p in pkts)
            t0 = time.perf_counter()
            res = sim.run(max_cycles=20_000)
            wall = time.perf_counter() - t0
            runs.append(
                {
                    "wall_time_s": wall,
                    "cycles": res.cycles,
                    "flit_moves": res.flit_moves,
                    "delivered": len(res.delivered),
                    "recoveries": res.recoveries,
                    "victims": [v - base for v in res.recovery_victims],
                    "deadlocked": res.deadlocked,
                    "deadlock_cycle": (
                        None if res.deadlock is None else res.deadlock.cycle
                    ),
                    "in_flight": res.in_flight_at_end,
                }
            )
        for other in runs[1:]:
            for field in sorted(set(runs[0]) - {"wall_time_s"}):
                if other[field] != runs[0][field]:
                    raise AssertionError(
                        f"recovery_shootout: {leg}.{field} drifted between "
                        f"repeats ({runs[0][field]!r} != {other[field]!r})"
                    )
        best = min(runs, key=lambda r: r["wall_time_s"])
        sent = 4
        if leg in ("avoidance", "recovery"):
            if best["deadlocked"] or best["delivered"] != sent:
                raise AssertionError(
                    f"recovery_shootout: {leg} leg must deliver all {sent} "
                    f"packets without a final deadlock "
                    f"({best['delivered']} delivered, "
                    f"deadlocked={best['deadlocked']})"
                )
        if leg == "avoidance" and best["recoveries"]:
            raise AssertionError(
                "recovery_shootout: the safe scheme must not need recovery"
            )
        if leg == "recovery" and best["recoveries"] < 1:
            raise AssertionError(
                "recovery_shootout: the recovery leg never deadlocked -- "
                "the workload no longer exercises the rotate path"
            )
        if leg == "halt" and not best["deadlocked"]:
            raise AssertionError(
                "recovery_shootout: the halt leg must end in a "
                "DeadlockReport"
            )
        total_wall += best["wall_time_s"]
        total_cycles += best["cycles"]
        legs[leg] = {
            "detour": detour,
            "recovery": recovery,
            **{k: v for k, v in best.items() if k != "wall_time_s"},
        }
    identity = json.dumps(legs, sort_keys=True, separators=(",", ":"))
    return {
        "description": (
            "Fig. 9 deadlock workload three ways: VC avoidance (safe "
            "detours) vs online drain/rotate recovery vs halt-and-report"
        ),
        "repeats": max(1, repeats),
        # no cycles_per_sec: the legs are tiny (a few hundred cycles); the
        # case gates on the deterministic ``legs`` table, not throughput
        "wall_time_s": round(total_wall, 6),
        "cycles": total_cycles,
        "delivered": sum(leg["delivered"] for leg in legs.values()),
        # the halt leg deadlocks *by design* (asserted above); the
        # case-level flag keeps the "nothing unexpected deadlocked"
        # meaning the other cases use
        "deadlocked": False,
        "legs": legs,
        "identity_sha256": hashlib.sha256(
            identity.encode("utf-8")
        ).hexdigest(),
    }


#: the full SR2201 installation: 16 x 16 x 8 = 2048 processing elements
MACHINE_SHAPE: Tuple[int, ...] = (16, 16, 8)


def _machine_sim(engine: str, faults=()) -> NetworkSimulator:
    logic = SwitchLogic(
        MDCrossbar(MACHINE_SHAPE),
        make_config(MACHINE_SHAPE, faults=tuple(faults)),
    )
    return NetworkSimulator(
        MDCrossbarAdapter(logic),
        SimConfig(stall_limit=2000, engine=engine),
    )


def _machine_p2p_workload(sim: NetworkSimulator, rounds: int) -> None:
    """Every PE sends ``rounds`` length-16 packets to its fixed
    permutation partner ((x+8)%16, (y+8)%16, (z+4)%8), staggered by a
    small coordinate-derived offset.  The fixed pairing keeps rounds
    beyond the first on the adapter's route memo, so the leg measures
    the engines' cycle machinery rather than cold route decisions."""
    for x in range(MACHINE_SHAPE[0]):
        for y in range(MACHINE_SHAPE[1]):
            for z in range(MACHINE_SHAPE[2]):
                dest = ((x + 8) % 16, (y + 8) % 16, (z + 4) % 8)
                for r in range(rounds):
                    sim.send(
                        Packet(
                            Header(source=(x, y, z), dest=dest), length=16
                        ),
                        at_cycle=r * 20 + (x + y + z) % 4,
                    )


def _machine_detour_workload(sim: NetworkSimulator) -> None:
    """A 5x5x5 subgrid around the faulted router (8, 8, 4), same
    permutation pairing: traffic whose shortest routes cross the dead
    crossbar lines, so the detour tables are exercised at machine
    scale."""
    for x in range(6, 11):
        for y in range(6, 11):
            for z in range(2, 7):
                if (x, y, z) == (8, 8, 4):
                    continue
                dest = ((x + 8) % 16, (y + 8) % 16, (z + 4) % 8)
                for r in range(4):
                    sim.send(
                        Packet(
                            Header(source=(x, y, z), dest=dest), length=16
                        ),
                        at_cycle=r * 24,
                    )


#: (source PE, send cycle) of the S-XB broadcasts that ride along with the
#: detour workload in the machine_2048 broadcast leg
MACHINE_BROADCASTS: Tuple[Tuple[Tuple[int, int, int], int], ...] = (
    ((0, 0, 0), 0),
    ((8, 8, 3), 6),
    ((15, 15, 7), 12),
    ((8, 7, 4), 18),
)


def _machine_broadcast_workload(sim: NetworkSimulator) -> None:
    """The detour workload plus a few ``RC.BROADCAST_REQUEST`` broadcasts
    sent while it runs: the paper's Figs. 9-10 situation (Y-X-Y
    broadcast through the S-XB next to X-Y-X-Y detours through the D-XB)
    at machine scale."""
    _machine_detour_workload(sim)
    for src, at in MACHINE_BROADCASTS:
        sim.send(
            Packet(
                Header(source=src, dest=src, rc=RC.BROADCAST_REQUEST),
                length=8,
            ),
            at_cycle=at,
        )


def _machine_run(engine: str, workload, faults=()):
    """One fresh machine-scale run: (fingerprint, wall, result, sim).
    The pid counter restarts so fingerprints rebase identically and the
    adapter (route memo included) is rebuilt so every engine starts from
    the same cold state."""
    import itertools

    import repro.core.packet as packet_mod

    packet_mod._packet_ids = itertools.count(1_000_000)
    sim = _machine_sim(engine, faults=faults)
    workload(sim)
    t0 = time.perf_counter()
    res = sim.run(max_cycles=100_000)
    wall = time.perf_counter() - t0
    return res.fingerprint(), wall, res, sim


def _profile_machine_2048(top: int) -> str:
    """cProfile dump of one reduced SoA p2p leg (kernel phases and
    their numpy sections dominate the top-N; the scalar drivers'
    profiles are already covered by the build cases)."""
    import itertools

    import repro.core.packet as packet_mod

    packet_mod._packet_ids = itertools.count(1_000_000)
    sim = _machine_sim("soa")
    _machine_p2p_workload(sim, rounds=6)
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run(max_cycles=100_000)
    profiler.disable()
    if sim.engine_used != "soa":
        raise AssertionError(
            "machine_2048: profiling leg fell back to the scalar path"
        )
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).sort_stats("cumulative").print_stats(
        top
    )
    return buf.getvalue()


def _run_machine_2048(repeats: int = 3, rounds: int = 20) -> Dict:
    """The tentpole leg: a full 2048-PE SR2201 run under the batched SoA
    engine vs the scalar active driver, fingerprint-identical.

    The p2p leg (all-PE fixed-permutation traffic, ``rounds`` rounds)
    times the SoA driver best-of-``repeats`` and the active driver once
    -- the active leg is ~7x slower, and its wall noise can only
    *inflate* the reported ratio, so a single reference run keeps the
    case affordable without weakening the floor.  ``speedup_vs_active``
    is an in-run, machine-independent ratio like ``speedup_vs_legacy``;
    ``soa_drift`` lists the legs on which the SoA fingerprint diverged
    from the active driver's (always empty unless the kernel is broken)
    and regresses at any threshold.  A silent fallback to the scalar
    path fails the case outright: the whole point is that the kernel
    ran.  The detour leg re-runs a faulted subgrid workload under both
    drivers (untimed gate) so machine-scale detours ride in the
    identity hash too.  The broadcast leg adds concurrent S-XB
    broadcasts to that detour workload (untimed gate, in-kernel or the
    case fails); it is checked against the active driver but kept out
    of the identity hash, so baselines taken before it stay valid."""
    repeats = max(1, repeats)
    soa_drift: List[str] = []

    fp_soa, wall_soa, res_soa, sim_soa = _machine_run(
        "soa", lambda sim: _machine_p2p_workload(sim, rounds)
    )
    if sim_soa.engine_used != "soa":
        raise AssertionError(
            f"machine_2048: SoA kernel fell back to the scalar path "
            f"({sim_soa.engine_fallback}) -- the p2p leg must run "
            f"in-kernel"
        )
    for _ in range(repeats - 1):
        fp, wall, _, _ = _machine_run(
            "soa", lambda sim: _machine_p2p_workload(sim, rounds)
        )
        if fp != fp_soa:
            raise AssertionError(
                "machine_2048: SoA p2p leg drifted between repeats"
            )
        wall_soa = min(wall_soa, wall)
    fp_active, wall_active, _, _ = _machine_run(
        "active", lambda sim: _machine_p2p_workload(sim, rounds)
    )
    if fp_soa != fp_active:
        soa_drift.append("p2p")

    faults = (Fault.router((8, 8, 4)),)
    fp_dsoa, _, res_detour, sim_detour = _machine_run(
        "soa", _machine_detour_workload, faults=faults
    )
    if sim_detour.engine_used != "soa":
        raise AssertionError(
            f"machine_2048: detour leg fell back to the scalar path "
            f"({sim_detour.engine_fallback})"
        )
    fp_dactive, _, _, _ = _machine_run(
        "active", _machine_detour_workload, faults=faults
    )
    if fp_dsoa != fp_dactive:
        soa_drift.append("detour")

    fp_bsoa, _, _, sim_bcast = _machine_run(
        "soa", _machine_broadcast_workload, faults=faults
    )
    if sim_bcast.engine_used != "soa":
        raise AssertionError(
            f"machine_2048: broadcast leg fell back to the scalar path "
            f"({sim_bcast.engine_fallback})"
        )
    fp_bactive, _, _, _ = _machine_run(
        "active", _machine_broadcast_workload, faults=faults
    )
    if fp_bsoa != fp_bactive:
        soa_drift.append("broadcast")

    speedup = round(wall_active / wall_soa, 3) if wall_soa > 0 else None
    # a disabled or degraded kernel collapses the ratio toward 1x; the
    # committed baseline records ~7x and compare_bench gates the fine
    # 30%-relative floor, so this in-run check only has to catch the
    # catastrophic case without flaking on noisy machines
    if rounds >= 6 and speedup is not None and speedup < 3.0:
        raise AssertionError(
            f"machine_2048: SoA speedup collapsed to {speedup}x vs the "
            f"active driver (kernel perf regression)"
        )

    lats = res_soa.latencies
    identity = repr((fp_soa, fp_dsoa))
    return {
        "description": (
            f"full 16x16x8 SR2201 ({16 * 16 * 8} PEs): {rounds}-round "
            f"fixed-permutation p2p under the SoA kernel vs the active "
            f"driver, plus faulted detour-subgrid and concurrent "
            f"broadcast + detour parity legs"
        ),
        "repeats": repeats,
        "rounds": rounds,
        "shape": "x".join(map(str, MACHINE_SHAPE)),
        "engine_used": "soa",
        "wall_time_s": round(wall_soa, 6),
        "active_wall_s": round(wall_active, 6),
        "cycles": res_soa.cycles,
        "cycles_per_sec": (
            round(res_soa.cycles / wall_soa, 1) if wall_soa > 0 else 0.0
        ),
        "active_cycles_per_sec": (
            round(res_soa.cycles / wall_active, 1)
            if wall_active > 0
            else 0.0
        ),
        "speedup_vs_active": speedup,
        "soa_drift": soa_drift,
        "flit_moves": res_soa.flit_moves,
        "delivered": len(res_soa.delivered),
        "mean_latency": (
            round(sum(lats) / len(lats), 3) if lats else None
        ),
        "deadlocked": res_soa.deadlocked,
        "detour_cycles": res_detour.cycles,
        "detour_delivered": len(res_detour.delivered),
        "identity_sha256": hashlib.sha256(
            identity.encode("utf-8")
        ).hexdigest(),
    }


#: samples in the campaign_reliability bench campaign -- big enough
#: that the vectorized kernel's per-block fixed costs are amortized,
#: small enough for three best-of repeats in CI
CAMPAIGN_BENCH_SAMPLES = 100_000

#: samples in the scalar-loop reference leg -- enough wall time (~25ms)
#: that the rate measurement is not timer noise, still a rounding error
#: next to the campaign legs
CAMPAIGN_LOOP_SAMPLES = 100

#: in-run floor for campaign-vs-loop throughput; ISSUE 10 demands >= 20x
#: and the kernel delivers >100x, so the floor only trips when the
#: vectorized path breaks (machine-independent ratio, like
#: ``speedup_vs_legacy``)
CAMPAIGN_SPEEDUP_FLOOR = 20.0


def _run_campaign_reliability(repeats: int = 3) -> Dict:
    """Measure the Monte-Carlo campaign engine on the full machine.

    Three legs: (a) the serial campaign -- ``CAMPAIGN_BENCH_SAMPLES``
    fault-placement walks on the 16x16x8 SR2201 through the vectorized
    block kernel, best-of-``repeats``; (b) the same campaign fanned over
    2 workers, whose merged estimate must hash identically to the serial
    one (the chunking/jobs-invariance contract, asserted in-run); (c)
    the scalar per-sample loop (``simulate_extended_facility``) as the
    throughput reference.  ``speedup_vs_loop`` is an in-run,
    machine-independent ratio with a hard ``CAMPAIGN_SPEEDUP_FLOOR``;
    ``identity_sha256`` is the campaign's own chunking-invariant
    estimate hash, exact-matched against the baseline."""
    from .analysis.campaign import CampaignSpec, run_campaign
    from .analysis.reliability import simulate_extended_facility

    repeats = max(1, repeats)
    spec = CampaignSpec(shape=MACHINE_SHAPE, samples=CAMPAIGN_BENCH_SAMPLES)

    serial_wall = float("inf")
    serial = None
    for _ in range(repeats):
        result = run_campaign(spec, jobs=1)
        if serial is not None and (
            result.identity_sha256 != serial.identity_sha256
        ):
            raise AssertionError(
                "campaign_reliability: serial campaign drifted between "
                "repeats (determinism bug)"
            )
        serial_wall = min(serial_wall, result.wall_s)
        serial = result

    fanout = run_campaign(spec, jobs=2)
    if fanout.identity_sha256 != serial.identity_sha256:
        raise AssertionError(
            "campaign_reliability: jobs=2 campaign drifted from the "
            "serial estimate (chunking-invariance bug)"
        )

    loop_wall = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        simulate_extended_facility(
            MACHINE_SHAPE, samples=CAMPAIGN_LOOP_SAMPLES, seed=spec.seed
        )
        loop_wall = min(loop_wall, time.perf_counter() - t0)

    def _speedup() -> float:
        return round(
            (spec.samples / serial_wall)
            / (CAMPAIGN_LOOP_SAMPLES / loop_wall),
            3,
        )

    if _speedup() < CAMPAIGN_SPEEDUP_FLOOR:
        # a transient load spike on a shared CI box can shave the
        # margin; re-measure both legs once (folding into the bests)
        # before calling it a regression -- a genuinely slow kernel
        # fails both times
        extra = run_campaign(spec, jobs=1)
        serial_wall = min(serial_wall, extra.wall_s)
        t0 = time.perf_counter()
        simulate_extended_facility(
            MACHINE_SHAPE, samples=CAMPAIGN_LOOP_SAMPLES, seed=spec.seed
        )
        loop_wall = min(loop_wall, time.perf_counter() - t0)
    speedup = _speedup()
    if speedup < CAMPAIGN_SPEEDUP_FLOOR:
        raise AssertionError(
            f"campaign_reliability: kernel is only {speedup}x the scalar "
            f"loop (floor {CAMPAIGN_SPEEDUP_FLOOR}x) -- vectorized "
            f"sampling path regressed"
        )
    samples_per_sec = spec.samples / serial_wall
    loop_rate = CAMPAIGN_LOOP_SAMPLES / loop_wall

    est = serial.estimate()
    # "cycles" for this runner case = total fault-injection steps walked
    # across the campaign (deterministic given the seed, like the engine
    # cases' cycle counts); "delivered" = completed sample walks.
    steps = serial.state.survived_sum
    return {
        "description": (
            f"{spec.samples}-sample reliability campaign on the full "
            f"16x16x8 SR2201: vectorized block kernel (serial + 2-worker "
            f"fanout, identical estimates) vs the scalar per-sample loop"
        ),
        "repeats": repeats,
        "shape": "x".join(map(str, spec.shape)),
        "samples": spec.samples,
        "blocks": serial.blocks_done,
        "block_samples": spec.block_samples,
        "cycles": steps,
        "delivered": spec.samples,
        "deadlocked": False,
        "cycles_per_sec": (
            round(steps / serial_wall, 1) if serial_wall > 0 else 0.0
        ),
        "wall_time_s": round(serial_wall, 6),
        "fanout_wall_s": round(fanout.wall_s, 6),
        "samples_per_sec": round(samples_per_sec, 1),
        "loop_samples_per_sec": round(loop_rate, 1),
        "speedup_vs_loop": speedup,
        "mean_mttf": est.mean,
        "std_error": est.std_error,
        "mean_faults_survived": round(est.mean_faults_survived, 4),
        "identity_sha256": serial.identity_sha256,
    }


#: the pinned suite; order is the report order
BENCH_CASES: Tuple[BenchCase, ...] = (
    BenchCase(
        "p2p_4x3_low",
        "uniform Bernoulli traffic, 4x3, load 0.15",
        True,
        _bernoulli_case((4, 3), 0.15, 300),
    ),
    BenchCase(
        "broadcast_4x3",
        "12 serialized S-XB broadcasts, 4x3",
        True,
        _broadcast_case((4, 3), 12, 3),
    ),
    BenchCase(
        "detour_4x3_fault",
        "uniform traffic around a faulty router, 4x3",
        True,
        _bernoulli_case((4, 3), 0.15, 300, faults=(Fault.router((2, 0)),)),
    ),
    BenchCase(
        "stream_8x1_long",
        "12 length-64 packets across an 8x1 line, 120-cycle gaps",
        True,
        _stream_case((8, 1), 12, 64, 120),
    ),
    BenchCase(
        "sweep_fanout",
        "76-spec fault-enumeration sweep: warm session vs cold pools "
        "vs cache replay",
        True,
        runner=_run_sweep_fanout,
    ),
    BenchCase(
        "scheme_shootout",
        "every registered routing scheme: latency, stretch, CDG "
        "acyclicity, single-fault coverage",
        True,
        runner=_run_scheme_shootout,
    ),
    BenchCase(
        "recovery_shootout",
        "Fig. 9 deadlock workload: avoidance vs online recovery vs halt",
        True,
        runner=_run_recovery_shootout,
    ),
    BenchCase(
        "machine_2048",
        "full 16x16x8 SR2201: SoA kernel vs active driver, "
        "fingerprint-identical",
        True,
        runner=_run_machine_2048,
        profile=_profile_machine_2048,
    ),
    BenchCase(
        "campaign_reliability",
        "100k-sample Monte-Carlo reliability campaign on the full "
        "machine: block kernel vs scalar loop, jobs-invariant",
        True,
        runner=_run_campaign_reliability,
    ),
    BenchCase(
        "p2p_8x8_mid",
        "uniform Bernoulli traffic, 8x8, load 0.3",
        False,
        _bernoulli_case((8, 8), 0.3, 300),
    ),
)


def _measure(case: BenchCase, legacy: bool = False) -> Dict:
    """One timed run of a case (spans attached throughout)."""
    sim, max_cycles = case.build(legacy=legacy)
    spans = PacketSpanCollector().attach(sim)
    t0 = time.perf_counter()
    res = sim.run(max_cycles=max_cycles, until_drained=False)
    wall = time.perf_counter() - t0
    spans.detach(sim)
    totals = spans.span_set().totals()
    lats = res.latencies
    return {
        "wall_time_s": wall,
        "cycles": res.cycles,
        "flit_moves": res.flit_moves,
        "delivered": len(res.delivered),
        "mean_latency": (
            round(sum(lats) / len(lats), 3) if lats else None
        ),
        "blocked_cycles": totals["blocked"],
        "sxb_wait_cycles": totals["sxb_wait"],
        "queue_wait_cycles": totals["queue_wait"],
        "detour_overhead_cycles": totals["detour_overhead"],
        "deadlocked": res.deadlocked,
    }


def _profile_case(case: BenchCase, top: int) -> str:
    """One extra run under cProfile; returns the top-``top`` cumulative
    dump (never used for the timed measurements)."""
    sim, max_cycles = case.build()
    spans = PacketSpanCollector().attach(sim)
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run(max_cycles=max_cycles, until_drained=False)
    profiler.disable()
    spans.detach(sim)
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).sort_stats("cumulative").print_stats(top)
    return buf.getvalue()


def run_case(
    case: BenchCase,
    repeats: int = 3,
    legacy_compare: bool = False,
    profile_top: Optional[int] = None,
) -> Dict:
    """Measure one case: best-of-``repeats`` wall time (the simulated
    quantities must agree across every repeat -- any disagreement is a
    determinism bug and raises).  With ``legacy_compare`` the case also
    runs once with ``legacy_scan=True`` and the result carries the
    in-run ``speedup_vs_legacy`` (machine-independent, unlike the
    wall-clock rates) plus ``legacy_drift``, the deterministic fields on
    which the fast path disagreed with the full per-cycle scan (always
    empty unless the active-set engine is broken).  ``profile_top``
    adds a cProfile top-N cumulative dump from one extra run.

    Runner cases (``case.runner``, e.g. ``sweep_fanout``) measure
    themselves -- repeats are theirs to apply, and the legacy extra does
    not (there is no single engine run to twin).  A runner case profiles
    only when it brings its own ``case.profile`` override (machine_2048
    profiles its SoA leg)."""
    if case.runner is not None:
        out = case.runner(repeats=max(1, repeats))
        if profile_top and case.profile is not None:
            out["profile"] = case.profile(profile_top)
        return out
    runs = [_measure(case) for _ in range(max(1, repeats))]
    for other in runs[1:]:
        for field in DETERMINISTIC_FIELDS:
            if field in runs[0] and other[field] != runs[0][field]:
                raise AssertionError(
                    f"{case.name}: {field} drifted between repeats "
                    f"({runs[0][field]!r} != {other[field]!r})"
                )
    best = min(runs, key=lambda r: r["wall_time_s"])
    wall = best["wall_time_s"]
    out = {
        "description": case.description,
        "repeats": len(runs),
        "wall_time_s": round(wall, 6),
        "cycles": best["cycles"],
        "cycles_per_sec": round(best["cycles"] / wall, 1) if wall > 0 else 0.0,
        "flit_moves": best["flit_moves"],
        "flit_moves_per_sec": (
            round(best["flit_moves"] / wall, 1) if wall > 0 else 0.0
        ),
        "delivered": best["delivered"],
        "mean_latency": best["mean_latency"],
        "blocked_cycles": best["blocked_cycles"],
        "sxb_wait_cycles": best["sxb_wait_cycles"],
        "queue_wait_cycles": best["queue_wait_cycles"],
        "detour_overhead_cycles": best["detour_overhead_cycles"],
        "deadlocked": best["deadlocked"],
    }
    if legacy_compare:
        # same best-of-repeats discipline: the speedup ratio is only as
        # stable as its noisier (legacy) leg
        legacy_runs = [
            _measure(case, legacy=True) for _ in range(max(1, repeats))
        ]
        legacy = min(legacy_runs, key=lambda r: r["wall_time_s"])
        lw = legacy["wall_time_s"]
        legacy_rate = round(legacy["cycles"] / lw, 1) if lw > 0 else 0.0
        out["legacy_cycles_per_sec"] = legacy_rate
        out["speedup_vs_legacy"] = (
            round(out["cycles_per_sec"] / legacy_rate, 3)
            if legacy_rate
            else None
        )
        out["legacy_drift"] = [
            field
            for field in DETERMINISTIC_FIELDS
            if field in best and legacy[field] != best[field]
        ]
    if profile_top:
        out["profile"] = _profile_case(case, profile_top)
    return out


def run_suite(
    smoke: bool = False,
    label: str = "local",
    progress: Optional[Callable[[str], None]] = None,
    repeats: int = 3,
    legacy_compare: bool = True,
    profile_top: Optional[int] = None,
) -> Dict:
    """Run the pinned suite (or its ``--smoke`` subset) into a bench doc.

    ``legacy_compare`` applies to the smoke cases only (the legacy twin
    of the big non-smoke cases would dominate suite runtime)."""
    cases: Dict[str, Dict] = {}
    for case in BENCH_CASES:
        if smoke and not case.smoke:
            continue
        if progress:
            progress(f"running {case.name}: {case.description}")
        cases[case.name] = run_case(
            case,
            repeats=repeats,
            legacy_compare=legacy_compare and case.smoke,
            profile_top=profile_top,
        )
    return {
        "kind": "bench",
        "schema": BENCH_SCHEMA,
        "label": label,
        "smoke": smoke,
        "python": sys.version.split()[0],
        "platform": sys.platform,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cases": cases,
    }


def write_bench(doc: Dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def load_bench(path: str) -> Dict:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("kind") != "bench" or doc.get("schema") not in (
        1,
        2,
        3,
        4,
        5,
        6,
        7,
        BENCH_SCHEMA,
    ):
        raise ValueError(
            f"{path} is not a schema-1/2/3/4/5/6/7/{BENCH_SCHEMA} bench "
            f"file (kind={doc.get('kind')!r}, schema={doc.get('schema')!r})"
        )
    return doc


class Regression(NamedTuple):
    case: str
    field: str
    old: object
    new: object
    note: str


def compare_bench(
    new: Dict, baseline: Dict, threshold_pct: float = 20.0
) -> List[Regression]:
    """Regressions of ``new`` against ``baseline``.

    Wall-clock rate: ``cycles_per_sec`` more than ``threshold_pct``
    percent below the baseline regresses.  Deterministic simulated
    quantities (:data:`DETERMINISTIC_FIELDS`) must match exactly --
    any drift is reported regardless of the threshold.  A non-empty
    ``legacy_drift`` in the new run (the fast path disagreeing with the
    per-cycle scan in-run) regresses at any threshold, as does
    ``speedup_vs_legacy`` falling more than 30% below the baseline's --
    the machine-independent check that the fast path stays *on* (a
    disabled fast path collapses the ratio to ~1x, well past 30%; the
    margin absorbs the wall-clock noise in the ratio's two legs).
    Cases present in the baseline but missing from the new run are
    regressions too (a silently dropped case would hide anything).
    """
    out: List[Regression] = []
    for name, old_case in baseline.get("cases", {}).items():
        new_case = new.get("cases", {}).get(name)
        if new_case is None:
            out.append(
                Regression(name, "presence", "present", "missing",
                           "case disappeared from the suite")
            )
            continue
        old_rate, new_rate = (
            old_case.get("cycles_per_sec"), new_case.get("cycles_per_sec")
        )
        if old_rate and new_rate is not None:
            floor = old_rate * (1.0 - threshold_pct / 100.0)
            if new_rate < floor:
                out.append(
                    Regression(
                        name, "cycles_per_sec", old_rate, new_rate,
                        f"{100.0 * (1 - new_rate / old_rate):.1f}% slower "
                        f"(threshold {threshold_pct:.0f}%)",
                    )
                )
        for field in DETERMINISTIC_FIELDS:
            if field in old_case and old_case[field] != new_case.get(field):
                out.append(
                    Regression(
                        name, field, old_case[field], new_case.get(field),
                        "deterministic quantity drifted",
                    )
                )
        if new_case.get("legacy_drift"):
            out.append(
                Regression(
                    name, "legacy_drift", [], new_case["legacy_drift"],
                    "fast path disagrees with legacy_scan on these fields",
                )
            )
        # the SoA kernel's in-run twin of legacy_drift: the batched
        # driver disagreeing with the scalar active driver regresses at
        # any threshold (fingerprint identity is the kernel's contract)
        if new_case.get("soa_drift"):
            out.append(
                Regression(
                    name, "soa_drift", [], new_case["soa_drift"],
                    "SoA kernel disagrees with the active driver on "
                    "these legs",
                )
            )
        for ratio, desc in (
            ("speedup_vs_legacy", "fast-vs-legacy"),
            ("speedup_vs_active", "SoA-vs-active"),
            ("speedup_vs_loop", "campaign-vs-loop"),
        ):
            old_speedup = old_case.get(ratio)
            new_speedup = new_case.get(ratio)
            if old_speedup and new_speedup is not None:
                if new_speedup < old_speedup * 0.7:
                    out.append(
                        Regression(
                            name, ratio, old_speedup, new_speedup,
                            f"{desc} speedup fell more than 30% below "
                            f"baseline",
                        )
                    )
        # the sweep-runtime in-run ratios, same machine-independent idea:
        # a lost warm pool or a cache that stops hitting collapses these
        # toward 1x, far past a 50% drop; the wide margin absorbs the
        # noise of three short wall-clock legs on shared CI machines
        for ratio in ("warm_speedup", "cache_speedup"):
            old_r, new_r = old_case.get(ratio), new_case.get(ratio)
            if old_r and new_r is not None and new_r < old_r * 0.5:
                out.append(
                    Regression(
                        name, ratio, old_r, new_r,
                        f"{ratio} fell more than 50% below baseline",
                    )
                )
    return out


def render_bench(doc: Dict) -> str:
    """One-line-per-case ASCII table of a bench doc."""
    lines = [
        f"bench {doc['label']} (schema {doc['schema']}, "
        f"python {doc['python']}, peak RSS {doc['peak_rss_kb']} kB)"
    ]
    for name, c in doc["cases"].items():
        if "schemes" in c:  # runner case (scheme_shootout): one row/scheme
            lines.append(
                f"  {name:<18} {len(c['schemes'])} schemes in "
                f"{c['wall_time_s']:.3f}s (latency legs)"
            )
            for sname, s in c["schemes"].items():
                cov = (
                    f" faults={s['faults_covered']}"
                    if s["faults_covered"] is not None
                    else ""
                )
                lines.append(
                    f"    {sname:<14} {s['shape']:<6} "
                    f"lat={s['mean_latency']:<6} stretch={s['stretch']:<7} "
                    f"cdg={'acyclic' if s['cycle_free'] else 'CYCLIC'}"
                    f"({s['cdg_edges']})"
                    f" delivered={s['delivered']}{cov}"
                )
            continue
        if "legs" in c:  # runner case (recovery_shootout): one row/leg
            lines.append(
                f"  {name:<18} {len(c['legs'])} legs in "
                f"{c['wall_time_s']:.3f}s"
            )
            for lname, leg in c["legs"].items():
                end = (
                    f"deadlock@{leg['deadlock_cycle']}"
                    if leg["deadlocked"]
                    else "drained"
                )
                lines.append(
                    f"    {lname:<10} detour={leg['detour']:<5} "
                    f"recovery={'on' if leg['recovery'] else 'off':<3} "
                    f"cycles={leg['cycles']:<5} "
                    f"delivered={leg['delivered']} "
                    f"rotations={leg['recoveries']} {end}"
                )
            continue
        if "speedup_vs_active" in c:  # runner case (machine_2048)
            drift = (
                f" DRIFT={','.join(c['soa_drift'])}" if c["soa_drift"] else ""
            )
            lines.append(
                f"  {name:<18} {c['cycles']:>6} cycles in "
                f"{c['wall_time_s']:.3f}s "
                f"({c['cycles_per_sec']:>10.0f} cyc/s soa)  "
                f"delivered={c['delivered']} "
                f"vs_active={c['speedup_vs_active']:.2f}x "
                f"detour={c['detour_delivered']}{drift}"
            )
            continue
        if "samples_per_sec" in c:  # runner case (campaign_reliability)
            lines.append(
                f"  {name:<18} {c['samples']:>6} samples in "
                f"{c['wall_time_s']:.3f}s "
                f"({c['samples_per_sec']:>10.1f} samples/s)  "
                f"vs_loop={c['speedup_vs_loop']:.1f}x "
                f"survives={c['mean_faults_survived']}"
            )
            continue
        if "specs" in c:  # runner case (sweep_fanout); wall_time_s = warm leg
            line = (
                f"  {name:<18} {c['specs']:>6} specs  in {c['wall_time_s']:.3f}s "
                f"({c['specs_per_sec_warm']:>8.1f} specs/s warm)  "
                f"warm={c['warm_speedup']:.2f}x "
                f"cached={c['cache_speedup']:.2f}x vs cold  "
                f"delivered={c['delivered']}"
            )
            if "ledger_records" in c:
                line += (
                    f" ledger={c['ledger_records']} rec "
                    f"(schema {c['ledger_schema']})"
                )
            lines.append(line)
            continue
        line = (
            f"  {name:<18} {c['cycles']:>6} cycles in {c['wall_time_s']:.3f}s "
            f"({c['cycles_per_sec']:>10.0f} cyc/s, "
            f"{c['flit_moves_per_sec']:>10.0f} flits/s)  "
            f"delivered={c['delivered']} blocked={c['blocked_cycles']} "
            f"sxb={c['sxb_wait_cycles']}"
        )
        if c.get("speedup_vs_legacy") is not None:
            line += f" vs_legacy={c['speedup_vs_legacy']:.2f}x"
            if c.get("legacy_drift"):
                line += f" DRIFT={','.join(c['legacy_drift'])}"
        lines.append(line)
    return "\n".join(lines)
