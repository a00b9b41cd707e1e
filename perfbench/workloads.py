"""The benchmark's four workloads, driven through the program's public API.

Each workload turns ``--seed`` into inputs (traffic schedules, a fault
draw, ``RunSpec.seed``, ``CampaignSpec.seed``); the program receives only
those inputs.  One *iteration* builds what the workload needs (the set-up
steps, timed one by one) and then makes the timed calls into the program.
The wall clock of an iteration runs from the first ``send`` /
``session.run`` / ``run_campaign`` until the result returns; generating
inputs and building packets are excluded.

Inside a simulation the traffic is an open loop at a fixed offered rate:
the packet count is fixed by the rate, and each packet gets a uniformly
random injection cycle, source and destination.  Fixing the count keeps
the amount of simulated work nearly equal across seeds, so a change of
seed moves where the work lands, not how much of it there is.

Every iteration's output is reduced to a digest (the sha256 of
``SimResult.fingerprint()``, of the sweep's ``result_identity`` or the
campaign's ``identity_sha256``) that the harness compares with an
untimed reference run and with the pinned value for the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import multiprocessing
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import campaign as campaign_mod
from repro.analysis.campaign import (
    DEFAULT_BLOCK_SAMPLES,
    CampaignSpec,
    SwitchUniverse,
    run_campaign,
)
from repro.core.config import make_config
from repro.core.fault import Fault
from repro.core.multifault import all_single_faults
from repro.core.packet import RC, Header, Packet
from repro.core.switch_logic import SwitchLogic
from repro.experiments.sweeps import build_network
from repro.obs.telemetry import SweepLedger
from repro.runtime import ResultCache, RunSpec, SweepSession, result_identity
from repro.sim import MDCrossbarAdapter, NetworkSimulator, SimConfig
from repro.sim.engine import CycleEngine
from repro.sim.soa import SoAKernel
from repro.topology import MDCrossbar

PHASES = ("eject", "route", "grant", "transfer", "inject")

#: flits per packet for every simulation workload
PACKET_FLITS = 4
#: simulation safety horizon; every workload drains long before it
MAX_CYCLES = 200_000


@dataclass
class Iteration:
    """What one timed iteration did."""

    #: build step -> seconds (summed into the set-up time)
    setup: Dict[str, float]
    wall_s: float
    #: operations checked: packets, specs or campaign blocks
    ops: int
    #: units counted by ``ops_per_s``: flit moves, specs or samples
    work: int
    digest: str
    #: operations that failed a check independent of the reference
    failed: int
    #: why, when ``failed`` is not 0
    problems: List[str] = field(default_factory=list)
    #: raw per-layer readings (counts, ratios, latencies)
    layers: Dict[str, float] = field(default_factory=dict)
    #: free-form notes for the log (e.g. the SoA fallback reason)
    notes: Dict[str, str] = field(default_factory=dict)


def sha256_json(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def p99(values: Sequence[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)])


def reap_children(timeout: float = 60.0) -> None:
    """Wait until every worker process this process started has ended."""
    deadline = time.monotonic() + timeout
    while True:
        children = multiprocessing.active_children()
        if not children:
            return
        if time.monotonic() > deadline:
            for child in children:
                child.kill()
            for child in children:
                child.join(5)
            return
        for child in children:
            child.join(0.5)


# --------------------------------------------------------------------------
# simulation workloads: machine_uniform, paper_mix
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SimInputs:
    shape: Tuple[int, ...]
    fault: Tuple[int, ...]
    live: Tuple[Tuple[int, ...], ...]
    #: (cycle, source, dest, rc) in send order
    schedule: Tuple[Tuple[int, tuple, tuple, int], ...]
    broadcasts: int


class SimWorkload:
    """Full-machine open-loop traffic through ``NetworkSimulator``."""

    #: SimConfig(engine=...) of the timed runs
    engine = "soa"
    #: the timed runs must stay on the SoA kernel
    require_soa = False

    def __init__(self, shape, cycles, unicast_load, broadcast_rate):
        self.shape = tuple(shape)
        self.cycles = cycles
        self.unicast_load = unicast_load
        self.broadcast_rate = broadcast_rate

    # ---------------------------------------------------------- inputs
    def inputs(self, seed: int) -> SimInputs:
        # the fault draw is shared by both simulation workloads
        frng = random.Random(f"fault:{seed}")
        fault = tuple(frng.randrange(n) for n in self.shape)
        live = tuple(
            c
            for c in itertools.product(*(range(n) for n in self.shape))
            if c != fault
        )
        rng = random.Random(f"{self.name}:{seed}")
        n_live = len(live)
        count = round(
            self.unicast_load / PACKET_FLITS * n_live * self.cycles
        )
        sends = []
        for _ in range(count):
            cycle = rng.randrange(self.cycles)
            i = rng.randrange(n_live)
            j = rng.randrange(n_live - 1)
            if j >= i:
                j += 1
            sends.append((cycle, live[i], live[j], int(RC.NORMAL)))
        broadcasts = 0
        if self.broadcast_rate:
            period = round(1 / self.broadcast_rate)
            for k in range(self.cycles // period):
                src = live[rng.randrange(n_live)]
                cycle = k * period + rng.randrange(period)
                sends.append((cycle, src, src, int(RC.BROADCAST_REQUEST)))
                broadcasts += 1
        sends.sort(key=lambda s: s[0])
        return SimInputs(self.shape, fault, live, tuple(sends), broadcasts)

    # ----------------------------------------------------------- build
    def build(self, inp: SimInputs, engine: str):
        steps = {}
        t0 = perf_counter()
        topo = MDCrossbar(inp.shape)
        t1 = perf_counter()
        cfg = make_config(inp.shape, faults=(Fault.router(inp.fault),))
        t2 = perf_counter()
        logic = SwitchLogic(topo, cfg)
        t3 = perf_counter()
        sim = NetworkSimulator(
            MDCrossbarAdapter(logic),
            SimConfig(stall_limit=2000, engine=engine),
        )
        t4 = perf_counter()
        # builds the SoA kernel's static tables (no cycle runs)
        sim.run(max_cycles=0)
        t5 = perf_counter()
        steps["topology.build_s"] = t1 - t0
        steps["core.make_config_s"] = t2 - t1
        steps["core.switch_logic_s"] = t3 - t2
        steps["sim.network_build_s"] = t4 - t3
        steps["sim.soa.kernel_build_s"] = t5 - t4
        if set(sim.live_nodes) != set(inp.live):
            raise RuntimeError("generated live-node set disagrees with the fault")
        return sim, steps

    @staticmethod
    def packets(inp: SimInputs) -> List[Tuple[int, Packet]]:
        return [
            (cycle, Packet(Header(src, dst, RC(rc)), length=PACKET_FLITS))
            for cycle, src, dst, rc in inp.schedule
        ]

    def simulate(self, inp: SimInputs, engine: str):
        sim, steps = self.build(inp, engine)
        sends = self.packets(inp)
        t0 = perf_counter()
        for cycle, packet in sends:
            sim.send(packet, at_cycle=cycle)
        res = sim.run(max_cycles=MAX_CYCLES)
        wall = perf_counter() - t0
        return sim, steps, sends, res, wall

    # ------------------------------------------------------- iteration
    def iterate(self, inp: SimInputs) -> Iteration:
        sim, steps, sends, res, wall = self.simulate(inp, self.engine)
        problems = []
        sent = {p.pid for _, p in sends}
        delivered = [p for p in res.delivered if p.pid in sent]
        failed = len(sent) - len(delivered)
        if failed:
            problems.append(
                f"{failed} packet(s) not delivered "
                f"({len(res.dropped)} reported dropped)"
            )
        if res.deadlock is not None:
            problems.append(f"deadlock: {res.deadlock.describe()}")
            failed = max(failed, 1)
        if self.require_soa and sim.engine_used != "soa":
            problems.append(
                f"left the SoA kernel: {sim.engine_fallback}"
            )
            failed = len(sends)
        lats = res.latencies
        info = sim.adapter.cache_info()
        lookups = info["hits"] + info["misses"]
        layers = {
            "sim.cycles": res.cycles,
            "sim.flit_moves": res.flit_moves,
            "sim.packets": len(sends),
            "sim.broadcasts": inp.broadcasts,
            "sim.latency_mean_cycles": statistics.fmean(lats) if lats else 0.0,
            "sim.latency_p99_cycles": p99(lats) if lats else 0.0,
            "sim.adapter.memo_hit_ratio": info["hits"] / lookups if lookups else 0.0,
            "sim.adapter.memo_misses": info["misses"],
            "sim.adapter.memo_evictions": info["evictions"],
            "sim.soa.fallbacks": int(sim.engine_fallback is not None),
        }
        notes = {"engine_used": sim.engine_used}
        if sim.engine_fallback is not None:
            notes["fallback_reason"] = sim.engine_fallback
        return Iteration(
            setup=steps,
            wall_s=wall,
            ops=len(sends),
            work=res.flit_moves,
            digest=sha256_json(res.fingerprint()),
            failed=failed,
            problems=problems,
            layers=layers,
            notes=notes,
        )

    def reference(self, inp: SimInputs) -> str:
        """Digest of the same inputs on the scalar ``active`` driver."""
        _, _, _, res, _ = self.simulate(inp, "active")
        return sha256_json(res.fingerprint())

    def trace_targets(self):
        targets = [
            (SoAKernel, f"phase_{p}", f"sim.soa.{p}") for p in PHASES
        ]
        targets += [
            (CycleEngine, f"phase_{p}", f"sim.engine.{p}") for p in PHASES
        ]
        targets.append((CycleEngine, "send", "sim.engine.send"))
        targets.append((MDCrossbarAdapter, "decide", "sim.adapter.decide"))
        return targets

    def traced_layers(self, it: Iteration, self_s, calls) -> Dict[str, float]:
        out = {}
        for p in PHASES:
            out[f"sim.soa.{p}_s"] = self_s.get(f"sim.soa.{p}", 0.0)
            out[f"sim.engine.{p}_s"] = self_s.get(f"sim.engine.{p}", 0.0)
        out["sim.engine.send_s"] = self_s.get("sim.engine.send", 0.0)
        out["sim.adapter.decide_s"] = self_s.get("sim.adapter.decide", 0.0)
        # one SoA inject phase ends every kernel-driven cycle
        cycles = it.layers["sim.cycles"]
        out["sim.soa.cycle_share"] = (
            calls.get("sim.soa.inject", 0) / cycles if cycles else 0.0
        )
        return out


class MachineUniform(SimWorkload):
    name = "machine_uniform"
    require_soa = True


class PaperMix(SimWorkload):
    name = "paper_mix"


# --------------------------------------------------------------------------
# fault_sweep
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepInputs:
    shape: Tuple[int, ...]
    seed: int
    passes: Tuple[Tuple[float, ...], ...]


class FaultSweep:
    """Every single-fault placement through one warm ``SweepSession``."""

    name = "fault_sweep"
    jobs = 2

    def __init__(self, shape, passes, scratch):
        self.shape = tuple(shape)
        self.passes = tuple(tuple(p) for p in passes)
        self.scratch = scratch
        self._runs = 0

    def inputs(self, seed: int) -> SweepInputs:
        return SweepInputs(self.shape, seed, self.passes)

    def specs(self, inp: SweepInputs, loads) -> List[RunSpec]:
        # Each fault placement gets its own traffic seed.  With one seed
        # for all 80, every spec of a load sees the same 60-cycle
        # injection draw, and the sweep's simulated work moves by up to
        # half from one benchmark seed to the next.
        faults = all_single_faults(inp.shape)
        return [
            RunSpec(
                shape=inp.shape,
                load=load,
                warmup=30,
                window=60,
                drain=600,
                stall_limit=500,
                seed=inp.seed * len(faults) + i,
                faults=(fault,),
                label=str(fault),
            )
            for load in loads
            for i, fault in enumerate(faults)
        ]

    def iterate(self, inp: SweepInputs) -> Iteration:
        t0 = perf_counter()
        passes = [self.specs(inp, loads) for loads in inp.passes]
        setup = {"runtime.spec.build_s": perf_counter() - t0}
        self._runs += 1
        cache_dir = os.path.join(self.scratch, f"cache-{os.getpid()}-{self._runs}")
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache = ResultCache(cache_dir)
        ledger = SweepLedger()
        session = SweepSession(jobs=self.jobs, cache=cache, ledger=ledger)
        try:
            t0 = perf_counter()
            results = [session.run(specs) for specs in passes]
            wall = perf_counter() - t0
        finally:
            session.close()
            reap_children()
        problems = []
        failed = 0
        for res in results:
            dead = sum(r.point.deadlocked for r in res)
            if dead:
                problems.append(f"{dead} spec(s) deadlocked")
                failed += dead
        # every pass re-asks the previous pass's specs first; the cached
        # replies must equal the simulated ones byte for byte
        for prev, res in zip(results, results[1:]):
            if result_identity(prev) != result_identity(res[: len(prev)]):
                problems.append("cached pass differs from simulated pass")
                failed += len(prev)
        nbytes = 0
        for dirpath, _, files in os.walk(cache_dir):
            nbytes += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
        shutil.rmtree(cache_dir, ignore_errors=True)
        final = results[-1]
        specs = sum(len(s) for s in passes)
        layers = self._ledger_layers(ledger, session.jobs)
        stats = cache.stats()
        lookups = stats["hits"] + stats["misses"]
        layers.update(
            {
                "runtime.cache.hits": stats["hits"],
                "runtime.cache.misses": stats["misses"],
                "runtime.cache.puts": stats["puts"],
                "runtime.cache.hit_ratio": stats["hits"] / lookups if lookups else 0.0,
                "runtime.cache.bytes": nbytes,
            }
        )
        counts = [r.point.latency.count for r in final]
        means = [r.point.latency.mean for r in final]
        layers["sim.cycles"] = sum(r.point.cycles for r in final)
        layers["sim.packets"] = sum(counts)
        p99s = [r.point.latency.p99 for r in final if r.point.latency.count]
        layers["sim.latency_mean_cycles"] = (
            sum(m * c for m, c in zip(means, counts) if c) / sum(counts)
            if p99s
            else 0.0
        )
        layers["sim.latency_p99_cycles"] = statistics.median(p99s) if p99s else 0.0
        return Iteration(
            setup=setup,
            wall_s=wall,
            ops=specs,
            work=specs,
            digest=hashlib.sha256(
                result_identity(final).encode("utf-8")
            ).hexdigest(),
            failed=failed,
            problems=problems,
            layers=layers,
        )

    @staticmethod
    def _ledger_layers(ledger, jobs) -> Dict[str, float]:
        chunks = ledger.of_kind("chunk_done")
        spec_done = ledger.of_kind("spec_done")
        ends = ledger.of_kind("sweep_end")
        busy = sum(c["wall_s"] for c in chunks)
        sweep_wall = sum(e["wall_s"] for e in ends)
        overhead = 0.0
        for end in ends:
            per_worker: Dict[int, float] = {}
            for c in chunks:
                if c["run"] == end["run"]:
                    per_worker[c["worker"]] = per_worker.get(c["worker"], 0.0) + c["wall_s"]
            overhead += end["wall_s"] - max(per_worker.values(), default=0.0)
        tiers = [s["cache"] for s in spec_done]
        reuse = tiers.count("reuse")
        fresh = tiers.count("fresh")
        serve = [s["wall_s"] for s in spec_done]
        return {
            "runtime.session.chunks": len(chunks),
            "runtime.session.worker_busy_s": busy,
            "runtime.session.worker_util": (
                busy / (sweep_wall * jobs) if sweep_wall else 0.0
            ),
            "runtime.session.overhead_s": overhead,
            "runtime.session.network_reuse_ratio": (
                reuse / (reuse + fresh) if reuse + fresh else 0.0
            ),
            "runtime.session.network_builds": fresh,
            "runtime.spec.exec_s": sum(
                s["wall_s"] for s in spec_done if s["cache"] != "result"
            ),
            "runtime.spec.serve_p50_s": statistics.median(serve),
            "runtime.spec.serve_p95_s": statistics.quantiles(serve, n=20)[-1],
        }

    def reference(self, inp: SweepInputs) -> Optional[str]:
        # the cached-versus-simulated comparison inside every iteration
        # and the pins are this workload's references
        return None

    def trace_targets(self):
        # only parent-side layers: the pool's workers are forked from the
        # parent, and spans patched into them would never come back
        return [
            (ResultCache, "get", "runtime.cache.get"),
            (ResultCache, "put", "runtime.cache.put"),
        ]

    def traced_layers(self, it, self_s, calls) -> Dict[str, float]:
        return {
            "runtime.cache.get_s": self_s.get("runtime.cache.get", 0.0),
            "runtime.cache.put_s": self_s.get("runtime.cache.put", 0.0),
            "runtime.session.network_build_est_s": (
                self.network_build_s()
                * it.layers["runtime.session.network_builds"]
            ),
        }

    def network_build_s(self) -> float:
        """Median time to build one of the sweep's networks, measured in
        this process the way a worker builds it on a network-cache miss.
        The ledger records which specs missed, not how long the build
        took, so the workers' build time is only estimated from this."""
        times = []
        for fault in all_single_faults(self.shape)[:3]:
            t0 = perf_counter()
            build_network("md-crossbar", self.shape, stall_limit=500, faults=(fault,))()
            times.append(perf_counter() - t0)
        return statistics.median(times)


# --------------------------------------------------------------------------
# campaign
# --------------------------------------------------------------------------


class Campaign:
    """A serial Monte-Carlo reliability campaign on the full machine."""

    name = "campaign"

    def __init__(self, shape, samples, block_samples=DEFAULT_BLOCK_SAMPLES):
        self.shape = tuple(shape)
        self.samples = samples
        self.block_samples = block_samples

    def inputs(self, seed: int) -> CampaignSpec:
        return CampaignSpec(
            shape=self.shape,
            samples=self.samples,
            seed=seed,
            block_samples=self.block_samples,
        )

    def iterate(self, spec: CampaignSpec) -> Iteration:
        t0 = perf_counter()
        spec = spec.validated()
        SwitchUniverse(spec.shape)
        setup = {"analysis.campaign.universe_build_s": perf_counter() - t0}
        t0 = perf_counter()
        res = run_campaign(spec)
        wall = perf_counter() - t0
        problems = []
        failed = 0
        if not res.complete or res.samples_done != spec.samples:
            problems.append(
                f"{res.samples_done} of {spec.samples} samples folded"
            )
            failed = spec.num_blocks
        return Iteration(
            setup=setup,
            wall_s=wall,
            ops=spec.num_blocks,
            work=res.samples_done,
            digest=res.identity_sha256,
            failed=failed,
            problems=problems,
            layers={
                "analysis.campaign.blocks": res.blocks_done,
                "analysis.campaign.mean_depth": res.estimate().mean_faults_survived,
            },
        )

    def reference(self, spec: CampaignSpec) -> str:
        """The same campaign fanned over two workers."""
        try:
            return run_campaign(spec, jobs=2).identity_sha256
        finally:
            reap_children()

    def trace_targets(self):
        return [
            (campaign_mod, "sample_block", "analysis.campaign.walk"),
            (campaign_mod, "execute_campaign_blocks", "analysis.campaign.reduce"),
            (campaign_mod, "merge_states", "analysis.campaign.merge"),
        ]

    def traced_layers(self, it, self_s, calls) -> Dict[str, float]:
        return {
            "analysis.campaign.walk_s": self_s.get("analysis.campaign.walk", 0.0),
            "analysis.campaign.reduce_s": self_s.get("analysis.campaign.reduce", 0.0),
            "analysis.campaign.merge_s": self_s.get("analysis.campaign.merge", 0.0),
        }


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

MACHINE = (16, 16, 8)


def make_workload(name: str, size: str, scratch: str):
    """The workload ``name`` at ``size`` ("full", or "small" for the
    self-tests)."""
    full = size == "full"
    if name == "machine_uniform":
        return MachineUniform(
            MACHINE if full else (4, 4, 2),
            cycles=400 if full else 60,
            unicast_load=0.1,
            broadcast_rate=0.0,
        )
    if name == "paper_mix":
        return PaperMix(
            MACHINE if full else (4, 4, 2),
            cycles=200 if full else 60,
            unicast_load=0.05,
            broadcast_rate=0.05,
        )
    if name == "fault_sweep":
        return FaultSweep(
            (8, 8) if full else (3, 3),
            passes=((0.1, 0.2), (0.1, 0.2, 0.3)),
            scratch=scratch,
        )
    if name == "campaign":
        if full:
            return Campaign(MACHINE, samples=262_144)
        return Campaign((4, 4, 2), samples=8192, block_samples=1024)
    raise KeyError(name)


WORKLOADS = ("machine_uniform", "paper_mix", "fault_sweep", "campaign")
