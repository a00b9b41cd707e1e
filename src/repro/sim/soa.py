"""The batched structure-of-arrays cycle driver (``SimConfig(engine="soa")``).

The object-per-flit engine tops out around half a million cycles/sec even
with the active-set fast path: every cycle walks Python deques of
:class:`~repro.sim.fabric.SimFlit` objects.  Full-machine shapes (the
SR2201/2048's 16x16x8 hyper-crossbar has ~20k channels) need the flit
state itself batched.  :class:`SoAKernel` keeps the hot fabric state in
preallocated numpy arrays -- per-channel flit ring buffers (packet id /
flit kind / sequence), channel owners, connection tables, candidate masks
-- and executes the same five phases with vectorized masks and array
reductions:

* **eject** drains every pending PE buffer with one gather, locating tail
  flits by a flag-matrix reduction (per-tail delivery bookkeeping stays
  scalar: deliveries are rare relative to flit moves);
* **route** filters the candidate mask down to genuinely unrouted headers
  with vector comparisons, then splits them: NORMAL headers at switches
  with no local fault information take the closed form -- array
  arithmetic on the adapter's optional ``normal_table()``
  (:class:`~repro.sim.routetable.NormalRouteTable`), which never touches
  the route memo -- and every other header (RC 1/2/3, fault-adjacent
  switches, adapters without a table) goes through the adapter's batch
  lookup (:func:`~repro.sim.adapter.decide_batch`, memo-first).  The two
  results merge back in candidate order, so grant order is unchanged.
  Serialized decisions join their element's S-XB FIFO instead of the
  pending list, exactly as the scalar route phase queues them;
* **grant** first serves the S-XB FIFOs: each non-empty queue, in the
  engine's ``serial_queues`` first-insertion order, grants its head
  atomically once every wanted output is free, and a request at an
  element whose queue is still non-empty waits.  The progressive
  requests then resolve as one first-occurrence reduction over
  (request, output) pairs: each free output goes to the first unblocked
  request that wants it, which is exactly the scalar sequential scan for
  ``"all"``-policy requests -- multicast requests keep their partial
  reservations across cycles (the acquire-and-hold of the paper's Fig.
  5), and a request with no outputs (a broadcast copy whose only onward
  router is faulty) completes as a sink.  When every request is
  single-output and no queue is active, the reduction is one
  ``np.unique`` over the outputs; adaptive ``"any"`` requests drop the
  cycle's grant phase to an exact scalar loop;
* **transfer** moves one flit per established connection with fancy-indexed
  ring-buffer pops and pushes; a multicast connection (its outputs in a
  padded ``fc_outs`` row) moves only when every output has space and
  pushes one copy per output, in lockstep.  The scalar engine iterates
  connections in dict insertion order, and that order is observable: a
  connection whose destination buffer is full (or source buffer empty) at
  phase start still moves if the draining (or supplying) connection comes
  *earlier* in the iteration.  The kernel therefore splits the phase:
  order-independent movers (source ready and space on every output at
  phase start) apply vectorized, and the small conditional set resolves
  in ascending connection order against the recorded enabler orders --
  byte-identical to the sequential scan;
* **inject** mirrors the scalar phase (generators are arbitrary Python
  callbacks and injection order rides on engine state the kernel shares).

**Parity discipline.**  The kernel shares the engine's canonical workload
state (``in_flight``, ``delivered``, ``dropped``, ``source_queues``,
scheduled sends, counters) and mutates it directly; only the fabric hot
state is mirrored into arrays.  On any exit -- drained, horizon, stall,
or fallback -- :meth:`SoAKernel.sync_out` rebuilds the engine's object
state (buffers, owners, connection dict in insertion order, pending
list with its reservations, S-XB queues, candidate sets) exactly as the
scalar drivers would have left it, so results are byte-identical across
``soa`` / ``active`` / ``legacy_scan`` and a run may switch drivers
mid-flight.

**Headers.**  Head flits of one packet share one header entry.  That is
sound while the packet has a single copy, and stays sound after a
multicast fan-out as long as no switch rewrites a copy's RC bit -- the
paper's broadcast rewrites BROADCAST_REQUEST to BROADCAST once, at the
S-XB, before the spread.  A decision that would rewrite the header of a
packet that has fanned out makes the kernel bail instead.

**Scalar fallback.**  The kernel handles every fabric feature of one
virtual channel: unicast, multicast and sink ``"all"`` decisions,
serialized S-XB grants, adaptive ``"any"`` decisions and drop
decisions.  What is left -- more than one VC, a subscribed per-event
hook (``cycle_start`` / ``phase_end`` / ``inject`` / ``grant`` /
``block`` / ``deliver`` / ``log``; the terminal ``deadlock`` /
``recovery`` hooks are fine), an unroutable packet, or a per-copy
header rewrite -- makes it bail *before* mutating anything mid-phase
and hand the run to the active driver, recording the reason on
``engine.engine_fallback``.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.packet import RC, FlitKind
from ..core.switch_logic import RoutingError
from .adapter import decide_batch
from .fabric import Connection, InFlightPacket, PendingRequest, SimFlit

_HEAD = int(FlitKind.HEAD)
_BODY = int(FlitKind.BODY)
_TAIL = int(FlitKind.TAIL)
_HEAD_TAIL = int(FlitKind.HEAD_TAIL)
_NORMAL = RC.NORMAL
#: ``fc_cout`` marker of a multicast connection (outputs in ``fc_outs``);
#: -1 marks a connection with no outputs (a drop or a sink)
_MULTI = -2

#: hooks whose subscribers need the scalar engine's per-event call sites
SCALAR_HOOKS: Tuple[str, ...] = (
    "cycle_start",
    "phase_end",
    "inject",
    "grant",
    "block",
    "deliver",
    "log",
)


class _PendRec:
    """A pending grant request in kernel form (keeps the decision object
    so :meth:`SoAKernel.sync_out` can rebuild the exact
    :class:`PendingRequest`)."""

    __slots__ = ("pid", "cin", "wanted", "decision", "arrived", "reserved")

    def __init__(self, pid, cin, wanted, decision, arrived, reserved=()):
        self.pid = pid
        self.cin = cin
        #: VCKey tuple, engine format (vc is always 0 here)
        self.wanted = wanted
        self.decision = decision
        self.arrived = arrived
        #: output cids held by a partially reserved multicast request
        self.reserved = reserved


class SoAKernel:
    """Array-state mirror of one :class:`~repro.sim.engine.CycleEngine`.

    Static topology tables are built once per engine; the mutable arrays
    are (re)filled from the engine's object state by :meth:`materialize`
    each time the run loop enters the kernel, and written back by
    :meth:`sync_out` on every exit, so the engine's observable state is
    always canonical outside :meth:`drive`.
    """

    def __init__(self, eng) -> None:
        self.eng = eng
        self.cap = eng.config.buffer_depth
        cids = [key[0] for key in eng.vcs]
        self.V = max(cids) + 1 if cids else 0
        V = self.V
        # ---- static topology tables
        self.is_pe = np.zeros(V, dtype=bool)
        self.pe_order = np.full(V, V + 1, dtype=np.int64)
        self.pe_coord: List[Optional[tuple]] = [None] * V
        for i, (coord, (cid, _)) in enumerate(eng._pe_inputs):
            self.is_pe[cid] = True
            self.pe_order[cid] = i
            self.pe_coord[cid] = coord
        # switch elements are numbered for the S-XB blocked mask; the
        # extra last slot stands for "no element" and is never blocked
        self.el_index: Dict[tuple, int] = {}
        n_el = len(eng._inputs)
        self.el_of: List[Optional[tuple]] = [None] * V
        el_idx = [n_el] * V
        for i, (el, keys) in enumerate(eng._inputs.items()):
            self.el_index[el] = i
            for cid, _ in keys:
                self.el_of[cid] = el
                el_idx[cid] = i
        self.el_idx = np.array(el_idx, dtype=np.int64)
        self.el_blocked = np.zeros(n_el + 1, dtype=bool)
        self.chan_src: List[Optional[tuple]] = [None] * V
        for (cid, _), vc in eng.vcs.items():
            self.chan_src[cid] = vc.channel.src
        self.coords = list(eng.topo.node_coords())
        self.pe_slot = {c: p for p, c in enumerate(self.coords)}
        self.inj_cid = {c: key[0] for c, key in eng._inj_key.items()}
        P = len(self.coords)
        # ---- mutable fabric arrays
        self.buf_pid = np.zeros((V, self.cap), dtype=np.int64)
        self.buf_kind = np.zeros((V, self.cap), dtype=np.int64)
        self.buf_seq = np.zeros((V, self.cap), dtype=np.int64)
        self.buf_start = np.zeros(V, dtype=np.int64)
        self.buf_len = np.zeros(V, dtype=np.int64)
        self.owner = np.full(V, -1, dtype=np.int64)
        self.route_cand = np.zeros(V, dtype=bool)
        self.eject_pend = np.zeros(V, dtype=bool)
        self.pend_cin = np.zeros(V, dtype=bool)
        self.busy_delta = np.zeros(V, dtype=np.int64)
        # fabric connections, indexed by input channel cid
        self.fc_alive = np.zeros(V, dtype=bool)
        self.fc_pid = np.zeros(V, dtype=np.int64)
        self.fc_cout = np.full(V, -1, dtype=np.int64)
        #: a multicast connection's outputs, in wanted order, -1 padded
        #: (widened to the largest fan-out seen)
        self.fc_outs = np.full((V, 2), -1, dtype=np.int64)
        self.fc_order = np.zeros(V, dtype=np.int64)
        self.fc_started = np.zeros(V, dtype=np.int64)
        # injection connections, indexed by PE slot
        self.ic_alive = np.zeros(P, dtype=bool)
        self.ic_pid = np.zeros(P, dtype=np.int64)
        self.ic_cout = np.zeros(P, dtype=np.int64)
        self.ic_sent = np.zeros(P, dtype=np.int64)
        self.ic_len = np.zeros(P, dtype=np.int64)
        self.ic_order = np.zeros(P, dtype=np.int64)
        self.ic_started = np.zeros(P, dtype=np.int64)
        self.ic_packet: List[Optional[object]] = [None] * P
        self.pending: List[_PendRec] = []
        #: S-XB FIFOs, keyed in the engine's ``serial_queues`` order
        self.serial: Dict[tuple, deque] = {}
        #: elements whose S-XB FIFO is non-empty
        self.serial_active: set = set()
        self.any_count = 0
        #: pending "all" requests without exactly one output
        self.nonsingle = 0
        self.n_multi = 0
        self.hdr_by_pid: dict = {}
        #: pids that have had a multicast connection: their copies share
        #: one header entry, so none of them may rewrite it
        self.fanned: set = set()
        self.order_counter = 0
        self.nconns = 0
        self.flit_moves = 0
        self.last_progress = 0
        self.fallback_reason: Optional[str] = None

    # ----------------------------------------------------------- lifecycle
    def _no(self, reason: str) -> bool:
        self.fallback_reason = reason
        return False

    def _rec(self, r: PendingRequest) -> _PendRec:
        return _PendRec(
            r.pid,
            r.cin[0],
            r.wanted,
            r.decision,
            r.arrived_at,
            {k[0] for k in r.reserved} if r.reserved else (),
        )

    def materialize(self) -> bool:
        """Fill the arrays from the engine's object state.  Returns False
        (with :attr:`fallback_reason` set) when the state needs a scalar
        driver; the engine's state is never mutated."""
        eng = self.eng
        if eng.config.num_vcs != 1:
            return self._no("num_vcs > 1")
        for name in SCALAR_HOOKS:
            if getattr(eng.hooks, name):
                return self._no(f"hook '{name}' subscribed")
        # ---- buffers and owners
        self.buf_len[:] = 0
        self.buf_start[:] = 0
        self.owner[:] = -1
        self.hdr_by_pid.clear()
        self.fanned.clear()
        hdr = self.hdr_by_pid
        for (cid, _), vc in eng.vcs.items():
            self.owner[cid] = -1 if vc.owner is None else vc.owner
            if vc.buffer:
                for j, flit in enumerate(vc.buffer):
                    self.buf_pid[cid, j] = flit.pid
                    self.buf_kind[cid, j] = int(flit.kind)
                    self.buf_seq[cid, j] = flit.seq
                    if flit.header is not None:
                        seen = hdr.get(flit.pid)
                        if seen is not None:
                            # a second live copy of a multicast packet
                            if seen != flit.header:
                                return self._no("per-copy header rewrite")
                            self.fanned.add(flit.pid)
                        hdr[flit.pid] = flit.header
                self.buf_len[cid] = len(vc.buffer)
        # ---- candidate masks
        self.route_cand[:] = False
        for cid, _ in eng._route_candidates:
            self.route_cand[cid] = True
        self.eject_pend[:] = False
        for cid, _ in eng._eject_pending:
            self.eject_pend[cid] = True
        self.pend_cin[:] = False
        for cid, _ in eng._pending_by_cin:
            self.pend_cin[cid] = True
        # ---- connections (dict insertion order becomes the order stamp)
        self.fc_alive[:] = False
        self.fc_cout[:] = -1
        self.n_multi = 0
        self.ic_alive[:] = False
        for p in range(len(self.ic_packet)):
            self.ic_packet[p] = None
        for idx, conn in enumerate(eng.connections.values()):
            if conn.cin is None:
                p = self.pe_slot[conn.element[1]]
                inf = eng.in_flight[conn.pid]
                self.ic_alive[p] = True
                self.ic_pid[p] = conn.pid
                self.ic_cout[p] = conn.couts[0][0]
                self.ic_sent[p] = conn.supply[0].seq
                self.ic_len[p] = inf.packet.length
                self.ic_order[p] = idx
                self.ic_started[p] = conn.started_at
                self.ic_packet[p] = inf.packet
                hdr.setdefault(conn.pid, inf.packet.header)
            else:
                cid = conn.cin[0]
                self.fc_alive[cid] = True
                self.fc_pid[cid] = conn.pid
                self._set_outputs(cid, conn.pid, conn.couts)
                self.fc_order[cid] = idx
                self.fc_started[cid] = conn.started_at
        self.order_counter = len(eng.connections)
        self.nconns = len(eng.connections)
        # ---- pending requests and S-XB FIFOs (empty queues keep their
        # place: the engine iterates the dict in first-insertion order)
        self.pending = [self._rec(r) for r in eng.pending]
        self.any_count = 0
        self.nonsingle = 0
        for r in self.pending:
            if r.decision.policy == "any":
                self.any_count += 1
            elif len(r.wanted) != 1:
                self.nonsingle += 1
        self.serial = {
            el: deque(self._rec(r) for r in q)
            for el, q in eng.serial_queues.items()
        }
        self.serial_active = {el for el, q in self.serial.items() if q}
        self.el_blocked[:] = False
        for el in self.serial_active:
            self.el_blocked[self.el_index[el]] = True
        self.busy_delta[:] = 0
        self.flit_moves = eng.flit_moves
        self.last_progress = eng._last_progress
        self.fallback_reason = None
        return True

    def _set_outputs(self, cid: int, pid: int, couts) -> None:
        """Record a fabric connection's outputs (VCKey tuple) on ``cid``."""
        n = len(couts)
        if n == 1:
            self.fc_cout[cid] = couts[0][0]
        elif n == 0:
            self.fc_cout[cid] = -1
        else:
            self.fc_cout[cid] = _MULTI
            width = self.fc_outs.shape[1]
            if n > width:
                wider = np.full((self.V, n), -1, dtype=np.int64)
                wider[:, :width] = self.fc_outs
                self.fc_outs = wider
            row = self.fc_outs[cid]
            row[:] = -1
            row[:n] = [k[0] for k in couts]
            self.n_multi += 1
            self.fanned.add(pid)

    def _outputs(self, cid: int) -> Tuple:
        """The VCKey tuple of the fabric connection on ``cid``."""
        cout = int(self.fc_cout[cid])
        if cout >= 0:
            return ((cout, 0),)
        if cout == -1:
            return ()
        row = self.fc_outs[cid]
        return tuple((int(o), 0) for o in row[row >= 0].tolist())

    def _request(self, r: _PendRec) -> PendingRequest:
        return PendingRequest(
            pid=r.pid,
            element=self.el_of[r.cin],
            cin=(r.cin, 0),
            decision=r.decision,
            wanted=r.wanted,
            reserved={(c, 0) for c in r.reserved},
            arrived_at=r.arrived,
        )

    def sync_out(self) -> None:
        """Write the array state back into the engine's object state,
        byte-identical to what the scalar drivers would hold."""
        eng = self.eng
        cap = self.cap
        hdr = self.hdr_by_pid
        for (cid, _), vc in eng.vcs.items():
            o = self.owner[cid]
            vc.owner = None if o < 0 else int(o)
            buf = vc.buffer
            buf.clear()
            n = int(self.buf_len[cid])
            start = int(self.buf_start[cid])
            for j in range(n):
                s = (start + j) % cap
                pid = int(self.buf_pid[cid, s])
                kind = FlitKind(int(self.buf_kind[cid, s]))
                buf.append(
                    SimFlit(
                        pid=pid,
                        kind=kind,
                        seq=int(self.buf_seq[cid, s]),
                        header=hdr.get(pid)
                        if kind in (FlitKind.HEAD, FlitKind.HEAD_TAIL)
                        else None,
                    )
                )
        conns = []
        for cid in np.nonzero(self.fc_alive)[0].tolist():
            conns.append(
                (
                    int(self.fc_order[cid]),
                    Connection(
                        pid=int(self.fc_pid[cid]),
                        element=self.el_of[cid],
                        cin=(cid, 0),
                        couts=self._outputs(cid),
                        started_at=int(self.fc_started[cid]),
                    ),
                )
            )
        for p in np.nonzero(self.ic_alive)[0].tolist():
            packet = self.ic_packet[p]
            supply = deque()
            length = int(self.ic_len[p])
            for seq in range(int(self.ic_sent[p]), length):
                supply.append(
                    SimFlit(
                        pid=packet.pid,
                        kind=_flit_kind(seq, length),
                        seq=seq,
                        header=packet.header if seq == 0 else None,
                    )
                )
            conns.append(
                (
                    int(self.ic_order[p]),
                    Connection(
                        pid=int(self.ic_pid[p]),
                        element=("PE", self.coords[p]),
                        cin=None,
                        couts=((int(self.ic_cout[p]), 0),),
                        supply=supply,
                        started_at=int(self.ic_started[p]),
                    ),
                )
            )
        eng.connections.clear()
        for _, conn in sorted(conns, key=lambda t: t[0]):
            eng.connections[(conn.element, conn.cin)] = conn
        eng.pending = [self._request(r) for r in self.pending]
        eng.serial_queues.clear()
        for el, q in self.serial.items():
            eng.serial_queues[el] = deque(self._request(r) for r in q)
        eng._serial_active.clear()
        eng._serial_active.update(self.serial_active)
        eng._pending_by_cin = {r.cin for r in eng.pending}
        for q in eng.serial_queues.values():
            eng._pending_by_cin.update(r.cin for r in q)
        eng._route_candidates = {
            (int(c), 0) for c in np.nonzero(self.route_cand)[0]
        }
        eng._eject_pending = {
            (int(c), 0) for c in np.nonzero(self.eject_pend)[0]
        }
        for cid in np.nonzero(self.busy_delta)[0].tolist():
            eng.channel_busy[cid] = eng.channel_busy.get(cid, 0) + int(
                self.busy_delta[cid]
            )
        self.busy_delta[:] = 0
        eng.flit_moves = self.flit_moves
        eng._last_progress = self.last_progress

    # -------------------------------------------------------------- driver
    def drive(self, horizon: int, until_drained: bool) -> str:
        """Run cycles until an exit condition; always leaves the engine's
        object state canonical.  Returns ``"done"`` (drained / horizon /
        caller should re-check), ``"stalled"`` (the watchdog condition
        holds -- the engine's run loop diagnoses and recovers), or
        ``"bail"`` (unsupported state; :attr:`fallback_reason` says why;
        the active driver picks the cycle up mid-flight)."""
        eng = self.eng
        if not self.materialize():
            return "bail"
        stall_limit = eng.config.stall_limit
        while eng.cycle < horizon:
            if (
                until_drained
                and not eng.pending_work()
                and not eng.generators
            ):
                break
            if self._idle():
                target = eng._next_event_cycle(horizon)
                if target is not None and target > eng.cycle:
                    eng.cycle = target
                    continue
            self.phase_eject()
            bail = self.phase_route()
            if bail is not None:
                self.sync_out()
                self.fallback_reason = bail
                return "bail"
            self.phase_grant()
            self.phase_transfer()
            self.phase_inject()
            eng.cycle += 1
            if (
                eng.in_flight
                and eng.cycle - self.last_progress >= stall_limit
            ):
                self.sync_out()
                return "stalled"
        self.sync_out()
        return "done"

    def _idle(self) -> bool:
        eng = self.eng
        if (
            eng.in_flight
            or self.nconns
            or self.pending
            or self.serial_active
            or eng._nonempty_sources
        ):
            return False
        return not (self.route_cand.any() or self.eject_pend.any())

    # -------------------------------------------------------------- phases
    def phase_eject(self) -> None:
        e = np.nonzero(self.eject_pend)[0]
        if e.size == 0:
            return
        self.eject_pend[e] = False
        e = e[np.argsort(self.pe_order[e], kind="stable")]
        lens = self.buf_len[e]
        nz = lens > 0
        if not nz.all():
            e = e[nz]
            lens = lens[nz]
        if e.size == 0:
            return
        eng = self.eng
        self.flit_moves += int(lens.sum())
        self.last_progress = eng.cycle
        cap = self.cap
        offs = np.arange(cap)
        slots = (self.buf_start[e][:, None] + offs[None, :]) % cap
        kinds = self.buf_kind[e[:, None], slots]
        valid = offs[None, :] < lens[:, None]
        tails = valid & ((kinds == _TAIL) | (kinds == _HEAD_TAIL))
        rows, cols = np.nonzero(tails)
        if rows.size:
            in_flight = eng.in_flight
            tpids = self.buf_pid[e[rows], slots[rows, cols]]
            for r, pid in zip(rows.tolist(), tpids.tolist()):
                inf = in_flight.get(pid)
                if inf is None:
                    continue
                coord = self.pe_coord[int(e[r])]
                inf.deliveries += 1
                inf.served.add(coord)
                if inf.done:
                    inf.packet.delivered_at = eng.cycle
                    eng.delivered.append(inf.packet)
                    del in_flight[pid]
                    if inf.expected_deliveries == 1:
                        # a multicast's other copies (a sink's, say) may
                        # still be in flight and need the header
                        self.hdr_by_pid.pop(pid, None)
        self.buf_len[e] = 0

    def phase_route(self) -> Optional[str]:
        """Route every fresh header; returns a fallback reason (bailing
        *before* any route effect is applied) or None."""
        cand = np.nonzero(self.route_cand)[0]
        if cand.size == 0:
            return None
        pe = self.is_pe[cand]
        if pe.any():
            self.route_cand[cand[pe]] = False  # ejection handles PE inputs
            cand = cand[~pe]
        empty = self.buf_len[cand] == 0
        if empty.any():
            self.route_cand[cand[empty]] = False
            cand = cand[~empty]
        if cand.size == 0:
            return None
        heads = self.buf_kind[cand, self.buf_start[cand]]
        headish = (heads == _HEAD) | (heads == _HEAD_TAIL)
        cand = cand[headish]  # non-heads stay candidates (HoL wait)
        if cand.size == 0:
            return None
        busy = self.fc_alive[cand] | self.pend_cin[cand]
        cand = cand[~busy]  # already connected/requested: stay candidates
        if cand.size == 0:
            return None
        eng = self.eng
        pids = self.buf_pid[cand, self.buf_start[cand]]
        cand_l = cand.tolist()
        pids_l = pids.tolist()
        n = len(cand_l)
        hdrs = list(map(self.hdr_by_pid.__getitem__, pids_l))
        cycle = eng.cycle
        # one request per candidate, in candidate (cid) order; a drop
        # leaves its slot empty.  Nothing is committed until every
        # decision checks out -- a bail must leave the fabric untouched
        # (only the wanted memo fills in, and that is a pure topology
        # cache)
        recs: List[Optional[_PendRec]] = [None] * n
        rest = range(n)
        table_fn = getattr(eng.adapter, "normal_table", None)
        if table_fn is not None:
            # closed form: NORMAL headers at fault-free switches, routed by
            # array arithmetic without touching the adapter's memo
            table = table_fn()
            node_of = table.node_of
            dests = np.fromiter(
                (
                    node_of.get(h.dest, -1) if h.rc is _NORMAL else -1
                    for h in hdrs
                ),
                dtype=np.int64,
                count=n,
            )
            closed = table.clear[cand] & (dests >= 0)
            idx = np.nonzero(closed)[0]
            if idx.size:
                idx_l = idx.tolist()
                outs = table.route(cand[idx], dests[idx]).tolist()
                for i, (wanted, d) in zip(idx_l, table.requests(outs)):
                    recs[i] = _PendRec(pids_l[i], cand_l[i], wanted, d, cycle)
                rest = np.nonzero(~closed)[0].tolist()
        drops: List[int] = []
        serial: List[int] = []
        new_any = 0
        new_nonsingle = 0
        if rest:
            # residual path: every other header goes through the adapter
            el_of = self.el_of
            chan_src = self.chan_src
            try:
                decisions = decide_batch(
                    eng.adapter,
                    [
                        (el_of[cand_l[i]], chan_src[cand_l[i]], 0, hdrs[i])
                        for i in rest
                    ],
                )
            except RoutingError:
                # decisions are pure: the scalar route phase will hit the
                # same error and run the unroutable-packet kill path
                return "unroutable packet"
            memo = eng._wanted_memo
            fanned = self.fanned
            for i, d in zip(rest, decisions):
                if d.drop:
                    drops.append(i)
                    continue
                if d.rc != hdrs[i].rc and pids_l[i] in fanned:
                    return "per-copy header rewrite"
                el = el_of[cand_l[i]]
                wkey = (el, d.outputs)
                wanted = memo.get(wkey)
                if wanted is None:
                    wanted = tuple(
                        (eng.topo.channel(el, out_el).cid, out_vc)
                        for out_el, out_vc in d.outputs
                    )
                    memo[wkey] = wanted
                recs[i] = _PendRec(pids_l[i], cand_l[i], wanted, d, cycle)
                if d.serialize:
                    serial.append(i)
                elif d.policy == "any":
                    new_any += 1
                elif len(wanted) != 1:
                    new_nonsingle += 1
        for i in drops:
            cid = cand_l[i]
            pid = pids_l[i]
            self.fc_alive[cid] = True
            self.fc_pid[cid] = pid
            self.fc_cout[cid] = -1
            self.fc_order[cid] = self.order_counter
            self.order_counter += 1
            self.fc_started[cid] = cycle
            self.nconns += 1
            inf = eng.in_flight.get(pid)
            if inf is not None:
                inf.dropped = True
        self.route_cand[cand] = False
        for i in serial:
            rec = recs[i]
            recs[i] = None
            el = self.el_of[rec.cin]
            self.serial.setdefault(el, deque()).append(rec)
            self.serial_active.add(el)
            self.el_blocked[self.el_index[el]] = True
        if drops:
            kept = np.ones(n, dtype=bool)
            kept[drops] = False
            cand = cand[kept]
        if drops or serial:
            self.pending.extend(r for r in recs if r is not None)
        else:
            self.pending.extend(recs)
        self.pend_cin[cand] = True
        self.any_count += new_any
        self.nonsingle += new_nonsingle
        return None

    def phase_grant(self) -> None:
        if self.serial_active:
            self._grant_serial()
        pend = self.pending
        if not pend:
            return
        if self.any_count:
            self._grant_sequential()
            return
        if self.nonsingle or self.serial_active:
            self._grant_reduce()
            return
        # every request is single-output "all" and no S-XB blocks: the
        # sequential scan grants each free output to its first requester
        # in arrival order, which is exactly the first-occurrence reduction
        outs = np.fromiter(
            (r.wanted[0][0] for r in pend), dtype=np.int64, count=len(pend)
        )
        free = self.owner[outs] == -1
        if not free.any():
            return
        idx_free = np.nonzero(free)[0]
        _, first = np.unique(outs[idx_free], return_index=True)
        win = idx_free[first]
        win.sort()  # establishment (and fc_order) in arrival order
        wl = win.tolist()
        self._connect_singles([pend[i] for i in wl], outs[win])
        if len(wl) == len(pend):
            self.pending = []
        else:
            wset = set(wl)
            self.pending = [r for i, r in enumerate(pend) if i not in wset]

    def _grant_serial(self) -> None:
        """S-XB FIFOs: each queue's head is granted atomically, in queue
        first-insertion order, once every output it wants is free."""
        owner = self.owner
        for el, queue in self.serial.items():
            if not queue:
                continue
            rec = queue[0]
            outs = [k[0] for k in rec.wanted]
            if outs and (owner[outs] != -1).any():
                continue
            queue.popleft()
            if not queue:
                self.serial_active.discard(el)
                self.el_blocked[self.el_index[el]] = False
            owner[outs] = rec.pid
            self._connect(rec, self.order_counter)
            self.order_counter += 1

    def _grant_reduce(self) -> None:
        """Progressive grant of ``"all"`` requests as one first-occurrence
        reduction over (request, output) pairs: each free output goes to
        the first unblocked request that wants it; a request connects
        once it holds every output, and a multicast keeps what it got."""
        pend = self.pending
        n = len(pend)
        counts = np.fromiter(
            (len(r.wanted) for r in pend), dtype=np.int64, count=n
        )
        total = int(counts.sum())
        outs = np.fromiter(
            (k[0] for r in pend for k in r.wanted), dtype=np.int64, count=total
        )
        rq = np.repeat(np.arange(n), counts)
        ok = np.ones(n, dtype=bool)
        if self.serial_active:
            cins = np.fromiter((r.cin for r in pend), np.int64, count=n)
            ok = ~self.el_blocked[self.el_idx[cins]]
        held = np.zeros(total, dtype=bool)
        multi = np.nonzero(counts > 1)[0]
        starts = np.cumsum(counts) - counts
        for j in multi.tolist():
            res = pend[j].reserved
            if res:
                s = int(starts[j])
                for t, k in enumerate(pend[j].wanted):
                    if k[0] in res:
                        held[s + t] = True
        cand = np.nonzero(ok[rq] & (self.owner[outs] == -1))[0]
        if cand.size:
            _, first = np.unique(outs[cand], return_index=True)
            won = cand[first]
            pids = np.fromiter((r.pid for r in pend), np.int64, count=n)
            self.owner[outs[won]] = pids[rq[won]]
            held[won] = True
        got = np.bincount(rq[held], minlength=n)
        complete = ok & (got == counts)
        if cand.size and multi.size:
            # partial reservations persist on the incomplete multicasts
            part = won[(counts[rq[won]] > 1) & ~complete[rq[won]]]
            for p in part.tolist():
                r = pend[int(rq[p])]
                if not r.reserved:
                    r.reserved = set()
                r.reserved.add(int(outs[p]))
        done = np.nonzero(complete)[0]
        if done.size == 0:
            return
        # connect in arrival order: the order stamps follow ``done``
        single = counts[done] == 1
        base = self.order_counter
        sd = done[single]
        if sd.size:
            self._connect_singles(
                [pend[i] for i in sd.tolist()],
                outs[starts[sd]],
                base + np.nonzero(single)[0],
            )
        for pos in np.nonzero(~single)[0].tolist():
            self._connect(pend[int(done[pos])], base + pos)
            self.nonsingle -= 1
        self.order_counter = base + done.size
        self.pending = list(compress(pend, (~complete).tolist()))

    def _grant_sequential(self) -> None:
        """Exact scalar grant, for cycles with adaptive requests."""
        owner = self.owner
        blocked = self.serial_active
        el_of = self.el_of
        remaining = []
        for rec in self.pending:
            if blocked and el_of[rec.cin] in blocked:
                remaining.append(rec)
                continue
            if rec.decision.policy == "any":
                chosen = next(
                    (k[0] for k in rec.wanted if owner[k[0]] == -1), None
                )
                if chosen is None:
                    remaining.append(rec)
                    continue
                owner[chosen] = rec.pid
                rec.wanted = ((chosen, 0),)
                self.any_count -= 1
            else:
                complete = True
                multi = len(rec.wanted) > 1
                for k in rec.wanted:
                    o = k[0]
                    if multi and o in rec.reserved:
                        continue
                    if owner[o] == -1:
                        owner[o] = rec.pid
                        if multi:
                            if not rec.reserved:
                                rec.reserved = set()
                            rec.reserved.add(o)
                    else:
                        complete = False
                if not complete:
                    remaining.append(rec)
                    continue
                if len(rec.wanted) != 1:
                    self.nonsingle -= 1
            self._connect(rec, self.order_counter)
            self.order_counter += 1
        self.pending = remaining

    def _connect_singles(self, recs, outs, orders=None) -> None:
        """Establish single-output requests whose outputs are granted, in
        list order (``orders`` defaults to the next order stamps)."""
        n = len(recs)
        cins = np.fromiter((r.cin for r in recs), np.int64, count=n)
        pids = np.fromiter((r.pid for r in recs), np.int64, count=n)
        if orders is None:
            orders = self.order_counter + np.arange(n)
            self.order_counter += n
        self.owner[outs] = pids
        self.fc_alive[cins] = True
        self.fc_pid[cins] = pids
        self.fc_cout[cins] = outs
        self.fc_order[cins] = orders
        self.fc_started[cins] = self.eng.cycle
        self.pend_cin[cins] = False
        self.nconns += n
        self.last_progress = self.eng.cycle
        hdrs = self.hdr_by_pid
        for r in recs:
            h = hdrs[r.pid]
            rc = r.decision.rc
            if h.rc != rc:
                # the switch rewrites the RC bit as the header passes
                hdrs[r.pid] = h.with_rc(rc)

    def _connect(self, rec: _PendRec, order: int) -> None:
        """Establish one request whose outputs it already owns."""
        hdr = self.hdr_by_pid[rec.pid]
        if hdr.rc != rec.decision.rc:
            # the switch rewrites the RC bit as the header passes
            self.hdr_by_pid[rec.pid] = hdr.with_rc(rec.decision.rc)
        cin = rec.cin
        self.fc_alive[cin] = True
        self.fc_pid[cin] = rec.pid
        self._set_outputs(cin, rec.pid, rec.wanted)
        self.fc_order[cin] = order
        self.fc_started[cin] = self.eng.cycle
        self.nconns += 1
        self.pend_cin[cin] = False
        self.last_progress = self.eng.cycle

    def phase_transfer(self) -> None:
        f = np.nonzero(self.fc_alive)[0]
        i = np.nonzero(self.ic_alive)[0]
        if f.size == 0 and i.size == 0:
            return
        cap = self.cap
        buf_len = self.buf_len
        fl = buf_len[f]
        fhead_pid = self.buf_pid[f, self.buf_start[f]]
        fsrc_ok = (fl > 0) & (fhead_pid == self.fc_pid[f])
        fdst = self.fc_cout[f]
        fone = fdst >= 0
        fdst_safe = np.where(fone, fdst, 0)
        fdst_ok = ~fone | (buf_len[fdst_safe] < cap)
        fdst_pot = (~fdst_ok) & self.fc_alive[fdst_safe]
        if self.n_multi:
            # lockstep copy: a multicast moves only when every output
            # has space, and may still move if each full one is drained
            # by an earlier connection
            mrow = np.nonzero(fdst == _MULTI)[0]
            mouts = self.fc_outs[f[mrow]]
            valid = mouts >= 0
            msafe = np.where(valid, mouts, 0)
            space = ~valid | (buf_len[msafe] < cap)
            mok = space.all(axis=1)
            fdst_ok[mrow] = mok
            fdst_pot[mrow] = ~mok & (space | self.fc_alive[msafe]).all(axis=1)
        fm0 = fsrc_ok & fdst_ok
        idst = self.ic_cout[i]
        im0 = buf_len[idst] < cap
        # conditional movers: blocked at phase start but enabled by an
        # earlier-in-order mover draining their destination (or supplying
        # their empty source), matching the scalar dict-order scan
        fsrc_pot = (~fsrc_ok) & (fl == 0)
        fcond = (~fm0) & (fsrc_ok | fsrc_pot) & (fdst_ok | fdst_pot)
        icond = (~im0) & self.fc_alive[idst]
        waves: List[Tuple[list, list]] = []
        if fcond.any() or icond.any():
            waves = self._resolve_conditional(f, fm0, fcond, i, im0, icond)
        moved = False
        drops: List[np.ndarray] = []
        fm = f[fm0]
        if fm.size:
            moved = True
            drops.append(self._apply_fabric(fm))
        im = i[im0]
        if im.size:
            moved = True
            self._apply_injection(im)
        for wf, wi in waves:
            moved = True
            if wf:
                drops.append(self._apply_fabric(np.array(wf, dtype=np.int64)))
            if wi:
                self._apply_injection(np.array(wi, dtype=np.int64))
        if moved:
            self.last_progress = self.eng.cycle
        drops = [d for d in drops if d.size]
        if drops:
            self._finish_drops(np.concatenate(drops))

    def _resolve_conditional(self, f, fm0, fcond, i, im0, icond):
        """Decide the order-dependent movers with one ascending pass (an
        enabler always has a strictly smaller connection order).

        Returns them as waves of (fabric cids, injection slots): a mover
        lands one wave after the latest conditional mover it depends on
        (the vectorized movers are wave 0), so applying the waves in turn,
        each as one batch, pops and pushes every buffer in the order the
        sequential scan does."""
        V = self.V
        filler_ord = np.full(V, -1, dtype=np.int64)
        filler_isf = np.zeros(V, dtype=bool)
        filler_id = np.zeros(V, dtype=np.int64)
        fout = self.fc_cout[f]
        fnz = f[fout >= 0]
        filler_ord[self.fc_cout[fnz]] = self.fc_order[fnz]
        filler_isf[self.fc_cout[fnz]] = True
        filler_id[self.fc_cout[fnz]] = fnz
        if self.n_multi:
            fmu = f[fout == _MULTI]
            mouts = self.fc_outs[fmu]
            r, c = np.nonzero(mouts >= 0)
            filled = mouts[r, c]
            filler_ord[filled] = self.fc_order[fmu][r]
            filler_isf[filled] = True
            filler_id[filled] = fmu[r]
        filler_ord[self.ic_cout[i]] = self.ic_order[i]
        filler_id[self.ic_cout[i]] = i
        moved_f = np.zeros(V, dtype=bool)
        moved_f[f[fm0]] = True
        moved_i = np.zeros(len(self.ic_alive), dtype=bool)
        moved_i[i[im0]] = True
        cands = [
            (int(self.fc_order[cid]), "f", int(cid))
            for cid in f[fcond].tolist()
        ] + [
            (int(self.ic_order[p]), "i", int(p)) for p in i[icond].tolist()
        ]
        cands.sort()
        cap = self.cap
        buf_len = self.buf_len
        fc_alive = self.fc_alive
        fc_order = self.fc_order
        # wave of each conditional mover; vectorized movers are wave 0
        wave_f: Dict[int, int] = {}
        wave_i: Dict[int, int] = {}
        waves: List[Tuple[list, list]] = []

        def drained(outs, order_c, w):
            # wave the outputs are all writable from, or -1: a full output
            # needs an earlier connection that drained it
            for d in outs:
                if buf_len[d] < cap:
                    continue
                if fc_alive[d] and fc_order[d] < order_c and moved_f[d]:
                    w = max(w, wave_f.get(d, 0))
                    continue
                return -1
            return w

        for order_c, kind, idx in cands:
            w = 0
            if kind == "f":
                cid = idx
                src_ok = buf_len[cid] > 0 and (
                    self.buf_pid[cid, self.buf_start[cid]]
                    == self.fc_pid[cid]
                )
                if not src_ok and buf_len[cid] == 0:
                    fo = filler_ord[cid]
                    if 0 <= fo < order_c:
                        fid = int(filler_id[cid])
                        if filler_isf[cid]:
                            src_ok = moved_f[fid]
                            w = wave_f.get(fid, 0)
                        else:
                            src_ok = moved_i[fid]
                            w = wave_i.get(fid, 0)
                if not src_ok:
                    continue
                d = int(self.fc_cout[cid])
                if d >= 0:
                    outs = (d,)
                elif d == -1:
                    outs = ()
                else:
                    row = self.fc_outs[cid]
                    outs = row[row >= 0].tolist()
                w = drained(outs, order_c, w)
                if w < 0:
                    continue
                moved_f[cid] = True
                wave_f[cid] = w + 1
            else:
                p = idx
                w = drained((int(self.ic_cout[p]),), order_c, 0)
                if w < 0:
                    continue
                moved_i[p] = True
                wave_i[p] = w + 1
            if w == len(waves):
                waves.append(([], []))
            waves[w][0 if kind == "f" else 1].append(idx)
        return waves

    def _apply_fabric(self, fm) -> np.ndarray:
        """Move one flit through each fabric connection in ``fm`` (pops
        before pushes, so a buffer popped and refilled in the same cycle
        lands its newcomer behind the survivors).  A multicast pushes one
        copy per output; each copy counts toward its channel's busy
        cycles, but the move counts once.  Returns the connections with no
        outputs that finished (see :meth:`_finish_drops`)."""
        cap = self.cap
        s = self.buf_start[fm]
        v_pid = self.buf_pid[fm, s]
        v_kind = self.buf_kind[fm, s]
        v_seq = self.buf_seq[fm, s]
        self.buf_start[fm] = (s + 1) % cap
        self.buf_len[fm] -= 1
        d = self.fc_cout[fm]
        src = np.nonzero(d >= 0)[0]
        dp = d[src]
        if self.n_multi:
            mi = np.nonzero(d == _MULTI)[0]
            if mi.size:
                mouts = self.fc_outs[fm[mi]]
                r, c = np.nonzero(mouts >= 0)
                src = np.concatenate([src, mi[r]])
                dp = np.concatenate([dp, mouts[r, c]])
        if dp.size:
            slot = (self.buf_start[dp] + self.buf_len[dp]) % cap
            kp = v_kind[src]
            self.buf_pid[dp, slot] = v_pid[src]
            self.buf_kind[dp, slot] = kp
            self.buf_seq[dp, slot] = v_seq[src]
            self.buf_len[dp] += 1
            self.busy_delta[dp] += 1
            headish = (kp == _HEAD) | (kp == _HEAD_TAIL)
            self.route_cand[dp[headish]] = True
            self.eject_pend[dp[self.is_pe[dp]]] = True
        tailish = (v_kind == _TAIL) | (v_kind == _HEAD_TAIL)
        td = fm[tailish]
        if td.size:
            douts = self.fc_cout[td]
            self.owner[douts[douts >= 0]] = -1
            tm = td[douts == _MULTI]
            if tm.size:
                mouts = self.fc_outs[tm]
                self.owner[mouts[mouts >= 0]] = -1
                self.n_multi -= int(tm.size)
            self.fc_alive[td] = False
            self.nconns -= int(td.size)
            nonempty = self.buf_len[td] > 0
            self.route_cand[td[nonempty]] = True
        self.flit_moves += int(fm.size)
        return td[douts == -1] if td.size else td

    def _finish_drops(self, drops) -> None:
        """Account the packets whose tail left through a connection with
        no outputs this cycle, in connection order as the scalar scan
        does: a drop loses the packet, a sink just that copy."""
        in_flight = self.eng.in_flight
        for cid in drops[np.argsort(self.fc_order[drops], kind="stable")].tolist():
            pid = int(self.fc_pid[cid])
            inf = in_flight.get(pid)
            if inf is not None and inf.dropped:
                del in_flight[pid]
                self.eng.dropped.append(inf.packet)
                self.hdr_by_pid.pop(pid, None)

    def _apply_injection(self, im) -> None:
        cap = self.cap
        seq = self.ic_sent[im]
        ln = self.ic_len[im]
        kind = np.where(
            ln == 1,
            _HEAD_TAIL,
            np.where(
                seq == 0, _HEAD, np.where(seq == ln - 1, _TAIL, _BODY)
            ),
        )
        d = self.ic_cout[im]
        slot = (self.buf_start[d] + self.buf_len[d]) % cap
        self.buf_pid[d, slot] = self.ic_pid[im]
        self.buf_kind[d, slot] = kind
        self.buf_seq[d, slot] = seq
        self.buf_len[d] += 1
        self.busy_delta[d] += 1
        headish = (kind == _HEAD) | (kind == _HEAD_TAIL)
        self.route_cand[d[headish]] = True
        self.ic_sent[im] += 1
        done = seq == ln - 1
        t = im[done]
        if t.size:
            self.owner[self.ic_cout[t]] = -1
            self.ic_alive[t] = False
            self.nconns -= int(t.size)
            for p in t.tolist():
                self.ic_packet[p] = None
        self.flit_moves += int(im.size)

    def phase_inject(self) -> None:
        eng = self.eng
        due = eng._scheduled.pop(eng.cycle, None)
        if due:
            for p in due:
                p.injected_at = eng.cycle
                eng.send(p)
        for gen in eng.generators:
            gen(eng)
        if not eng._nonempty_sources:
            return
        owner = self.owner
        for coord in list(eng._nonempty_sources):
            queue = eng.source_queues[coord]
            if not queue:
                eng._nonempty_sources.discard(coord)
                continue
            cid = self.inj_cid[coord]
            if owner[cid] != -1:
                continue
            packet = queue.popleft()
            if not queue:
                eng._nonempty_sources.discard(coord)
            owner[cid] = packet.pid
            p = self.pe_slot[coord]
            self.ic_alive[p] = True
            self.ic_pid[p] = packet.pid
            self.ic_cout[p] = cid
            self.ic_sent[p] = 0
            self.ic_len[p] = packet.length
            self.ic_order[p] = self.order_counter
            self.order_counter += 1
            self.ic_started[p] = eng.cycle
            self.ic_packet[p] = packet
            self.nconns += 1
            self.hdr_by_pid[packet.pid] = packet.header
            eng.in_flight[packet.pid] = InFlightPacket(
                packet=packet,
                expected_deliveries=eng.expected_deliveries(packet),
            )
            eng.injected += 1
            self.last_progress = eng.cycle


def _flit_kind(seq: int, length: int) -> FlitKind:
    if length == 1:
        return FlitKind.HEAD_TAIL
    if seq == 0:
        return FlitKind.HEAD
    if seq == length - 1:
        return FlitKind.TAIL
    return FlitKind.BODY
