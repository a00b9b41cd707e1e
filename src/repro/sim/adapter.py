"""Routing adapters: how the simulator asks a network for next hops.

The simulator is topology-agnostic; it needs, for each switch element, a
next-hop decision given the input channel and the header.  Adapters provide
that:

* :class:`MDCrossbarAdapter` wraps the paper's distributed
  :class:`~repro.core.switch_logic.SwitchLogic` (single virtual channel);
* the baselines package provides adapters for mesh / torus / hypercube
  dimension-order routing (the torus one uses the dateline virtual-channel
  split).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Protocol, Tuple

from ..core.packet import RC, Header
from ..core.switch_logic import SwitchLogic
from ..topology.base import ElementId, Topology


@dataclass(frozen=True)
class SimDecision:
    """A grant request: output (element, virtual channel) pairs.

    ``policy`` selects the grant semantics:

    * ``"all"`` (default) -- the packet needs *every* listed output
      (unicast with one entry, multicast with several; ports are acquired
      progressively and held);
    * ``"any"`` -- the packet takes the *first free* output in list order
      (adaptive routing: earlier entries are the preferred adaptive
      choices, the last entry is the escape channel).

    ``serialize`` requests the atomic FIFO one-at-a-time grant used by the
    S-XB; ``drop`` discards the packet (destination dead).  ``rc`` is the
    RC bit the forwarded copies carry.
    """

    outputs: Tuple[Tuple[ElementId, int], ...]
    rc: RC
    serialize: bool = False
    drop: bool = False
    policy: str = "all"


class RoutingAdapter(Protocol):
    """What the simulator needs from a routed network."""

    topo: Topology

    def decide(
        self, element: ElementId, in_from: ElementId, in_vc: int, header: Header
    ) -> SimDecision:
        """Next-hop decision at ``element`` for a header that arrived from
        ``in_from`` on virtual channel ``in_vc``."""
        ...


def decide_batch(adapter, queries):
    """Batch route lookup: one :class:`SimDecision` per query.

    ``queries`` is a sequence of ``(element, in_from, in_vc, header)``
    tuples.  The SoA driver collects every unrouted header of a cycle and
    resolves them in one call; adapters that maintain a decision memo can
    answer the common all-hits case without per-query method dispatch.
    Falls back to looping ``adapter.decide`` -- decisions are pure, so
    batch and scalar lookups are interchangeable.  Adapters may provide
    their own ``decide_batch(queries)`` with identical semantics.
    """
    batch = getattr(adapter, "decide_batch", None)
    if batch is not None:
        return batch(queries)
    decide = adapter.decide
    return [decide(el, src, vc, hdr) for el, src, vc, hdr in queries]


#: default bound on the route-decision memo.  Uniform traffic on an 8x8
#: network touches a few thousand distinct (element, input, dest, rc)
#: keys, so the default leaves ample headroom while still bounding a
#: long many-fault run; a much smaller bound would thrash on the
#: standard sweep shapes.
DEFAULT_MEMO_CAPACITY = 65536


class MDCrossbarAdapter:
    """The SR2201 network: defer to the distributed switch logic, VC 0.

    Decisions are memoized per ``(scheme, element, input, dest, rc)`` -- the
    rules never read the source coordinate: the switch logic is
    deterministic and stateless for a fixed fault configuration, so
    under steady traffic the simulator's route phase hits the cache
    instead of re-running the distributed rules.  The memo is an
    LRU bounded by ``memo_capacity`` and its hit/miss/eviction counters
    are exposed through :meth:`cache_info` (the ``RouteCacheStats``
    collector exports them into the metrics digest).  Swapping
    :attr:`logic` (an online facility reconfiguration) invalidates the
    cache but keeps the cumulative counters.
    """

    def __init__(
        self,
        logic: SwitchLogic,
        memo_capacity: int = DEFAULT_MEMO_CAPACITY,
        scheme: str = "dxb",
    ) -> None:
        if memo_capacity < 1:
            raise ValueError("memo_capacity must be >= 1")
        self._logic = logic
        self.topo = logic.topo
        #: routing-scheme identity; part of the memo key so a memo entry
        #: produced under one scheme can never answer for another
        self.scheme = scheme
        self._capacity = memo_capacity
        self._cache: "OrderedDict[tuple, SimDecision]" = OrderedDict()
        self._table = None
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def logic(self) -> SwitchLogic:
        return self._logic

    @logic.setter
    def logic(self, new_logic: SwitchLogic) -> None:
        self._logic = new_logic
        self._cache.clear()
        self._table = None

    def reset_cache(self) -> None:
        """Clear the memo *and* zero its counters, as a freshly built
        adapter's would be.  The warm-worker runtime calls this before
        reusing a network for a metrics-bearing sweep point, so the
        ``cache_info`` counters -- exported into the metrics digest by
        ``RouteCacheStats`` -- match a cold build's byte-for-byte."""
        self._cache.clear()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def cache_info(self) -> Dict[str, int]:
        """Memo statistics: cumulative hits / misses / evictions plus the
        current size and the configured capacity.

        They count memo lookups only.  The SoA kernel routes NORMAL
        headers at fault-free switches through :meth:`normal_table`
        without a lookup, so on the same workload an ``engine="soa"`` run
        records far fewer lookups than an ``active`` or ``legacy_scan``
        run; fingerprints and identities do not differ."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "size": len(self._cache),
            "capacity": self._capacity,
        }

    def normal_table(self):
        """The closed-form NORMAL route table of the current :attr:`logic`
        (:class:`~repro.sim.routetable.NormalRouteTable`), built on first
        use and rebuilt after a :attr:`logic` swap.  The SoA kernel routes
        NORMAL headers at fault-free switches through it, bypassing the
        memo; its answers equal :meth:`decide`'s."""
        if self._table is None:
            from .routetable import NormalRouteTable

            self._table = NormalRouteTable(self._logic)
        return self._table

    def decide(
        self, element: ElementId, in_from: ElementId, in_vc: int, header: Header
    ) -> SimDecision:
        key = (self.scheme, element, in_from, header.dest, header.rc)
        cache = self._cache
        hit = cache.get(key)
        if hit is not None:
            self._hits += 1
            cache.move_to_end(key)
            return hit
        self._misses += 1
        d = self._logic.decide(element, in_from, header)
        decision = SimDecision(
            outputs=tuple((el, 0) for el in d.outputs),
            rc=d.rc,
            serialize=d.serialize,
            drop=d.drop,
        )
        cache[key] = decision
        if len(cache) > self._capacity:
            cache.popitem(last=False)
            self._evictions += 1
        return decision

    def decide_batch(self, queries):
        """Memo-first batch lookup (see :func:`decide_batch`): resolves
        each query against the LRU directly and only drops to
        :meth:`decide` on a miss, so a steady-traffic batch costs one
        dict probe per header."""
        cache = self._cache
        scheme = self.scheme
        out = []
        for el, src, vc, hdr in queries:
            key = (scheme, el, src, hdr.dest, hdr.rc)
            hit = cache.get(key)
            if hit is not None:
                self._hits += 1
                cache.move_to_end(key)
                out.append(hit)
            else:
                out.append(self.decide(el, src, vc, hdr))
        return out
