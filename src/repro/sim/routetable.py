"""Closed-form NORMAL routing for the batched SoA route phase.

A switch picks a NORMAL packet's next hop from the header and its own fault
bits alone (paper Section 3.2): a router forwards into the crossbar of the
first routing-order dimension where its coordinate differs from the
destination's, or delivers to its PE; a crossbar forwards to the router at
the destination's coordinate on its line.  At a switch whose local fault
information is empty neither rule has an exception, so the whole decision
reduces to integer arithmetic on channel ids.  :class:`NormalRouteTable`
holds that arithmetic as numpy arrays for one
:class:`~repro.core.switch_logic.SwitchLogic`, in the style of the
table-driven routing of HyperX and garnet, so the SoA kernel routes a
cycle's NORMAL headers with a handful of vector operations instead of one
memo probe (or one scalar :meth:`SwitchLogic.decide`) each.

Only elements whose :meth:`FaultRegistry.info` is ``clear`` are answered
(:attr:`NormalRouteTable.clear`); every other header -- RC 1/2/3 or a
fault-adjacent switch -- stays with the adapter's ``decide_batch``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.packet import RC
from .adapter import SimDecision


class NormalRouteTable:
    """Channel-id tables of the NORMAL rules for one switch logic.

    Nodes are numbered by :func:`~repro.core.coords.lexicographic_index`.
    Per node ``n`` and dimension ``k``:

    * ``rtr_out[n, k]`` -- the router's channel into its dim-``k`` crossbar;
    * ``pe_out[n]`` -- the router's channel to its own PE;
    * ``xb_out[n, k]`` -- the dim-``k`` crossbar's channel to router ``n``
      (the crossbar's port at offset ``coord[n, k]`` on its line).

    Per channel id ``cid`` (the input channel a header waits on):

    * ``node[cid]`` -- the router the channel enters, or for a channel into
      a crossbar the router it leaves (-1 for a channel into a PE);
    * ``dim[cid]`` -- the crossbar dimension for a channel into a crossbar,
      -1 otherwise;
    * ``clear[cid]`` -- the element the channel enters is a switch whose
      local fault information is empty, so :meth:`route` answers for it.
    """

    def __init__(self, logic) -> None:
        topo = logic.topo
        shape = topo.shape
        d = len(shape)
        self.logic = logic
        self.order = np.asarray(logic.config.order, dtype=np.int64)
        coords = topo.node_coords()
        #: node-number step of one coordinate unit in each dimension
        self.stride = np.array(
            [int(np.prod(shape[k + 1 :])) for k in range(d)], dtype=np.int64
        )
        coord = np.array(coords, dtype=np.int64).reshape(len(coords), d)
        nums = coord @ self.stride
        self.coord = np.empty_like(coord)
        self.coord[nums] = coord
        #: receiving address -> node number
        self.node_of = dict(zip(coords, nums.tolist()))
        node_of = self.node_of
        info = logic.registry.info
        n_nodes = len(coords)
        V = topo.num_channels
        rtr_out = [-1] * (n_nodes * d)
        xb_out = [-1] * (n_nodes * d)
        pe_out = [-1] * n_nodes
        node = [-1] * V
        dim = [-1] * V
        clear = [False] * V
        self._channels = topo.channels()
        for ch in self._channels:
            cid, src, dst = ch.cid, ch.src, ch.dst
            kind = dst[0]
            if kind == "RTR":
                n = node[cid] = node_of[dst[1]]
                clear[cid] = info(dst).clear
                if src[0] == "XB":
                    xb_out[n * d + src[1]] = cid
            elif kind == "XB":
                n = node[cid] = node_of[src[1]]
                k = dim[cid] = dst[1]
                clear[cid] = info(dst).clear
                rtr_out[n * d + k] = cid
            else:
                pe_out[node_of[src[1]]] = cid
        self.rtr_out = np.array(rtr_out, dtype=np.int64).reshape(n_nodes, d)
        self.xb_out = np.array(xb_out, dtype=np.int64).reshape(n_nodes, d)
        self.pe_out = np.array(pe_out, dtype=np.int64)
        self.node = np.array(node, dtype=np.int64)
        self.dim = np.array(dim, dtype=np.int64)
        self.clear = np.array(clear, dtype=bool)
        self._requests: List[Optional[Tuple[tuple, SimDecision]]] = [None] * V

    def route(self, cids: np.ndarray, dests: np.ndarray) -> np.ndarray:
        """Output channel id of a NORMAL header waiting on each input
        channel of ``cids`` for the destination node numbers ``dests``.
        Only meaningful where ``clear[cids]`` holds."""
        node = self.node[cids]
        dim = self.dim[cids]
        out = np.empty(cids.shape[0], dtype=np.int64)
        at_xb = dim >= 0
        if at_xb.any():
            # a crossbar exits to the router at the destination's
            # coordinate on its line
            src = node[at_xb]
            k = dim[at_xb]
            hop = self.coord[dests[at_xb], k] - self.coord[src, k]
            out[at_xb] = self.xb_out[src + hop * self.stride[k], k]
        at_rtr = ~at_xb
        if at_rtr.any():
            # a router enters the first routing-order dimension that
            # differs from the destination, or delivers to its PE
            here = node[at_rtr]
            order = self.order
            diff = (
                self.coord[here][:, order]
                != self.coord[dests[at_rtr]][:, order]
            )
            first = diff.argmax(axis=1)
            leaves = diff[np.arange(first.shape[0]), first]
            out[at_rtr] = np.where(
                leaves, self.rtr_out[here, order[first]], self.pe_out[here]
            )
        return out

    def requests(self, outs: List[int]) -> List[Tuple[tuple, SimDecision]]:
        """The canonical ``(wanted, decision)`` pair of a NORMAL hop onto
        each output channel in ``outs``: one shared pair per channel, its
        decision equal to the adapter's for the same hop."""
        reqs = self._requests
        for out in outs:
            if reqs[out] is None:
                reqs[out] = (
                    ((out, 0),),
                    SimDecision(
                        outputs=((self._channels[out].dst, 0),), rc=RC.NORMAL
                    ),
                )
        return [reqs[out] for out in outs]
