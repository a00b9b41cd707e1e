"""The one cycle finder and topological order of the repository.

Every deadlock argument here reduces to a question about a directed
graph -- the channel-dependency graph of :mod:`repro.core.cdg`, the
channel order of :mod:`repro.core.ordering`, a routing scheme's
``(channel, vc)`` waiting graph, the simulator's packet wait-for graph --
and all of them ask it through these two functions.

Both take an ordered adjacency mapping ``succ: node -> iterable of
successors`` and are deterministic in that order: roots are taken in
mapping order and successors in iteration order, so a caller that needs
a canonical answer passes sorted keys and successors.  Nodes that appear
only as successors need no key of their own.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, TypeVar

N = TypeVar("N", bound=Hashable)

_GREY, _BLACK = 1, 2


def find_cycle(succ: Mapping[N, Iterable[N]]) -> List[N]:
    """A directed cycle ``[n0, ..., nk]`` (edge ``nk -> n0`` closes it),
    or ``[]`` if the graph is acyclic.

    Iterative three-colour DFS: the first edge that reaches a node still
    on the DFS path closes the returned cycle.  A self-loop is ``[n]``.
    """
    colour: Dict[N, int] = {}
    for root in succ:
        if root in colour:
            continue
        colour[root] = _GREY
        path = [root]
        stack = [iter(succ[root])]
        while stack:
            for nxt in stack[-1]:
                state = colour.get(nxt)
                if state == _GREY:
                    return path[path.index(nxt):]
                if state is None:
                    colour[nxt] = _GREY
                    path.append(nxt)
                    stack.append(iter(succ.get(nxt, ())))
                    break
            else:
                colour[path.pop()] = _BLACK
                stack.pop()
    return []


def topo_order(succ: Mapping[N, Iterable[N]]) -> Optional[List[N]]:
    """Every node in a topological order, or ``None`` if there is a cycle.

    Kahn's algorithm by generations: the sources in mapping order, then
    each node as soon as its last predecessor is placed.  Repeated edges
    count once.
    """
    adj = {u: list(dict.fromkeys(vs)) for u, vs in succ.items()}
    indegree: Dict[N, int] = {}
    for vs in adj.values():
        for v in vs:
            indegree[v] = indegree.get(v, 0) + 1
    order = [u for u in adj if u not in indegree]
    for u in order:  # ``order`` grows while it is walked: a FIFO queue
        for v in adj.get(u, ()):
            indegree[v] -= 1
            if not indegree[v]:
                order.append(v)
    return order if len(order) == len(adj.keys() | indegree.keys()) else None


__all__ = ["find_cycle", "topo_order"]
