"""The repository's one cycle finder and topological order.

``networkx`` is not a runtime dependency; where it is installed it serves
as the oracle: on every ordered digraph, :func:`find_cycle` returns the
node list of ``nx.find_cycle`` and :func:`topo_order` the order of
``nx.topological_sort``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.graph import find_cycle, topo_order


@st.composite
def ordered_digraphs(draw):
    """``(nodes, edges, succ)``: a node order, an edge list with repeats
    and self-loops, and the adjacency mapping built from them with some
    pure sinks left without a key."""
    n = draw(st.integers(0, 9))
    nodes = draw(st.permutations(range(n)))
    node = st.sampled_from(nodes) if n else st.nothing()
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    succ = {u: [] for u in nodes}
    for u, v in edges:
        succ[u].append(v)
    heads = {v for _, v in edges}
    keyless = draw(st.sets(st.sampled_from(nodes))) if n else set()
    for u in keyless:
        if not succ[u] and u in heads:
            del succ[u]
    return nodes, edges, succ


def _is_cycle(succ, cyc):
    return all(b in succ.get(a, ()) for a, b in zip(cyc, cyc[1:] + cyc[:1]))


@given(ordered_digraphs())
@settings(max_examples=400, deadline=None)
def test_matches_networkx(graph):
    nx = pytest.importorskip("networkx")
    nodes, edges, succ = graph
    g = nx.DiGraph()
    g.add_nodes_from(nodes)
    g.add_edges_from(edges)
    try:
        want = [u for u, _ in nx.find_cycle(g)]
    except nx.NetworkXNoCycle:
        want = []
    assert find_cycle(succ) == want
    try:
        order = list(nx.topological_sort(g))
    except nx.NetworkXUnfeasible:
        order = None
    assert topo_order(succ) == order


@given(ordered_digraphs())
@settings(max_examples=200, deadline=None)
def test_cycle_xor_order(graph):
    nodes, _, succ = graph
    cyc = find_cycle(succ)
    order = topo_order(succ)
    assert (order is None) == bool(cyc)
    if cyc:
        assert _is_cycle(succ, cyc)
        assert len(set(cyc)) == len(cyc)
    else:
        assert sorted(order) == sorted(nodes)
        rank = {u: i for i, u in enumerate(order)}
        assert all(rank[u] < rank[v] for u, vs in succ.items() for v in vs)


class TestFindCycle:
    def test_empty(self):
        assert find_cycle({}) == []

    def test_self_loop(self):
        assert find_cycle({"a": ["a"]}) == ["a"]

    def test_first_back_edge_closes_the_cycle(self):
        # roots in mapping order, successors in iteration order
        succ = {0: [1], 1: [2, 3], 2: [0], 3: [1]}
        assert find_cycle(succ) == [0, 1, 2]
        succ[1] = [3, 2]
        assert find_cycle(succ) == [1, 3]

    def test_successor_only_nodes_need_no_key(self):
        assert find_cycle({0: [1], 1: [2]}) == []

    def test_deep_chain_does_not_recurse(self):
        n = 50_000
        succ = {i: [i + 1] for i in range(n)}
        succ[n] = [0]
        assert len(find_cycle(succ)) == n + 1


class TestTopoOrder:
    def test_generations_in_mapping_order(self):
        succ = {3: [1], 0: [2], 1: [2], 2: []}
        assert topo_order(succ) == [3, 0, 1, 2]

    def test_repeated_edges_count_once(self):
        assert topo_order({0: [1, 2, 1], 2: [1]}) == [0, 2, 1]

    def test_cycle_is_none(self):
        assert topo_order({0: [1], 1: [0], 2: []}) is None
