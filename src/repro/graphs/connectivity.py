"""Link connectivity primitives.

The paper's r-tolerance promise (§II, Definition 1) is phrased in terms of
*link* connectivity: ``s`` and ``t`` are r-connected if there are ``r``
pairwise link-disjoint paths between them.  This module implements
unit-capacity max-flow (BFS augmentation, i.e. Edmonds–Karp specialized to
0/1 capacities) from scratch so the library does not depend on networkx
flow internals; tests cross-check against networkx.  :func:`unit_max_flow`
is the one augment loop: the link-disjoint paths and connectivities here
and the arborescence packing's arc connectivities
(:mod:`repro.graphs.arborescences`) all run it.
"""

from __future__ import annotations

from collections import deque

import networkx as nx

from .edges import FailureSet, Node, edge


def surviving_graph(graph: nx.Graph, failures: FailureSet) -> nx.Graph:
    """``G \\ F``: the graph with the failed links removed."""
    out = graph.copy()
    for u, v in failures:
        if out.has_edge(u, v):
            out.remove_edge(u, v)
    return out


def are_connected(graph: nx.Graph, s: Node, t: Node, failures: FailureSet = frozenset()) -> bool:
    """Is ``t`` reachable from ``s`` in ``G \\ F``?"""
    return s == t or t in component_of(graph, s, failures)


def component_of(graph: nx.Graph, start: Node, failures: FailureSet = frozenset()) -> frozenset[Node]:
    """The node set of ``start``'s connected component in ``G \\ F``."""
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor in seen or edge(node, neighbor) in failures:
                continue
            seen.add(neighbor)
            queue.append(neighbor)
    return frozenset(seen)


Arc = tuple[Node, Node]


def unit_max_flow(
    residual: dict[Node, dict[Node, int]], s: Node, t: Node, stop_at: int | None = None
) -> list[list[Arc]]:
    """Augment a unit flow ``s -> t`` along shortest residual paths.

    ``residual`` maps every node to its out-arcs' capacities (each ``>=
    1``) and is consumed: each augmenting path moves one unit of
    capacity from its arcs to their reverses.  Stops when no path is
    left, or after ``stop_at`` paths.  Returns the augmenting paths in
    order, each as its arcs from ``t`` back to ``s``; their number is
    the flow.
    """
    paths: list[list[Arc]] = []
    while stop_at is None or len(paths) < stop_at:
        parent: dict[Node, Node] = {s: s}
        queue = deque([s])
        while queue and t not in parent:
            node = queue.popleft()
            for neighbor in residual[node]:
                if neighbor not in parent:
                    parent[neighbor] = node
                    queue.append(neighbor)
        if t not in parent:
            break
        path = []
        node = t
        while node != s:
            prev = parent[node]
            residual[prev][node] -= 1
            if residual[prev][node] == 0:
                del residual[prev][node]
            residual[node][prev] = residual[node].get(prev, 0) + 1
            path.append((prev, node))
            node = prev
        paths.append(path)
    return paths


def _residual(graph: nx.Graph, failures: FailureSet) -> dict[Node, dict[Node, int]]:
    """``G \\ F`` bidirected, one unit of capacity per direction."""
    residual: dict[Node, dict[Node, int]] = {v: {} for v in graph.nodes}
    for u, v in graph.edges:
        if edge(u, v) not in failures:
            residual[u][v] = 1
            residual[v][u] = 1
    return residual


def st_edge_connectivity(
    graph: nx.Graph,
    s: Node,
    t: Node,
    failures: FailureSet = frozenset(),
    stop_at: int | None = None,
) -> int:
    """λ(s, t) in ``G \\ F``: the number of link-disjoint s–t paths.

    Implemented as unit-capacity max flow on the bidirected graph.  If
    ``stop_at`` is given, stops as soon as that many augmenting paths were
    found (enough to decide the r-tolerance promise cheaply).
    """
    if s == t:
        raise ValueError("s and t must differ")
    return len(unit_max_flow(_residual(graph, failures), s, t, stop_at))


def link_disjoint_paths(
    graph: nx.Graph, s: Node, t: Node, failures: FailureSet = frozenset()
) -> list[list[Node]]:
    """A maximum collection of link-disjoint s–t paths in ``G \\ F``.

    Runs max flow, then decomposes the flow into paths.
    """
    if s == t:
        raise ValueError("s and t must differ")
    used_arcs: set[Arc] = set()
    for path in unit_max_flow(_residual(graph, failures), s, t):
        for prev, node in path:
            if (node, prev) in used_arcs:
                used_arcs.remove((node, prev))  # the flow cancels on this link
            else:
                used_arcs.add((prev, node))
    return _decompose_paths(used_arcs, s, t)


def _decompose_paths(arcs: set[Arc], s: Node, t: Node) -> list[list[Node]]:
    outgoing: dict[Node, list[Node]] = {}
    for u, v in arcs:
        outgoing.setdefault(u, []).append(v)
    paths = []
    while outgoing.get(s):
        path = [s]
        node = s
        while node != t:
            nxt = outgoing[node].pop()
            path.append(nxt)
            node = nxt
        paths.append(path)
    return paths


def global_edge_connectivity(graph: nx.Graph) -> int:
    """λ(G): min over ``t`` of λ(s, t) for a fixed ``s`` (standard trick)."""
    nodes = list(graph.nodes)
    if len(nodes) < 2:
        return 0
    if not nx.is_connected(graph):
        return 0
    s = nodes[0]
    return min(st_edge_connectivity(graph, s, t) for t in nodes[1:])


def preserves_r_connectivity(
    graph: nx.Graph, s: Node, t: Node, failures: FailureSet, r: int
) -> bool:
    """Does the r-tolerance promise hold: λ(s, t) >= r in ``G \\ F``?"""
    return st_edge_connectivity(graph, s, t, failures, stop_at=r) >= r
