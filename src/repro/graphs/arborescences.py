"""Arc-disjoint spanning in-arborescences (Edmonds packing).

The paper contrasts perfect resilience with Chiesa et al.'s *ideal
resilience* technique [40]-[42]: decompose a k-connected graph into k
arc-disjoint spanning arborescences rooted at the destination [43] and hop
between them on failures.  We implement the packing as a substrate so the
baseline router (``core.algorithms.arborescence_routing``) can be compared
against the paper's schemes.

An in-arborescence rooted at ``t`` is stored as a parent map
``{v: next hop toward t}``; its arcs are ``(v, parent[v])``.  Two
arborescences are arc-disjoint when they share no *directed* arc (they may
use the same undirected link in opposite directions).
"""

from __future__ import annotations

import random

import networkx as nx

from .connectivity import Arc, unit_max_flow
from .edges import Node, edge_sort_key
from .hamiltonian import hamiltonian_decomposition

ParentMap = dict[Node, Node]


def _arc_connectivity(arcs: set[Arc], nodes: list[Node], s: Node, t: Node, stop_at: int) -> int:
    """Unit-capacity max flow s -> t over a set of directed arcs."""
    residual: dict[Node, dict[Node, int]] = {v: {} for v in nodes}
    for u, v in arcs:
        residual[u][v] = 1
    return len(unit_max_flow(residual, s, t, stop_at))


def verify_arborescences(graph: nx.Graph, root: Node, trees: list[ParentMap]) -> bool:
    """Are the parent maps spanning, cycle-free, arc-disjoint, and on real links?"""
    used: set[Arc] = set()
    nodes = set(graph.nodes)
    for parent in trees:
        if set(parent) != nodes - {root}:
            return False
        for child, ancestor in parent.items():
            if not graph.has_edge(child, ancestor):
                return False
            arc = (child, ancestor)
            if arc in used:
                return False
            used.add(arc)
        for start in parent:
            node = start
            hops = 0
            while node != root:
                node = parent[node]
                hops += 1
                if hops > len(nodes):
                    return False
    return True


def _complete_graph_packing(graph: nx.Graph, root: Node) -> list[ParentMap]:
    """n-1 arc-disjoint in-arborescences of K_n (odd n) via Walecki cycles.

    Each Hamiltonian cycle yields two arc-disjoint spanning in-paths to the
    root (the two traversal directions), giving ``2 * (n-1)/2 = n - 1``
    arborescences in total.
    """
    cycles = hamiltonian_decomposition(graph)
    trees: list[ParentMap] = []
    for cycle in cycles:
        anchor = cycle.index(root)
        ordered = cycle[anchor:] + cycle[:anchor]
        forward: ParentMap = {}
        backward: ParentMap = {}
        for position in range(1, len(ordered)):
            backward[ordered[position]] = ordered[position - 1]
            forward[ordered[position - 1]] = ordered[position]
        del forward[root]
        # ``forward`` currently maps each node to its successor; the last
        # node must point back to the root to close the in-path.
        forward[ordered[-1]] = root
        trees.append(forward)
        trees.append(backward)
    return trees


def _backtracking_packing(
    nodes: list[Node], arcs: set[Arc], root: Node, k: int, rng: random.Random, budget: int = 200_000
) -> list[ParentMap] | None:
    """Backtracking packing with an exact connectivity prune.

    Grows one in-arborescence at a time.  Committing an arc ``(u -> v)``
    must leave every node enough arc-disjoint paths to the root in the
    unused arcs: one per tree still to build after the current one,
    ``r`` of them (Menger + Edmonds).  Every arc set the search reaches
    already gives every node ``r`` such paths (the caller checks ``k``
    at the start, and each commit keeps ``r``), so one unit max-flow
    from ``u`` decides the candidate exactly: removing ``(u -> v)``
    shrinks only the cuts that hold ``u`` and not ``v``, so any node
    that falls below ``r`` does so through a cut that shows ``u`` below
    ``r`` too.  On the last tree (``r = 0``) every candidate passes.
    The current tree stays completable without a check: a node whose
    path to the tree ran through ``(u -> v)`` still reaches ``u``, which
    the tree now holds.  Because the prune is exact, pruned branches
    are always dead; backtracking makes the search complete within
    ``budget`` search steps.

    The search keeps its own stack of frames, one per open choice, so
    its depth (``k * (n - 1)`` committed arcs) is not bounded by the
    interpreter's recursion limit.
    """
    steps = 0
    # a frame: [tree index, parent map, attached set, unused arcs,
    # finished trees, candidates left to try, tail committed last]
    frames: list[list] = []
    call: tuple | None = (0, {}, {root}, arcs, [])
    while True:
        if call is not None:
            # one search step: finish the tree, or open a frame over the
            # arcs that attach one more node to it
            steps += 1
            if steps > budget:
                return None
            index, parent, attached, arcs, done = call
            call = None
            if len(attached) == len(nodes):
                done = done + [dict(parent)]
                if index + 1 == k:
                    return done
                call = (index + 1, {}, {root}, arcs, done)
                continue
            # ``arcs`` is a set: sort before the seeded shuffle, or its
            # hash-dependent iteration order leaks PYTHONHASHSEED into
            # the packing (and every metric downstream of it)
            candidates = sorted(
                ((u, v) for (u, v) in arcs if v in attached and u not in attached),
                key=edge_sort_key,
            )
            rng.shuffle(candidates)
            frames.append([index, parent, attached, arcs, done, iter(candidates), None])
        if not frames:
            return None
        frame = frames[-1]
        index, parent, attached, arcs, done, candidates, committed = frame
        if committed is not None:
            del parent[committed]  # the step it led to was a dead end
        remaining = k - index - 1
        for u, v in candidates:
            trial = arcs - {(u, v)}
            if remaining and _arc_connectivity(trial, nodes, u, root, stop_at=remaining) < remaining:
                continue
            parent[u] = v
            frame[-1] = u
            call = (index, parent, attached | {u}, trial, done)
            break
        else:
            frames.pop()


def arc_disjoint_in_arborescences(
    graph: nx.Graph, root: Node, k: int | None = None, seed: int = 0, attempts: int = 8
) -> list[ParentMap]:
    """``k`` arc-disjoint spanning in-arborescences rooted at ``root``.

    One pass of unit max-flows, one from each node to the root, opens
    the packing.  Its minimum is the edge connectivity of the graph,
    the default ``k`` (the maximum possible by Edmonds' theorem on the
    bidirected graph).  An explicit ``k`` above it raises
    ``RuntimeError`` at once: each tree holds one path from every node,
    so such a packing cannot exist.  Uses the fast Walecki-based
    construction on odd complete graphs and the backtracking packing
    elsewhere, whose depth is not bounded by the recursion limit.  The
    result is always verified.  A ``root`` outside the graph raises
    ``ValueError``.
    """
    if root not in graph:
        raise ValueError(f"root {root!r} is not a node of the graph")
    nodes = list(graph.nodes)
    arcs = {arc for u, v in graph.edges for arc in ((u, v), (v, u))}
    connectivity = min(
        (_arc_connectivity(arcs, nodes, w, root, stop_at=graph.degree(w)) for w in nodes if w != root),
        default=0,
    )
    if k is None:
        k = connectivity
    if k < 1:
        raise ValueError("graph must be connected to pack arborescences")
    n = graph.number_of_nodes()
    trees = None
    if k == n - 1 and n % 2 == 1 and graph.number_of_edges() == n * (n - 1) // 2:
        trees = _complete_graph_packing(graph, root)
    elif k <= connectivity:
        for attempt in range(attempts):
            rng = random.Random(seed + attempt)
            trees = _backtracking_packing(nodes, arcs, root, k, rng)
            if trees is not None:
                break
    if trees is None:
        raise RuntimeError(f"could not pack {k} arborescences rooted at {root!r}")
    if not verify_arborescences(graph, root, trees):  # pragma: no cover
        raise AssertionError("internal error: invalid arborescence packing")
    return trees
