"""Touring adversaries (§VII: Lemmas 1, 3, 4 and Theorem 16).

* :func:`attack_touring` — exhaustively find a (start, failure set) pair
  on which a touring pattern fails to cover its component (used on the
  forbidden minors ``K4`` and ``K2,3``, whose link counts make exhaustive
  enumeration trivial).

* :func:`cyclic_permutation_violation` — Lemma 1's structural necessity:
  a perfectly resilient touring pattern must route a *cyclic permutation*
  of all alive neighbours at every node under every local failure set.
  The function returns a witnessing (node, local failure set) where a
  given pattern violates this, together with the global failure set the
  Lemma's proof uses to punish the violation (fail everything not
  incident to the node).
"""

from __future__ import annotations

import networkx as nx

from ...graphs.edges import FailureSet, Node, edge, iter_subsets
from ..model import ForwardingPattern, TouringAlgorithm
from ..resilience import all_failure_sets
from ..simulator import Network, tours_component
from .search import make_view


def attack_touring(
    graph: nx.Graph,
    algorithm: TouringAlgorithm,
    max_failures: int | None = None,
) -> tuple[Node, FailureSet] | None:
    """Exhaustively search for a failing (start, failure set) pair."""
    pattern = algorithm.build(graph)
    return attack_touring_pattern(graph, pattern, max_failures)


def attack_touring_pattern(
    graph: nx.Graph,
    pattern: ForwardingPattern,
    max_failures: int | None = None,
) -> tuple[Node, FailureSet] | None:
    network = Network(graph)
    try:
        starts = sorted(graph.nodes)
    except TypeError:
        starts = sorted(graph.nodes, key=repr)
    for failures in all_failure_sets(graph, max_failures):
        for start in starts:
            # tours_component answers a start alone in its component
            if not tours_component(network, pattern, start, failures):
                return start, failures
    return None


def cyclic_permutation_violation(
    graph: nx.Graph, pattern: ForwardingPattern
) -> tuple[Node, FailureSet] | None:
    """Lemma 1 witness: a node whose forwarding is not a cyclic permutation.

    For every node with at least two alive neighbours under some local
    failure set, iterating in-port -> out-port must produce one cycle
    through *all* alive neighbours.  Returns ``(node, global failure
    set)`` for the first violation: the failure set kills every link not
    incident to the node, so a tour starting at a neighbour must cross
    the node's permutation — and cannot, by the violation.
    """
    for node in graph.nodes:
        neighbors = sorted(graph.neighbors(node), key=repr)
        for alive in iter_subsets([(node, v) for v in neighbors]):
            alive_nodes = [v for _, v in sorted(alive, key=repr)]
            if len(alive_nodes) < 2:
                continue
            if not _is_cyclic(graph, pattern, node, alive_nodes):
                failures = frozenset(
                    edge(u, v)
                    for u, v in graph.edges
                    if node not in (u, v) or _other(u, v, node) not in alive_nodes
                )
                return node, failures
    return None


def _other(u: Node, v: Node, node: Node) -> Node:
    return v if u == node else u


def _is_cyclic(graph: nx.Graph, pattern: ForwardingPattern, node: Node, alive: list[Node]) -> bool:
    start = alive[0]
    seen = []
    current = start
    for _ in range(len(alive)):
        out = pattern.forward(make_view(graph, node, inport=current, alive=alive))
        if out is None or out not in alive or out in seen:
            return False
        seen.append(out)
        current = out
    return seen[-1] == start and set(seen) == set(alive)


def touring_impossibility_graphs() -> list[tuple[str, nx.Graph]]:
    """The two forbidden-minor gadgets of Theorem 16."""
    from ...graphs.construct import complete_bipartite, complete_graph

    return [("K4", complete_graph(4)), ("K2,3", complete_bipartite(2, 3))]
