"""Deterministic forwarding simulation.

Forwarding patterns are static and deterministic, so the trajectory of a
packet under a fixed failure set is fully determined by the pair
``(current node, in-port)``.  Revisiting such a state therefore proves a
permanent forwarding loop — the simulator needs no step bound to decide
between delivery and looping.

Outcomes:

* ``DELIVERED`` — the packet reached the destination;
* ``LOOP`` — a ``(node, in-port)`` state repeated: permanent loop;
* ``DROPPED`` — the pattern returned no out-port;
* ``ILLEGAL`` — the pattern forwarded over a failed or non-existent link
  (a bug in the pattern, never silently tolerated).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import networkx as nx

from ..graphs.connectivity import component_of
from ..graphs.edges import FailureSet, Node, edge, sorted_adjacency
from .model import ForwardingPattern, LocalView


class Outcome(Enum):
    DELIVERED = "delivered"
    LOOP = "loop"
    DROPPED = "dropped"
    ILLEGAL = "illegal"


@dataclass
class RouteResult:
    """Trace of one routed packet."""

    outcome: Outcome
    path: list[Node]
    steps: int

    @property
    def delivered(self) -> bool:
        return self.outcome is Outcome.DELIVERED


@dataclass
class TourResult:
    """Trace of one touring packet (it never stops; we walk to the cycle)."""

    visited: frozenset[Node]
    recurrent: frozenset[Node]
    failed: Outcome | None = None
    path: list[Node] = field(default_factory=list)

    def tours(self, component: frozenset[Node]) -> bool:
        """Does the packet visit the whole component forever?"""
        return self.failed is None and self.recurrent >= component


class Network:
    """A graph prepared for fast repeated simulation.

    Precomputes the :func:`~repro.graphs.edges.sorted_adjacency`;
    building one per (graph) and reusing it across failure sets is the
    hot path of the resilience checkers.
    """

    def __init__(self, graph: nx.Graph):
        self.graph = graph
        self.adjacency = sorted_adjacency(graph)

    def view(self, node: Node, inport: Node | None, failures: FailureSet) -> LocalView:
        local = frozenset(e for e in failures if node in e)
        if local:
            alive = tuple(
                neighbor for neighbor in self.adjacency[node] if edge(node, neighbor) not in local
            )
        else:
            alive = self.adjacency[node]
        return LocalView(node=node, inport=inport, alive=alive, failed_links=local)


def route(
    network: Network | nx.Graph,
    pattern: ForwardingPattern,
    source: Node,
    destination: Node,
    failures: FailureSet = frozenset(),
    max_steps: int | None = None,
) -> RouteResult:
    """Walk one packet from ``source`` to ``destination`` under ``failures``."""
    if isinstance(network, nx.Graph):
        network = Network(network)
    if source == destination:
        return RouteResult(Outcome.DELIVERED, [source], 0)
    current: Node = source
    inport: Node | None = None
    path = [source]
    seen: set[tuple[Node, Node | None]] = {(source, None)}
    steps = 0
    limit = max_steps if max_steps is not None else _state_bound(network)
    while steps < limit:
        view = network.view(current, inport, failures)
        nxt = pattern.forward(view)
        if nxt is None:
            return RouteResult(Outcome.DROPPED, path, steps)
        if nxt not in view.alive_set:
            return RouteResult(Outcome.ILLEGAL, path, steps)
        steps += 1
        path.append(nxt)
        if nxt == destination:
            return RouteResult(Outcome.DELIVERED, path, steps)
        current, inport = nxt, current
        state = (current, inport)
        if state in seen:
            return RouteResult(Outcome.LOOP, path, steps)
        seen.add(state)
    return RouteResult(Outcome.LOOP, path, steps)


def tour(
    network: Network | nx.Graph,
    pattern: ForwardingPattern,
    start: Node,
    failures: FailureSet = frozenset(),
) -> TourResult:
    """Walk one touring packet until its state cycle is identified.

    The walk is deterministic, so it consists of a transient prefix and a
    recurrent cycle of ``(node, in-port)`` states; ``recurrent`` holds the
    nodes visited by that cycle (the nodes toured forever).
    """
    if isinstance(network, nx.Graph):
        network = Network(network)
    current: Node = start
    inport: Node | None = None
    order: list[tuple[Node, Node | None]] = [(start, None)]
    index: dict[tuple[Node, Node | None], int] = {(start, None): 0}
    limit = _state_bound(network)
    for _ in range(limit + 1):
        view = network.view(current, inport, failures)
        nxt = pattern.forward(view)
        if nxt is None:
            return TourResult(
                visited=frozenset(node for node, _ in order),
                recurrent=frozenset(),
                failed=Outcome.DROPPED,
                path=[node for node, _ in order],
            )
        if nxt not in view.alive_set:
            return TourResult(
                visited=frozenset(node for node, _ in order),
                recurrent=frozenset(),
                failed=Outcome.ILLEGAL,
                path=[node for node, _ in order],
            )
        current, inport = nxt, current
        state = (current, inport)
        if state in index:
            cycle = order[index[state] :]
            return TourResult(
                visited=frozenset(node for node, _ in order),
                recurrent=frozenset(node for node, _ in cycle),
                failed=None,
                path=[node for node, _ in order],
            )
        index[state] = len(order)
        order.append(state)
    raise AssertionError("state bound exceeded without repeating a state")  # pragma: no cover


def tours_component(
    network: Network | nx.Graph,
    pattern: ForwardingPattern,
    start: Node,
    failures: FailureSet = frozenset(),
) -> bool:
    """Does the touring walk from ``start`` perpetually cover its component?"""
    graph = network.graph if isinstance(network, Network) else network
    component = component_of(graph, start, failures)
    if len(component) == 1:
        return True
    return tour(network, pattern, start, failures).tours(component)


def _state_bound(network: Network) -> int:
    # (node, inport) states: one per directed link plus one ⊥ state per node.
    return 2 * network.graph.number_of_edges() + network.graph.number_of_nodes() + 1
