"""Combinatorial embeddings and rotation systems.

The right-hand-rule touring of outerplanar graphs (Foerster et al. [2,
§6.2], used by the paper's Corollaries 5 and 6) needs, per node, a cyclic
order of neighbours ("rotation system") coming from an embedding in which
*every node lies on the outer face*.  This module builds such rotation
systems via the standard apex augmentation: ``G`` is outerplanar iff
``G + universal vertex`` is planar, and the position of the apex in each
node's rotation marks the outer face.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from .edges import Node

_APEX = ("__outerplanar_apex__",)


class NotOuterplanarError(ValueError):
    """Raised when an outerplanar embedding is requested for a graph without one."""


@dataclass(frozen=True)
class RotationSystem:
    """Per-node cyclic neighbour orders of an outerplanar embedding.

    ``rotation[v]`` lists the neighbours of ``v`` in clockwise order,
    *starting with the neighbour that follows the outer face* — i.e. the
    half-edge ``v -> rotation[v][0]`` borders the outer face.  The
    right-hand rule walks this order:

    * a packet originating at ``v`` leaves via the first alive entry of
      ``rotation[v]``;
    * a packet arriving from ``u`` leaves via the first alive entry
      strictly after ``u`` (cyclically).

    Because failures only ever *merge* faces into the outer face of the
    induced embedding, this static local rule keeps walking the outer face
    of ``G \\ F``, which in an outerplanar graph contains every node of the
    component — the crux of touring under perfect resilience (Cor 6).
    """

    rotation: dict[Node, tuple[Node, ...]]

    def first(self, node: Node, alive: set[Node]) -> Node | None:
        """First alive neighbour in ``node``'s rotation (start-of-walk rule)."""
        for neighbor in self.rotation[node]:
            if neighbor in alive:
                return neighbor
        return None

    def successor(self, node: Node, inport: Node, alive: set[Node]) -> Node | None:
        """Next alive neighbour after ``inport`` in cyclic order.

        Falls back to ``inport`` itself (bounce) when it is the only alive
        neighbour; returns ``None`` when the node is isolated.
        """
        order = self.rotation[node]
        if inport not in order:
            raise ValueError(f"{inport!r} is not a neighbour of {node!r}")
        start = order.index(inport)
        size = len(order)
        for offset in range(1, size + 1):
            candidate = order[(start + offset) % size]
            if candidate in alive:
                return candidate
        return None


def outerplanar_rotation(graph: nx.Graph) -> RotationSystem:
    """Rotation system of an outerplanar embedding of ``graph``.

    Raises :class:`NotOuterplanarError` when the graph is not outerplanar.
    Disconnected graphs are embedded per component.
    """
    rotation: dict[Node, tuple[Node, ...]] = {}
    for component in nx.connected_components(graph):
        sub = graph.subgraph(component)
        rotation.update(_component_rotation(sub))
    for node in graph.nodes:
        rotation.setdefault(node, ())
    return RotationSystem(rotation)


def _component_rotation(graph: nx.Graph) -> dict[Node, tuple[Node, ...]]:
    if len(graph) == 1:
        return {next(iter(graph.nodes)): ()}
    augmented = nx.Graph(graph)
    augmented.add_node(_APEX)
    for node in graph.nodes:
        augmented.add_edge(_APEX, node)
    is_planar, embedding = nx.check_planarity(augmented)
    if not is_planar:
        raise NotOuterplanarError("graph is not outerplanar (apex augmentation non-planar)")
    rotation: dict[Node, tuple[Node, ...]] = {}
    for node in graph.nodes:
        order = list(embedding.neighbors_cw_order(node))
        anchor = order.index(_APEX)
        rotated = order[anchor + 1 :] + order[:anchor]
        rotation[node] = tuple(neighbor for neighbor in rotated if neighbor != _APEX)
    return rotation


def outer_face_walk(graph: nx.Graph, rotation: RotationSystem, start: Node) -> list[Node]:
    """The node sequence of one full outer-face traversal from ``start``.

    Diagnostic helper (used by tests to confirm the outer face covers every
    node of an outerplanar component).
    """
    alive = {node: set(graph.neighbors(node)) for node in graph.nodes}
    first = rotation.first(start, alive[start])
    if first is None:
        return [start]
    walk = [start]
    previous, current = start, first
    for _ in range(4 * graph.number_of_edges() + 4):
        walk.append(current)
        nxt = rotation.successor(current, previous, alive[current])
        if nxt is None:
            break
        previous, current = current, nxt
        if (previous, current) == (start, first) and len(walk) > 1:
            break
    return walk
