"""The K7 adversary (Theorem 6, Lemma 5, Corollary 3).

Breaks any source-destination pattern on ``K7`` (and ``K7^-1``) with at
most 15 link failures while keeping s and t connected.  The proof's final
failure set (Fig. 10) leaves exactly the links

    (s,v1), (v1,v2), (v2,v3), (v2,v4), (v2,v5), (v3,v5), (v4,t)

alive: the hub ``v2`` routes in a cyclic permutation, ``v3`` and ``v5``
relay each other, and the walk loops ``v2-v3-v5-v2-v1`` forever while the
path ``s-v1-v2-v4-t`` survives unused.  This is exactly the step-3 gadget
of the Theorem 1 adversary with (A, B, C) = (v3, v4, v5).

The implementation is adaptive where the proof is ("w.l.o.g."): it reads
the hub's actual cyclic behaviour off the pattern, falls back to the
blocking-triple and hidden-neighbour gadgets for non-cyclic patterns, then
to enumerating all role assignments of the Fig. 10 shape, and finally to
randomized search — every candidate is verified before being returned.

The same machinery runs on an embedded ``K7`` inside a larger complete
graph (Theorem 14): ``middles``/``base_failures`` restrict the
construction to the real nodes while the padding failures cut them off
from the virtual ones.
"""

from __future__ import annotations

from itertools import permutations

import networkx as nx

from ...graphs.edges import FailureSet, Node, edge
from ..engine.memo import MemoizedPattern
from ..engine.sweep import EngineState
from ..model import ForwardingPattern, SourceDestinationAlgorithm
from .search import AttackResult, _verify_fast, make_view, random_attack

#: Corollary 3: 15 failures suffice on K7.
K7_FAILURE_BUDGET = 15


def attack_k7(
    graph: nx.Graph,
    algorithm: SourceDestinationAlgorithm,
    source: Node,
    destination: Node,
) -> AttackResult | None:
    """Theorem 6 / Corollary 3 witness on (a graph containing) ``K7``."""
    pattern = algorithm.build(graph, source, destination)
    middles = sorted(
        (v for v in graph.nodes if v not in (source, destination)), key=repr
    )[:5]
    return attack_embedded_k7(graph, pattern, source, destination, middles)


def attack_embedded_k7(
    graph: nx.Graph,
    pattern: ForwardingPattern,
    source: Node,
    destination: Node,
    middles: list[Node],
    base_failures: FailureSet = frozenset(),
) -> AttackResult | None:
    """Attack the K7 spanned by ``{source, destination} ∪ middles``.

    ``base_failures`` (e.g. Theorem 14 padding) are added to every
    candidate; all links among the seven real nodes not kept alive are
    failed as well.
    """
    if len(middles) != 5:
        raise ValueError("the K7 gadget needs exactly five middle nodes")
    inner_links = _inner_links(graph, source, destination, middles)
    # one state and decision table across all candidate verifications
    state = EngineState(graph)
    memo = MemoizedPattern(state.network, pattern)

    def finish(alive: set) -> AttackResult | None:
        failures = frozenset((inner_links - alive) | base_failures)
        if _verify_fast(state, memo, source, destination, failures, 1):
            return AttackResult(failures, method="theorem-6 construction")
        return None

    # Adaptive gadget (blocking triple / hidden neighbour / cyclic hub),
    # trying each middle node as the entry point v1.
    for shift in range(5):
        rotated = middles[shift:] + middles[:shift]
        alive = _gadget_alive(graph, pattern, source, destination, rotated)
        if alive is not None:
            result = finish(alive)
            if result is not None:
                return result
    # All Fig. 10 role assignments.
    for roles in permutations(middles):
        v1, v2, v3, v4, v5 = roles
        alive = {
            edge(source, v1),
            edge(v1, v2),
            edge(v2, v3),
            edge(v2, v4),
            edge(v2, v5),
            edge(v3, v5),
            edge(v4, destination),
        }
        result = finish(alive)
        if result is not None:
            return result
    if base_failures:
        return None
    return random_attack(
        graph, pattern, source, destination, max_failures=K7_FAILURE_BUDGET, attempts=50_000
    )


def _inner_links(graph: nx.Graph, source: Node, destination: Node, middles: list[Node]) -> set:
    real = {source, destination, *middles}
    return {edge(u, v) for u, v in graph.edges if u in real and v in real}


def _gadget_alive(
    graph: nx.Graph,
    pattern: ForwardingPattern,
    source: Node,
    destination: Node,
    gadget: list[Node],
) -> set | None:
    """The Theorem-1-style adaptive gadget over the five middle nodes.

    Returns an alive-link set or ``None`` when the hub's orbit covers the
    far nodes but never returns to v1 (the trap case needs a spare node
    that K7 does not have; the Fig. 10 enumeration takes over).
    """
    for b in gadget:
        for a in gadget:
            if a == b:
                continue
            for c in gadget:
                if c in (a, b):
                    continue
                view = make_view(graph, b, inport=a, alive=[a, c])
                if pattern.forward(view) != c:
                    # The packet is stuck in {s, a, b}; everything behind
                    # the blockade may stay alive, keeping |F| <= 15
                    # (Corollary 3's budget).
                    rest = [node for node in gadget if node not in (a, b)] + [destination]
                    alive = {edge(source, a), edge(a, b), edge(b, c)}
                    alive.update(
                        edge(u, v)
                        for i, u in enumerate(rest)
                        for v in rest[i + 1 :]
                        if graph.has_edge(u, v)
                    )
                    return alive
    v1, v2 = gadget[0], gadget[1]
    far = gadget[2:]
    hub_alive = [v1] + far
    outputs: list[Node] = []
    current = v1
    for _ in range(len(hub_alive) + 1):
        out = pattern.forward(make_view(graph, v2, inport=current, alive=hub_alive))
        if out is None or out not in hub_alive or out in outputs:
            break
        outputs.append(out)
        current = out
    base = {edge(source, v1), edge(v1, v2)}
    base.update(edge(v2, node) for node in far)
    missing_far = [node for node in far if node not in outputs]
    if missing_far:
        return base | {edge(missing_far[0], destination)}
    if v1 not in outputs:
        return None
    sequence = outputs[: outputs.index(v1)]
    a, b, c = sequence[0], sequence[1], sequence[2]
    return base | {edge(a, c), edge(b, destination)}
