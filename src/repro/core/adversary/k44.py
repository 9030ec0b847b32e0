"""The K4,4 adversary (Theorem 7, Lemma 6, Corollary 4).

Breaks any source-destination pattern on ``K4,4`` (and ``K4,4^-1``) with
at most 11 failures while keeping s and t connected.  The proof's final
configuration leaves alive exactly the links of the walk

    s - b - v1 - a - v2 - d - v1 - a - v3 - t

(8 of the 16 links): the hub nodes ``a`` and ``v1`` route in cyclic
permutations, so the packet gets caught in the loop ``a-v2-d-v1-a`` while
the path ``s-b-v1-a-v3-t`` survives.  As in the K7 case, the adversary is
adaptive where the proof says "w.l.o.g.": it enumerates the role
assignments (which is exactly what the proof's relabelling arguments do),
verifies each candidate, and falls back to randomized search.

Via ``part_*``/``base_failures`` the same construction runs on a ``K4,4``
embedded in a larger complete bipartite graph (Theorem 15).
"""

from __future__ import annotations

from itertools import permutations

import networkx as nx

from ...graphs.construct import bipartition
from ...graphs.edges import FailureSet, Node, edge
from ..engine.memo import MemoizedPattern
from ..engine.sweep import EngineState
from ..model import ForwardingPattern, SourceDestinationAlgorithm
from .search import AttackResult, _verify_fast, random_attack

#: Corollary 4: 11 failures suffice on K4,4.
K44_FAILURE_BUDGET = 11


def attack_k44(
    graph: nx.Graph,
    algorithm: SourceDestinationAlgorithm,
    source: Node,
    destination: Node,
) -> AttackResult | None:
    """Theorem 7 / Corollary 4 witness on (a graph containing) ``K4,4``.

    ``source`` and ``destination`` must lie in different parts (the
    Lemma 6 setup).
    """
    left, right = bipartition(graph)
    if (source in left) == (destination in left):
        raise ValueError("Lemma 6 places source and destination in different parts")
    t_side = sorted((v for v in (left if destination in left else right) if v != destination), key=repr)[:3]
    s_side = sorted((v for v in (left if source in left else right) if v != source), key=repr)[:3]
    pattern = algorithm.build(graph, source, destination)
    return attack_embedded_k44(graph, pattern, source, destination, t_side, s_side)


def attack_embedded_k44(
    graph: nx.Graph,
    pattern: ForwardingPattern,
    source: Node,
    destination: Node,
    t_side: list[Node],
    s_side: list[Node],
    base_failures: FailureSet = frozenset(),
) -> AttackResult | None:
    """Attack the K4,4 spanned by the given role candidates.

    ``t_side`` holds the three non-destination nodes of the destination's
    part (the roles ``a, b, d``); ``s_side`` the three non-source nodes of
    the source's part (the roles ``v1, v2, v3``).
    """
    if len(t_side) != 3 or len(s_side) != 3:
        raise ValueError("need three role candidates on each side")
    real = {source, destination, *t_side, *s_side}
    inner_links = {edge(u, v) for u, v in graph.edges if u in real and v in real}
    # one state and decision table across all candidate verifications
    state = EngineState(graph)
    memo = MemoizedPattern(state.network, pattern)
    for a, b, d in permutations(t_side):
        for v1, v2, v3 in permutations(s_side):
            alive = {
                edge(source, b),
                edge(b, v1),
                edge(v1, a),
                edge(a, v2),
                edge(v2, d),
                edge(d, v1),
                edge(a, v3),
                edge(v3, destination),
            }
            failures = frozenset((inner_links - alive) | base_failures)
            if _verify_fast(state, memo, source, destination, failures, 1):
                return AttackResult(failures, method="theorem-7 construction")
    if base_failures:
        return None
    return random_attack(
        graph, pattern, source, destination, max_failures=K44_FAILURE_BUDGET, attempts=50_000
    )
