"""The Theorem 1 adversary: r-tolerance is impossible on ``K_{3+5r}``.

Given *any* source-destination pattern on the complete graph with
``3 + 5r`` nodes, the adversary constructs a failure set under which the
source and destination remain r-connected yet the packet never arrives.
It follows the proof's three-step, per-gadget strategy, adaptively
*querying* the pattern's forwarding behaviour under hypothetical local
failure sets (the pattern is static, so the adversary can evaluate it
offline before choosing the failures):

1. hunt for a triple ``a-b-c`` inside the 5-node gadget where ``b`` with
   alive links only to ``a`` and ``c`` refuses to pass the packet through
   — then keep exactly the path ``s-a-b-c-t`` alive in the gadget;
2. otherwise inspect the *orbit* of the gadget hub ``v2`` (alive links to
   ``v1`` and the three far nodes): if the orbit from ``v1`` misses a far
   node, hide the destination behind it; if it covers the far nodes but
   never returns to ``v1``, destroy the gadget's path — the packet is
   trapped among the far nodes (the spare node restores connectivity);
3. otherwise the orbit is a full cyclic permutation ``v1 -> A -> B -> C``:
   keep ``(A, C)`` and ``(B, t)`` alive — step 1 guarantees ``A`` and
   ``C`` relay each other, so the walk cycles ``v2-A-C-v2-v1`` and never
   reaches the surviving path through ``B``.

The spare node restores the connectivity lost by trapping gadgets.  The
proof places the spare "last in the visiting order of s" w.l.o.g.; the
implementation achieves the same by trying every rotation of the role
assignment and both spare configurations, *verifying* each candidate and
falling back to randomized search (never needed in the experiments, but
it keeps the function total).

Deviation from the paper: the proof's step-3 text keeps "(v2, v5)" alive;
consistent with its own packet trace ``s-v1-v2-v3-v5-v2`` this must be
"(v3, v5)" (the chord between the first and last far node), which is what
we implement.
"""

from __future__ import annotations

import networkx as nx

from ...graphs.edges import FailureSet, Node, edge
from ..engine.memo import MemoizedPattern
from ..engine.sweep import EngineState
from ..model import ForwardingPattern, SourceDestinationAlgorithm
from .search import AttackResult, _verify_fast, make_view, random_attack


def gadget_count(graph: nx.Graph) -> int:
    """How many 5-node gadgets fit: r for ``K_{3+5r}``."""
    return (graph.number_of_nodes() - 3) // 5


def attack_r_tolerance(
    graph: nx.Graph,
    algorithm: SourceDestinationAlgorithm,
    source: Node,
    destination: Node,
    r: int | None = None,
) -> AttackResult | None:
    """Break the pattern while keeping s and t r-connected (Theorem 1).

    ``graph`` should be (a supergraph of) ``K_{3+5r}``; ``r`` defaults to
    the number of gadgets that fit.  Returns a verified witness.
    """
    if r is None:
        r = gadget_count(graph)
    if r < 1:
        raise ValueError("graph too small for any gadget (need 3 + 5r nodes)")
    pattern = algorithm.build(graph, source, destination)
    others = sorted((v for v in graph.nodes if v not in (source, destination)), key=repr)
    if len(others) < 5 * r + 1:
        raise ValueError(f"need {5 * r + 1} non-terminal nodes, have {len(others)}")

    all_links = {edge(u, v) for u, v in graph.edges}
    # one state and decision table across all candidate verifications
    state = EngineState(graph)
    memo = MemoizedPattern(state.network, pattern)
    for shift in range(len(others)):
        rotated = others[shift:] + others[:shift]
        gadgets = [rotated[5 * i : 5 * i + 5] for i in range(r)]
        spare = rotated[5 * r]
        alive: set = set()
        any_trap = False
        for gadget in gadgets:
            gadget_alive, trapped = _build_gadget(graph, pattern, source, destination, gadget)
            alive.update(gadget_alive)
            any_trap = any_trap or trapped
        spare_links = {edge(source, spare), edge(spare, destination)}
        candidates = [alive | spare_links, set(alive)] if any_trap else [set(alive), alive | spare_links]
        for candidate_alive in candidates:
            failures: FailureSet = frozenset(all_links - candidate_alive)
            if _verify_fast(state, memo, source, destination, failures, r):
                return AttackResult(failures, method="theorem-1 construction")
    return random_attack(
        graph, pattern, source, destination, min_connectivity=r, attempts=20_000
    )


def _build_gadget(
    graph: nx.Graph,
    pattern: ForwardingPattern,
    source: Node,
    destination: Node,
    gadget: list[Node],
) -> tuple[set, bool]:
    """Alive links for one gadget and whether it traps the packet.

    A trapping gadget contributes no s-t path (the spare node compensates);
    all other cases leave exactly one alive path that the walk never uses.
    """
    # Step 1: a blocking middle node.
    for b in gadget:
        for a in gadget:
            if a == b:
                continue
            for c in gadget:
                if c in (a, b):
                    continue
                view = make_view(graph, b, inport=a, alive=[a, c])
                if pattern.forward(view) != c:
                    return (
                        {edge(source, a), edge(a, b), edge(b, c), edge(c, destination)},
                        False,
                    )
    # Steps 2/3: orbit of the hub v2 with alive {v1, far1, far2, far3}.
    v1, v2 = gadget[0], gadget[1]
    far = gadget[2:]
    hub_alive = [v1] + far
    outputs = _orbit_outputs(graph, pattern, v2, start=v1, alive=hub_alive)
    base = {edge(source, v1), edge(v1, v2)}
    base.update(edge(v2, node) for node in far)
    missing_far = [node for node in far if node not in outputs]
    if missing_far:
        # Step 2a: hide the destination behind a far node the hub never uses.
        return base | {edge(missing_far[0], destination)}, False
    if v1 not in outputs:
        # Step 2b: the hub cycles among the far nodes and never lets the
        # packet out again: trap it, destroying the gadget's path.
        return base, True
    # Step 3: full cyclic permutation v1 -> A -> B -> C -> v1.
    sequence = outputs[: outputs.index(v1)]
    a, b, c = sequence[0], sequence[1], sequence[2]
    return base | {edge(a, c), edge(b, destination)}, False


def _orbit_outputs(
    graph: nx.Graph, pattern: ForwardingPattern, node: Node, start: Node, alive: list[Node]
) -> list[Node]:
    """Iterate the node's forwarding function: in-port -> out-port -> ...

    Returns the sequence of out-ports produced from in-port ``start``
    until the first repetition (or a non-neighbour/None output).  For a
    cyclic permutation over all alive neighbours this is
    ``[A, B, C, start]``.
    """
    outputs: list[Node] = []
    current = start
    for _ in range(len(alive) + 1):
        out = pattern.forward(make_view(graph, node, inport=current, alive=alive))
        if out is None or out not in alive or out in outputs:
            break
        outputs.append(out)
        current = out
    return outputs
