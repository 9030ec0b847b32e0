"""Generic adversarial failure-set search.

The impossibility theorems quantify over all patterns; their constructive
adversaries (``rtolerance``, ``k7``, ``k44``) follow the proofs, but every
adversary in this package *verifies* its candidate failure set by
simulation and can fall back to the searches here, so a returned witness
is always genuine: the promise holds and the routing fails.

The searches run on the fast engine: one :class:`EngineState` per
search, one memoized decision table per pattern, mask-cached
connectivity — so greedy minimization and exhaustive enumeration pay
for network construction once instead of once per candidate.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import networkx as nx

from ...graphs.connectivity import are_connected, st_edge_connectivity
from ...graphs.edges import FailureSet, Node, canonical_links, edge, sorted_links
from ..engine.memo import MemoizedPattern
from ..engine.sweep import EngineState
from ..model import ForwardingPattern, LocalView
from ..resilience import all_failure_sets
from ..simulator import Network, route

Promise = Callable[[FailureSet], bool]


@dataclass
class AttackResult:
    """A verified adversarial witness."""

    failures: FailureSet
    method: str

    @property
    def size(self) -> int:
        return len(self.failures)


def make_view(graph: nx.Graph, node: Node, inport: Node | None, alive: Iterable[Node]) -> LocalView:
    """A hypothetical local view: ``alive`` neighbours survive, the rest failed.

    The adaptive adversaries use this to *query* a pattern's behaviour
    under candidate local failure sets before committing to them.  It
    is the view the simulator builds, alive ports in its order.
    """
    alive_set = set(alive)
    failed = frozenset(
        edge(node, neighbor) for neighbor in graph.neighbors(node) if neighbor not in alive_set
    )
    return Network(graph).view(node, inport, failed)


def verify_attack(
    graph: nx.Graph,
    pattern: ForwardingPattern,
    source: Node,
    destination: Node,
    failures: FailureSet,
    min_connectivity: int = 1,
    network: Network | None = None,
) -> bool:
    """Does the witness hold: promise satisfied but the packet not delivered?

    The naive reference verifier: pass a prebuilt ``network`` when
    verifying several candidates on the same graph.  The adversaries'
    own candidate loops use :func:`_verify_fast` instead, with one
    engine state and one decision table per attack.
    """
    if min_connectivity <= 1:
        if not are_connected(graph, source, destination, failures):
            return False
    elif (
        st_edge_connectivity(graph, source, destination, failures, stop_at=min_connectivity)
        < min_connectivity
    ):
        return False
    result = route(network if network is not None else Network(graph), pattern,
                   source, destination, failures)
    return not result.delivered


def _verify_fast(
    state: EngineState,
    memo: MemoizedPattern,
    source: Node,
    destination: Node,
    failures: FailureSet,
    min_connectivity: int,
) -> bool:
    """Engine verifier: one state and decision table across all candidates."""
    if min_connectivity <= 1:
        if not state.connected(source, destination, failures):
            return False
    elif (
        st_edge_connectivity(state.graph, source, destination, failures, stop_at=min_connectivity)
        < min_connectivity
    ):
        return False
    return not state.route(memo, source, destination, failures).delivered


def exhaustive_attack(
    graph: nx.Graph,
    pattern: ForwardingPattern,
    source: Node,
    destination: Node,
    max_failures: int | None = None,
    min_connectivity: int = 1,
) -> AttackResult | None:
    """Smallest breaking failure set by exhaustive enumeration (small graphs)."""
    state = EngineState(graph)
    memo = MemoizedPattern(state.network, pattern)
    for failures in all_failure_sets(graph, max_failures):
        if _verify_fast(state, memo, source, destination, failures, min_connectivity):
            return AttackResult(failures, method="exhaustive")
    return None


def random_attack(
    graph: nx.Graph,
    pattern: ForwardingPattern,
    source: Node,
    destination: Node,
    max_failures: int | None = None,
    min_connectivity: int = 1,
    attempts: int = 5_000,
    seed: int = 0,
) -> AttackResult | None:
    """Randomized search for a breaking failure set, then greedy minimization."""
    rng = random.Random(seed)
    links = canonical_links(graph)
    limit = len(links) if max_failures is None else min(max_failures, len(links))
    state = EngineState(graph)
    memo = MemoizedPattern(state.network, pattern)
    for _ in range(attempts):
        size = rng.randint(1, limit)
        failures = frozenset(rng.sample(links, size))
        if not _verify_fast(state, memo, source, destination, failures, min_connectivity):
            continue
        failures = _minimize(
            state, memo, source, destination, failures, min_connectivity
        )
        return AttackResult(failures, method="random")
    return None


def _minimize(
    state: EngineState,
    memo: MemoizedPattern,
    source: Node,
    destination: Node,
    failures: FailureSet,
    min_connectivity: int,
) -> FailureSet:
    """Drop failures one by one while the witness still holds."""
    current = set(failures)
    for link in sorted_links(failures):
        candidate = frozenset(current - {link})
        if _verify_fast(state, memo, source, destination, candidate, min_connectivity):
            current.discard(link)
    return frozenset(current)
