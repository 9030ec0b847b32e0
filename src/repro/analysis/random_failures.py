"""Resilience under *random* link failures (§IX future work).

The paper closes with: "it would be interesting to chart a similar
landscape for the practically relevant scenarios in which link failures
are random."  This module takes the first empirical step: for a given
algorithm and topology it estimates, per failure-set size, the
probability that a packet still reaches its destination *conditioned on
the promise* (source and destination connected, as in §II).

The resulting curves separate the schemes sharply: perfectly resilient
patterns sit at 1.0 by definition; the Chiesa-style baseline decays once
failures exceed its arborescence budget; naive patterns decay immediately.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import networkx as nx

from ..core.model import DestinationAlgorithm, SourceDestinationAlgorithm
from ..graphs.edges import canonical_links


@dataclass
class DeliveryCurve:
    """Empirical delivery probability per failure count."""

    algorithm: str
    graph: str
    sizes: list[int]
    probabilities: list[float]
    samples_per_size: int

    def at(self, size: int) -> float:
        return self.probabilities[self.sizes.index(size)]


def delivery_curve(
    graph: nx.Graph,
    algorithm: SourceDestinationAlgorithm | DestinationAlgorithm,
    source,
    destination,
    sizes: list[int] | None = None,
    samples: int = 200,
    seed: int = 0,
    graph_name: str = "",
    session=None,
) -> DeliveryCurve:
    """Estimate P[delivered | s, t connected] per random failure count.

    A naive session walks every scenario with the reference simulator
    and gives the same curve.
    """
    from ..experiments.session import resolve_session

    if sizes is None:
        sizes = list(range(graph.number_of_edges()))
    links = canonical_links(graph)
    # session-owned engine state, shared across every size and sample:
    # mask-cached connectivity plus one memoized table for the pattern
    state = resolve_session(session).state(graph)
    memo = state.pattern_for(algorithm, source, destination)
    rng = random.Random(seed)
    probabilities = []
    for size in sizes:
        delivered = 0
        valid = 0
        guard = 0
        while valid < samples and guard < 50 * samples:
            guard += 1
            failures = frozenset(rng.sample(links, min(size, len(links))))
            if not state.connected(source, destination, failures):
                continue
            valid += 1
            if state.route(memo, source, destination, failures).delivered:
                delivered += 1
        probabilities.append(delivered / valid if valid else float("nan"))
    return DeliveryCurve(
        algorithm=algorithm.name,
        graph=graph_name or f"n={graph.number_of_nodes()}",
        sizes=list(sizes),
        probabilities=probabilities,
        samples_per_size=samples,
    )


def compare_curves(
    graph: nx.Graph,
    algorithms: list,
    source,
    destination,
    sizes: list[int],
    samples: int = 200,
    seed: int = 0,
    graph_name: str = "",
) -> list[DeliveryCurve]:
    """Delivery curves for several algorithms on the same scenario set."""
    return [
        delivery_curve(
            graph,
            algorithm,
            source,
            destination,
            sizes=sizes,
            samples=samples,
            seed=seed,
            graph_name=graph_name,
        )
        for algorithm in algorithms
    ]
