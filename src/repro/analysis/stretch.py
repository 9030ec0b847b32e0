"""Hop-stretch of failover walks (§I.B: "a robust route is not
necessarily the shortest route").

The paper's related-work discussion highlights the resilience/stretch
trade-off [5]-[7].  This module measures it for the library's schemes:
the ratio between the failover walk's hop count and the shortest
surviving path, aggregated over failure scenarios.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import networkx as nx

from ..core.model import DestinationAlgorithm, SourceDestinationAlgorithm
from ..graphs.connectivity import surviving_graph
from ..graphs.edges import canonical_links


@dataclass
class StretchSummary:
    """Stretch statistics of one algorithm on one scenario distribution."""

    algorithm: str
    scenarios: int
    delivered: int
    mean_stretch: float
    max_stretch: float

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.scenarios if self.scenarios else 0.0


def measure_stretch(
    graph: nx.Graph,
    algorithm: SourceDestinationAlgorithm | DestinationAlgorithm,
    source,
    destination,
    max_failures: int,
    samples: int = 300,
    seed: int = 0,
    session=None,
) -> StretchSummary:
    """Mean/max stretch over random promise-respecting failure scenarios.

    Engine state comes from ``session`` (default: the shared
    :func:`~repro.experiments.session.default_session`), so repeated
    measurements on one graph reuse its index maps and caches; a naive
    session walks every scenario with the reference simulator and
    measures the same numbers.
    """
    from ..experiments.session import resolve_session

    links = canonical_links(graph)
    state = resolve_session(session).state(graph)
    memo = state.pattern_for(algorithm, source, destination)
    rng = random.Random(seed)
    stretches: list[float] = []
    delivered = 0
    scenarios = 0
    guard = 0
    while scenarios < samples and guard < 50 * samples:
        guard += 1
        size = rng.randint(0, max_failures)
        failures = frozenset(rng.sample(links, min(size, len(links))))
        if not state.connected(source, destination, failures):
            continue
        scenarios += 1
        survived = surviving_graph(graph, failures)
        shortest = nx.shortest_path_length(survived, source, destination)
        result = state.route(memo, source, destination, failures)
        if result.delivered:
            delivered += 1
            stretches.append(result.steps / max(shortest, 1))
    return StretchSummary(
        algorithm=algorithm.name,
        scenarios=scenarios,
        delivered=delivered,
        mean_stretch=sum(stretches) / len(stretches) if stretches else float("nan"),
        max_stretch=max(stretches) if stretches else float("nan"),
    )
