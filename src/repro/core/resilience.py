"""Resilience checkers: perfect resilience, r-tolerance, touring.

A forwarding pattern is *r-resilient* if it delivers under every failure
set of size at most r that keeps source and destination connected, and
*perfectly resilient* if it is ∞-resilient (§II).  *r-tolerance*
(Definition 1) instead promises that s and t remain r-(link-)connected.

For small graphs the checkers enumerate **all** failure sets (the paper's
gadgets have ≤ 16 links, so exhaustive checking is exact); larger graphs
use structured plus uniformly random samples.  Checkers always skip
failure sets that break the respective promise.

Every checker is a thin front on the engine's sweeps
(:mod:`repro.core.engine.sweep`), the one scenario loop of every
backend: integer-indexed networks, memoized ``(node, inport, local
mask)`` forwarding decisions, and a component cache shared across the
whole destination × failure-set grid.  Engine state is owned by an
:class:`~repro.experiments.session.ExperimentSession` — pass ``session=``
to share index maps and caches across calls; the default is the shared
:func:`~repro.experiments.session.default_session`.  On a session with
``backend="naive"`` the same loops walk every scenario with the
hop-by-hop reference simulator (same verdicts; with telemetry on it
emits the sweep spans and walk counters too) — the surface the
differential tests compare against.  Checkers run in process;
``run_grid(processes=N)`` spreads grid cells, each a set of checks,
across forked workers.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import combinations

import networkx as nx

from ..graphs.connectivity import st_edge_connectivity
from ..graphs.edges import FailureSet, Node, canonical_links
from .model import (
    DestinationAlgorithm,
    ForwardingPattern,
    SourceDestinationAlgorithm,
    TouringAlgorithm,
)
from .simulator import RouteResult

#: exhaustively enumerate failure sets up to this many links
EXHAUSTIVE_LINK_LIMIT = 17


@dataclass
class Counterexample:
    """A failure scenario on which a pattern fails."""

    source: Node | None
    destination: Node | None
    failures: FailureSet
    result: RouteResult | None
    note: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        outcome = self.result.outcome.value if self.result else "tour failure"
        return (
            f"{outcome} for s={self.source!r}, t={self.destination!r}, "
            f"|F|={len(self.failures)}: {sorted(self.failures)}"
        )


@dataclass
class Verdict:
    """Outcome of a resilience check."""

    resilient: bool
    scenarios_checked: int
    counterexample: Counterexample | None = None
    exhaustive: bool = False

    def __bool__(self) -> bool:
        return self.resilient


def all_failure_sets(graph: nx.Graph, max_failures: int | None = None) -> Iterator[FailureSet]:
    """All failure sets of the graph, smallest first."""
    links = canonical_links(graph)
    limit = len(links) if max_failures is None else min(max_failures, len(links))
    for size in range(limit + 1):
        for combo in combinations(links, size):
            yield frozenset(combo)


def sampled_failure_sets(
    graph: nx.Graph,
    samples: int = 400,
    max_failures: int | None = None,
    seed: int = 0,
) -> Iterator[FailureSet]:
    """Random failure sets: for each sample, a uniform size then subset.

    Always starts with the empty set and all singletons, so trivial bugs
    surface deterministically.
    """
    links = canonical_links(graph)
    limit = len(links) if max_failures is None else min(max_failures, len(links))
    yield frozenset()
    for link in links:
        yield frozenset([link])
    rng = random.Random(seed)
    for _ in range(samples):
        size = rng.randint(0, limit)
        yield frozenset(rng.sample(links, size))


def default_failure_sets(graph: nx.Graph) -> tuple[Iterator[FailureSet], bool]:
    """The checkers' default family: every failure set when feasible,
    else the seeded sample.

    Returns the iterator and whether it is exhaustive.  The one
    definition every backend (the scalar sweeps, naive or indexed, and
    the vectorized mask batches) resolves, so all face the same scenarios.
    """
    if graph.number_of_edges() <= EXHAUSTIVE_LINK_LIMIT:
        return all_failure_sets(graph), True
    return sampled_failure_sets(graph), False


# ---------------------------------------------------------------------------
# Perfect resilience.
# ---------------------------------------------------------------------------


def check_pattern_resilience(
    graph: nx.Graph,
    pattern: ForwardingPattern,
    destination: Node,
    sources: Iterable[Node] | None = None,
    failure_sets: Iterable[FailureSet] | None = None,
    session=None,
) -> Verdict:
    """Check one concrete pattern: every connected source must be served.

    This is the §II definition specialized to a fixed destination (and
    optionally a fixed source, for the source-destination model).
    """
    from ..experiments.session import resolve_session
    from .engine.memo import MemoizedPattern
    from .engine.sweep import sweep_pattern_resilience

    session = resolve_session(session)
    state = session.state(graph)
    return sweep_pattern_resilience(
        state,
        MemoizedPattern(state.network, pattern),
        destination,
        sources=sources,
        failure_sets=failure_sets,
        backend=session.backend,
    )


def _sweep_verdict(graph: nx.Graph, algorithm, session, **grid) -> Verdict:
    """``sweep_resilience`` over ``ScenarioGrid(**grid)`` on the session's state."""
    from ..experiments.session import resolve_session
    from .engine.sweep import ScenarioGrid, sweep_resilience

    session = resolve_session(session)
    return sweep_resilience(
        graph, algorithm, ScenarioGrid(**grid), state=session.state(graph), backend=session.backend
    )


def check_perfect_resilience_source_destination(
    graph: nx.Graph,
    algorithm: SourceDestinationAlgorithm,
    pairs: Iterable[tuple[Node, Node]] | None = None,
    failure_sets: Iterable[FailureSet] | None = None,
    session=None,
) -> Verdict:
    """Is the algorithm perfectly resilient on ``graph`` in the π^{s,t} model?"""
    return _sweep_verdict(graph, algorithm, session, pairs=pairs, failure_sets=failure_sets)


def check_perfect_resilience_destination(
    graph: nx.Graph,
    algorithm: DestinationAlgorithm,
    destinations: Iterable[Node] | None = None,
    failure_sets: Iterable[FailureSet] | None = None,
    session=None,
) -> Verdict:
    """Is the algorithm perfectly resilient on ``graph`` in the π^t model?

    Every node of the destination's surviving component must be served,
    whatever the source (§II).
    """
    return _sweep_verdict(
        graph, algorithm, session, destinations=destinations, failure_sets=failure_sets
    )


def check_resilience(
    graph: nx.Graph,
    algorithm: DestinationAlgorithm | SourceDestinationAlgorithm | TouringAlgorithm,
    failure_sets: Iterable[FailureSet] | None = None,
    session=None,
) -> Verdict:
    """Perfect resilience in the algorithm's own routing model: the π^∀
    touring, π^{s,t} or π^t checker, over every unit of the graph."""
    if isinstance(algorithm, TouringAlgorithm):
        return check_perfect_touring(graph, algorithm, failure_sets=failure_sets, session=session)
    if isinstance(algorithm, SourceDestinationAlgorithm):
        return check_perfect_resilience_source_destination(
            graph, algorithm, failure_sets=failure_sets, session=session
        )
    if isinstance(algorithm, DestinationAlgorithm):
        return check_perfect_resilience_destination(
            graph, algorithm, failure_sets=failure_sets, session=session
        )
    raise TypeError(f"not a routing algorithm: {algorithm!r}")


# ---------------------------------------------------------------------------
# r-tolerance (Definition 1).
# ---------------------------------------------------------------------------


def check_r_tolerance(
    graph: nx.Graph,
    algorithm: SourceDestinationAlgorithm,
    source: Node,
    destination: Node,
    r: int,
    failure_sets: Iterable[FailureSet] | None = None,
    session=None,
) -> Verdict:
    """Is the pattern r-tolerant for (source, destination) on ``graph``?

    Only failure sets under which s and t remain r-connected count
    (Definition 1); everything else is vacuously fine.  Every session
    walks the counted scenarios with :meth:`EngineState.route` (the
    reference walk on a naive session, the scalar one on the others).
    """
    from ..experiments.session import resolve_session

    session = resolve_session(session)
    failure_iter, exhaustive = (
        (failure_sets, False) if failure_sets is not None else default_failure_sets(graph)
    )
    state = session.state(graph)
    memo = state.pattern(algorithm, source, destination)
    checked = 0
    for failures in failure_iter:
        if st_edge_connectivity(graph, source, destination, failures, stop_at=r) < r:
            continue
        checked += 1
        result = state.route(memo, source, destination, failures)
        if not result.delivered:
            return Verdict(
                False,
                checked,
                Counterexample(source, destination, failures, result, note=f"r={r}"),
                exhaustive,
            )
    return Verdict(True, checked, exhaustive=exhaustive)


# ---------------------------------------------------------------------------
# Touring (§VII).
# ---------------------------------------------------------------------------


def check_perfect_touring(
    graph: nx.Graph,
    algorithm: TouringAlgorithm,
    starts: Iterable[Node] | None = None,
    failure_sets: Iterable[FailureSet] | None = None,
    session=None,
) -> Verdict:
    """Does the π^∀ pattern tour every component under every failure set?"""
    return _sweep_verdict(graph, algorithm, session, sources=starts, failure_sets=failure_sets)


def check_ideal_resilience(
    graph: nx.Graph,
    algorithm: DestinationAlgorithm,
    destinations: Iterable[Node] | None = None,
    k: int | None = None,
    session=None,
) -> Verdict:
    """Ideal resilience (§I.B.1, Chiesa et al.): survive k-1 failures.

    Defined for k-connected graphs: the pattern must deliver under every
    failure set of size at most ``k - 1`` (such failures can never
    disconnect the graph).  Weaker than perfect resilience: a perfectly
    resilient pattern is ideally resilient, not vice versa.
    """
    from ..graphs.connectivity import global_edge_connectivity

    if k is None:
        k = global_edge_connectivity(graph)
    if k < 1:
        raise ValueError("ideal resilience needs a connected graph")
    verdict = _sweep_verdict(
        graph, algorithm, session, destinations=destinations,
        failure_sets=all_failure_sets(graph, max_failures=k - 1),
    )
    # the family is every set of at most k - 1 links, so a pass is exhaustive
    verdict.exhaustive = verdict.resilient
    return verdict


def check_k_resilient_touring(
    graph: nx.Graph,
    algorithm: TouringAlgorithm,
    max_failures: int,
    starts: Iterable[Node] | None = None,
    failure_sets: Iterable[FailureSet] | None = None,
    session=None,
) -> Verdict:
    """k-resilient touring: tours must survive every |F| <= max_failures."""
    if failure_sets is None:
        # exhaustive up to the size cap when the count is tractable
        count = _binomial_prefix(graph.number_of_edges(), max_failures)
        if count <= 200_000:
            failure_sets = all_failure_sets(graph, max_failures)
        else:
            failure_sets = sampled_failure_sets(graph, samples=500, max_failures=max_failures)
    return check_perfect_touring(
        graph,
        algorithm,
        starts=starts,
        failure_sets=failure_sets,
        session=session,
    )


def _binomial_prefix(n: int, k: int) -> int:
    from math import comb

    return sum(comb(n, size) for size in range(min(k, n) + 1))
