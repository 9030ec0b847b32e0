"""Congestion sweeps: load-vs-failures curves, adversarial load search,
and an algorithm comparison harness.

Mirrors :func:`repro.core.engine.sweep.sweep_resilience` one layer up:
instead of asking "does every packet arrive?", each scenario routes a
whole traffic matrix through :class:`~repro.traffic.load.TrafficEngine`
and records what the rerouted flows do to link loads — the "price of
locality" measured in congestion rather than resilience (Bankhamer,
Elsässer, Schmid 2020/2021).

Three drivers:

* :func:`congestion_vs_failures` — congestion curve over the
  failure-set sizes of a pinned scenario grid;
* :func:`greedy_congestion_attack` — worst-case failure search for load,
  greedy link-by-link with a pruning pass, following the verified-witness
  scaffolding of :mod:`repro.core.adversary.search` (every returned
  witness is re-simulated, never trusted from the search);
* :func:`compare_congestion` — the repo's algorithms (arborescence,
  distance-2/3, outerplanar touring, naive) on the **same** scenario
  grid, one failure model's, skipping algorithms a topology cannot
  support.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from ..core.engine.sweep import EngineState
from ..failures.models import RandomGridModel
from ..graphs.connectivity import surviving_graph
from ..graphs.edges import FailureSet, canonical_links, edge_sort_key
from .load import LoadReport, RoutingAlgorithm, TrafficEngine
from .matrices import TrafficMatrix


@dataclass
class CongestionPoint:
    """Aggregate load statistics at one failure-set size."""

    failures: int
    scenarios: int
    mean_max_load: float
    worst_max_load: int
    mean_p99_load: float
    delivered_fraction: float
    looped_fraction: float
    dropped_fraction: float
    mean_stretch: float


@dataclass
class CongestionCurve:
    """Congestion-vs-#failures curve for one algorithm on one matrix."""

    algorithm: str
    graph: str
    matrix: str
    points: list[CongestionPoint] = field(default_factory=list)

    def at(self, size: int) -> CongestionPoint:
        for point in self.points:
            if point.failures == size:
                return point
        raise KeyError(f"no point at |F| = {size}")


def congestion_vs_failures(
    graph: nx.Graph | EngineState,
    algorithm: RoutingAlgorithm,
    demands: TrafficMatrix,
    failure_grid: dict[int, list[FailureSet]],
    graph_name: str = "",
    matrix_name: str = "",
    engine: TrafficEngine | None = None,
    session=None,
) -> CongestionCurve:
    """Load statistics per failure-set size of ``failure_grid`` (a
    :class:`~repro.failures.FailureModel`'s grid) for one algorithm.

    One router serves the whole sweep, so patterns and decision tables
    are built once (pass a prebuilt ``engine``, or take the router from
    a ``session``'s :meth:`~repro.experiments.session.ExperimentSession.
    traffic_engine` to reuse them across calls).
    """
    if engine is None:
        engine = _router(graph, algorithm, session)
    curve = CongestionCurve(
        algorithm=algorithm.name,
        graph=graph_name or f"n={engine.graph.number_of_nodes()}",
        matrix=matrix_name or f"{len(demands)} demands",
    )
    for size in sorted(failure_grid):
        reports = engine.load_sweep(demands, failure_grid[size])
        if reports:  # an explicitly passed grid may carry empty buckets
            curve.points.append(_aggregate(size, reports))
    return curve


def _router(graph: nx.Graph | EngineState, algorithm: RoutingAlgorithm, session):
    """The session's load router for ``graph``, or a fresh batched one."""
    if session is None:
        return TrafficEngine(graph, algorithm)
    return session.traffic_engine(graph, algorithm)


def _aggregate(size: int, reports: list[LoadReport]) -> CongestionPoint:
    count = len(reports)
    total = sum(report.total_volume for report in reports)
    delivered = sum(report.delivered_volume for report in reports)
    return CongestionPoint(
        failures=size,
        scenarios=count,
        mean_max_load=sum(report.max_load for report in reports) / count,
        worst_max_load=max(report.max_load for report in reports),
        mean_p99_load=sum(report.p99_load for report in reports) / count,
        delivered_fraction=delivered / total if total else 0.0,
        looped_fraction=sum(r.looped_volume for r in reports) / total if total else 0.0,
        dropped_fraction=sum(r.dropped_volume for r in reports) / total if total else 0.0,
        mean_stretch=(
            sum(report.stretch_volume for report in reports) / delivered if delivered else 0.0
        ),
    )


# ---------------------------------------------------------------------------
# Worst-case (adversarial) load search.
# ---------------------------------------------------------------------------


@dataclass
class CongestionAttack:
    """A verified worst-case-load witness (cf. ``adversary.search.AttackResult``)."""

    failures: FailureSet
    max_load: int
    baseline_max_load: int
    method: str

    @property
    def size(self) -> int:
        return len(self.failures)

    @property
    def amplification(self) -> float:
        """How much the failures inflate the failure-free max link load."""
        if self.baseline_max_load == 0:
            return float(self.max_load)
        return self.max_load / self.baseline_max_load


def greedy_congestion_attack(
    graph: nx.Graph | EngineState,
    algorithm: RoutingAlgorithm,
    demands: TrafficMatrix,
    max_failures: int,
    keep_connected: bool = True,
    session=None,
) -> CongestionAttack:
    """Greedily fail the link that maximizes the resulting max link load.

    Follows the :mod:`repro.core.adversary.search` scaffolding: candidates
    are evaluated by full simulation on a shared engine (one decision
    table across all candidates), the final witness is pruned link by
    link (drop any failure whose removal does not lower the achieved
    load), and the reported load is re-verified on the pruned set.
    ``keep_connected`` restricts the adversary to failures that keep the
    surviving graph connected — the promise of the congestion papers.
    Given a ``session``, the router is the session's
    :meth:`~repro.experiments.session.ExperimentSession.traffic_engine`.
    """
    engine = _router(graph, algorithm, session)
    links = canonical_links(engine.graph)
    baseline = engine.load(demands).max_load
    chosen: set = set()
    # the greedy trajectory is not monotone (a failure can *lower* max
    # load by disconnecting heavy flows), so remember the best prefix
    # seen across rounds rather than trusting the final set
    best_load = baseline
    best_prefix: frozenset = frozenset()
    for _ in range(max_failures):
        round_best = None
        for link in links:
            if link in chosen:
                continue
            candidate = frozenset(chosen | {link})
            if keep_connected and not nx.is_connected(surviving_graph(engine.graph, candidate)):
                continue
            load = engine.load(demands, candidate).max_load
            if round_best is None or load > round_best[0]:
                round_best = (load, link)
        if round_best is None:
            break  # every remaining link would disconnect the graph
        chosen.add(round_best[1])
        if round_best[0] >= best_load:
            best_load = round_best[0]
            best_prefix = frozenset(chosen)
    # pruning pass: drop failures that are not pulling their weight
    chosen = set(best_prefix)
    for link in sorted(chosen, key=edge_sort_key):
        candidate = frozenset(chosen - {link})
        if engine.load(demands, candidate).max_load >= best_load:
            chosen.discard(link)
    witness = frozenset(chosen)
    verified = engine.load(demands, witness).max_load
    return CongestionAttack(
        failures=witness,
        max_load=verified,
        baseline_max_load=baseline,
        method="greedy",
    )


# ---------------------------------------------------------------------------
# Comparison harness.
# ---------------------------------------------------------------------------


@dataclass
class ComparisonResult:
    """Curves for every supported algorithm plus the skip list."""

    curves: list[CongestionCurve]
    skipped: list[tuple[str, str]] = field(default_factory=list)


def default_competitors() -> list[RoutingAlgorithm]:
    """The repo's standard line-up for congestion comparisons.

    Resolved from the scheme registry (the ``congestion-default`` tag,
    in registration order) — there is no private scheme list here;
    registering a new tagged scheme adds it to every comparison.
    """
    from ..experiments.registry import list_schemes

    return [spec.instantiate() for spec in list_schemes(tag="congestion-default")]


def preflight_congestion_curve(
    engine: TrafficEngine,
    algorithm: RoutingAlgorithm,
    demands: TrafficMatrix,
    failure_grid: dict[int, list[FailureSet]],
    graph_name: str = "",
    matrix_name: str = "",
) -> tuple[CongestionCurve | None, str | None]:
    """Pre-flight the patterns, then sweep the pinned grid.

    The one implementation of "try to build every pattern once, skip
    the scheme with a reason on failure, otherwise sweep the shared
    grid" — used by :func:`compare_congestion`, the experiments grid
    runner, and the CLI so their skip semantics and load numbers cannot
    drift apart.  Returns ``(curve, None)`` or ``(None, skip reason)``.
    """
    try:
        # pre-flight: building the failure-free report exercises every
        # pattern constructor the sweep will need
        engine.load(demands)
    except Exception as error:  # noqa: BLE001 - precondition failures vary by algorithm
        return None, str(error) or type(error).__name__
    curve = congestion_vs_failures(
        engine.graph,
        algorithm,
        demands,
        failure_grid,
        graph_name=graph_name,
        matrix_name=matrix_name,
        engine=engine,  # patterns built by the pre-flight are reused
    )
    return curve, None


def compare_congestion(
    graph: nx.Graph,
    demands: TrafficMatrix,
    algorithms: list[RoutingAlgorithm] | None = None,
    failure_model=RandomGridModel(samples=20),
    graph_name: str = "",
    matrix_name: str = "",
    session=None,
) -> ComparisonResult:
    """Congestion curves for several algorithms on the grid of
    ``failure_model``, a :class:`~repro.failures.FailureModel`.

    Algorithms whose preconditions the topology violates (bipartite-only
    distance-3, outerplanar-only touring, ...) are skipped and reported
    rather than crashing the sweep; every surviving competitor sees the
    exact same failure sets.  The default ``algorithms`` line-up comes
    from the scheme registry; each router comes from ``session``'s
    :meth:`~repro.experiments.session.ExperimentSession.traffic_engine`
    (default: the shared session), so a ``backend="naive"`` session
    routes every load per packet.
    """
    from ..experiments.session import resolve_session

    if algorithms is None:
        algorithms = default_competitors()
    grid = failure_model.grid(graph)
    resolved = resolve_session(session)
    result = ComparisonResult(curves=[])
    for algorithm in algorithms:
        curve, reason = preflight_congestion_curve(
            resolved.traffic_engine(graph, algorithm),
            algorithm,
            demands,
            grid,
            graph_name=graph_name,
            matrix_name=matrix_name,
        )
        if curve is None:
            result.skipped.append((algorithm.name, reason))
        else:
            result.curves.append(curve)
    return result


def congestion_table(curves: list[CongestionCurve]) -> str:
    """Fixed-width text table of congestion curves (CLI / examples)."""
    from ..analysis.reporting import simple_table

    rows = []
    for curve in curves:
        for point in curve.points:
            rows.append(
                [
                    curve.algorithm,
                    point.failures,
                    point.scenarios,
                    f"{point.mean_max_load:.1f}",
                    point.worst_max_load,
                    f"{100 * point.delivered_fraction:.1f}%",
                    f"{point.mean_stretch:.2f}",
                ]
            )
    return simple_table(
        ["algorithm", "|F|", "scenarios", "mean max load", "worst", "delivered", "stretch"],
        rows,
    )
