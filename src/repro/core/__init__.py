"""The paper's contribution: routing models, simulator, checkers, algorithms."""

from .model import (
    DestinationAlgorithm,
    ForwardingPattern,
    FunctionPattern,
    LocalView,
    RoutingModel,
    SourceDestinationAlgorithm,
    TouringAlgorithm,
    destination_as_source_destination,
    touring_as_destination,
)
from .engine import (
    ComponentTracker,
    EngineState,
    IndexedNetwork,
    MemoizedPattern,
    ScenarioGrid,
    SweepResult,
    route_indexed,
    sweep_pattern_resilience,
    sweep_resilience,
    tour_indexed,
)
from .export import ForwardingTable, MaterializedPattern, materialize, reload_pattern
from .orbits import corollary8_violation, orbit_of, relevant_neighbors, same_orbit
from .resilience import (
    Counterexample,
    Verdict,
    all_failure_sets,
    check_ideal_resilience,
    check_k_resilient_touring,
    check_pattern_resilience,
    check_perfect_resilience_destination,
    check_perfect_resilience_source_destination,
    check_perfect_touring,
    check_r_tolerance,
    check_resilience,
    sampled_failure_sets,
)
from .simulator import Network, Outcome, RouteResult, TourResult, route, tour, tours_component
from .tables import ORIGIN, CyclicPermutationPattern, PriorityTable

__all__ = [name for name in dir() if not name.startswith("_")]
