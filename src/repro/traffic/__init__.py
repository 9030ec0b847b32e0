"""Traffic & congestion subsystem: multi-flow load analysis under failures.

The paper prices locality in *resilience* and *stretch*; its companion
line of work — "Local Fast Rerouting with Low Congestion" (Bankhamer,
Elsässer, Schmid 2020) and the 2021 datacenter follow-up — prices it in
*link load* when many flows reroute at once.  This package turns the
single-packet simulation engine into a traffic-engineering evaluator:

* :mod:`~repro.traffic.matrices` — deterministic traffic-matrix
  generators (all-to-one, all-to-all, permutation, hotspot, gravity);
* :mod:`~repro.traffic.load` — the batched multi-flow router: one pass
  per failure mask over a functional graph of ``(node, in-port)``
  states, producing exact per-link integer loads
  (:class:`~repro.traffic.load.LoadReport`), differentially equal to
  per-packet simulation;
* :mod:`~repro.traffic.congestion` — sweep drivers: congestion-vs-
  failures curves, greedy worst-case load adversaries, and the
  fixed-grid comparison harness across the repo's algorithms.

Datacenter topologies for the 2021 setting (``fat_tree``, ``hypercube``,
``torus``) live in :mod:`repro.graphs.construct`.
"""

from .congestion import (
    ComparisonResult,
    CongestionAttack,
    CongestionCurve,
    CongestionPoint,
    compare_congestion,
    congestion_table,
    default_competitors,
    greedy_congestion_attack,
    preflight_congestion_curve,
)
from .load import LoadReport, TrafficEngine, per_packet_loads, route_matrix
from .matrices import (
    MATRICES,
    Demand,
    TrafficMatrix,
    all_to_all,
    all_to_one,
    gravity,
    hotspot,
    permutation,
    total_volume,
)

__all__ = [
    "MATRICES",
    "ComparisonResult",
    "CongestionAttack",
    "CongestionCurve",
    "CongestionPoint",
    "Demand",
    "LoadReport",
    "TrafficEngine",
    "TrafficMatrix",
    "all_to_all",
    "all_to_one",
    "compare_congestion",
    "congestion_table",
    "default_competitors",
    "gravity",
    "greedy_congestion_attack",
    "hotspot",
    "per_packet_loads",
    "permutation",
    "preflight_congestion_curve",
    "route_matrix",
    "total_volume",
]
