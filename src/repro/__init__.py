"""repro — reproduction of "On the Price of Locality in Static Fast Rerouting".

Foerster, Hirvonen, Pignolet, Schmid, Trédan — DSN 2022
(arXiv:2204.03413).

The library implements the paper's model of static local fast rerouting
(§II), its positive algorithms (Algorithm 1, the K3,3 / K5^-2 / K3,3^-2
tables, distance-2/3 exploration, right-hand-rule and Hamiltonian
touring), its constructive impossibility adversaries (Theorems 1, 6, 7,
14, 15 and the touring lemmas), and the §VIII topology classification
pipeline, on top of self-contained graph substrates (connectivity,
planarity, minors, Hamiltonian decompositions, arborescence packings).
:mod:`repro.traffic` extends the single-packet view to whole traffic
matrices: batched multi-flow load accounting under failures, congestion
sweeps and worst-case load adversaries on datacenter fabrics
(fat-tree, hypercube, torus).  :mod:`repro.experiments` is the unified
experiment API: scheme/topology registries, sessions that own engine
state, and the ``run_grid`` runner emitting typed records.

Quickstart::

    import repro
    from repro.graphs import complete_graph
    from repro.core import route, Network

    g = repro.topology("k5").build()
    pattern = repro.scheme("k5-source").instantiate().build(g, source=0, destination=4)
    result = route(Network(g), pattern, 0, 4, failures=repro.failure_set((0, 4), (1, 4)))
    assert result.delivered

    # the experiment grid: registries -> session -> records
    result = repro.run_grid(["ring", "fattree"], ["arborescence", "greedy"])
    print(result.table())

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
regeneration of every table and figure of the paper.
"""

from .graphs.edges import EMPTY_FAILURES, Edge, FailureSet, Node, edge, edges, failure_set
from .core import (
    Network,
    Outcome,
    RouteResult,
    TourResult,
    route,
    tour,
    tours_component,
)
from .core.classification import Classification, Possibility, classify
from .experiments import (
    ExperimentRecord,
    ExperimentSession,
    GridResult,
    ResultStore,
    SchemeNotApplicable,
    SchemeSpec,
    TopologySpec,
    list_schemes,
    list_topologies,
    resolve_topology,
    run_grid,
    scheme,
    topology,
)

__version__ = "1.1.0"

__all__ = [
    "Classification",
    "EMPTY_FAILURES",
    "Edge",
    "ExperimentRecord",
    "ExperimentSession",
    "FailureSet",
    "GridResult",
    "Network",
    "Node",
    "Outcome",
    "Possibility",
    "ResultStore",
    "RouteResult",
    "SchemeNotApplicable",
    "SchemeSpec",
    "TopologySpec",
    "TourResult",
    "classify",
    "edge",
    "edges",
    "failure_set",
    "list_schemes",
    "list_topologies",
    "resolve_topology",
    "route",
    "run_grid",
    "scheme",
    "tour",
    "topology",
    "tours_component",
]
