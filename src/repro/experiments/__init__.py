"""Unified experiment API: registries, sessions, grids, records.

The one surface for the paper's comparison.  Schemes and topologies are
resolved **by name** through registries (:mod:`~repro.experiments.
registry`), engine state is owned by an :class:`~repro.experiments.
session.ExperimentSession`, grids run through
:func:`~repro.experiments.runner.run_grid`, and results are typed
:class:`~repro.experiments.results.ExperimentRecord` rows that merge
into a :class:`~repro.experiments.results.ResultStore`.

Failure models live in :mod:`repro.failures`; ``failure_models``
accepts model instances, spec strings or labels.

Quickstart::

    from repro.experiments import run_grid, ResultStore

    result = run_grid(
        topologies=["ring", "fattree"],
        schemes=["arborescence", "distance2", "greedy"],
        failure_models=["random:sizes=0/1/2,samples=5,seed=0"],
        store=ResultStore("results.json"),
    )
    print(result.table())
"""

from .registry import (
    ARITY,
    SchemeNotApplicable,
    SchemeSpec,
    TopologySpec,
    UnknownSchemeError,
    UnknownTopologyError,
    known_family,
    list_schemes,
    list_topologies,
    register_scheme,
    register_topology,
    resolve_topology,
    scheme,
    scheme_names,
    topology,
    topology_names,
)
from .results import (
    ExperimentRecord,
    ResultStore,
    records_round_trip,
    records_table,
    write_records_csv,
)
from .runner import METRICS, GridResult, run_grid
from .session import (
    ExperimentSession,
    default_session,
    naive_session,
    resolve_session,
)

__all__ = [
    "ARITY",
    "METRICS",
    "ExperimentRecord",
    "ExperimentSession",
    "GridResult",
    "ResultStore",
    "SchemeNotApplicable",
    "SchemeSpec",
    "TopologySpec",
    "UnknownSchemeError",
    "UnknownTopologyError",
    "default_session",
    "known_family",
    "list_schemes",
    "list_topologies",
    "naive_session",
    "records_round_trip",
    "records_table",
    "register_scheme",
    "register_topology",
    "resolve_session",
    "resolve_topology",
    "run_grid",
    "scheme",
    "scheme_names",
    "topology",
    "topology_names",
    "write_records_csv",
]
