"""First-class failure models: grids, Monte-Carlo samplers, estimators.

The one home for "which failure scenarios do we evaluate":

* :mod:`~repro.failures.models` — the :class:`FailureModel` protocol and
  the concrete models (:class:`RandomGridModel` — the historical seeded
  grid, bit-identical labels —, :class:`ExhaustiveModel`,
  :class:`IIDModel`, :class:`SRLGModel`, :class:`RegionalModel`);
* :mod:`~repro.failures.spec` — the ``"iid:p=0.01,samples=500,seed=0"``
  spec grammar shared by the CLI, the serve protocol and ``run_grid``;
* :mod:`~repro.failures.estimate` — streaming estimators emitting
  resilience/congestion point estimates with Wilson confidence bounds,
  any-time refinable against a :class:`~repro.runtime.deadline.Budget`.

Quickstart::

    from repro.failures import parse_failure_model, estimate_resilience
    from repro.experiments import resolve_topology, scheme

    graph = resolve_topology("grid(3,3)")
    model = parse_failure_model("iid:p=0.05,samples=500,seed=0")
    est = estimate_resilience(graph, scheme("greedy").instantiate(), model)
    print(f"{est.estimate:.3f} [{est.ci_low:.3f}, {est.ci_high:.3f}]")
"""

from ..graphs.edges import canonical_links
from .estimate import (
    CongestionEstimate,
    MaskEvaluator,
    ResilienceEstimate,
    estimate_congestion,
    estimate_resilience,
    exact_binomial_interval,
    mean_interval,
    wilson_interval,
)
from .models import (
    ExhaustiveModel,
    FailureModel,
    IIDModel,
    RandomGridModel,
    RegionalModel,
    SRLGModel,
    default_sizes,
    sample_failure_grid,
)
from .spec import MODEL_FAMILIES, parse_failure_model, spec_grammar

__all__ = [
    "MODEL_FAMILIES",
    "CongestionEstimate",
    "ExhaustiveModel",
    "FailureModel",
    "IIDModel",
    "MaskEvaluator",
    "RandomGridModel",
    "RegionalModel",
    "ResilienceEstimate",
    "SRLGModel",
    "canonical_links",
    "default_sizes",
    "estimate_congestion",
    "estimate_resilience",
    "exact_binomial_interval",
    "mean_interval",
    "parse_failure_model",
    "sample_failure_grid",
    "spec_grammar",
    "wilson_interval",
]
