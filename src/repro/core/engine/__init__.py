"""Fast simulation engine: the hot path behind every checker.

Every result of the paper — the Table 1 landscape, the k=7 / K4,4
impossibilities, the §VIII Topology Zoo study — reduces to simulating
deterministic forwarding over huge families of failure scenarios.  The
naive :mod:`..simulator` walks each packet with per-hop ``frozenset``
algebra and re-runs a BFS per failure set; this package replaces that
with three layers that share work across scenarios:

1. :class:`~repro.core.engine.indexed.IndexedNetwork` maps arbitrary
   node labels to dense integers **once** and stores adjacency as flat
   index tuples with a per-node incident-link bitmask, each node's
   neighbours in the one order every simulator lists alive ports in
   (:func:`~repro.graphs.edges.sorted_adjacency`).  A failure set
   becomes a single integer mask, and building a node's local view is
   mask arithmetic (``fmask & incident[node]``) plus a cache lookup
   instead of frozenset construction.  Its
   :meth:`~repro.core.engine.indexed.IndexedNetwork.distances` is the
   one uncached flood of a mask's surviving graph.

2. :class:`~repro.core.engine.memo.MemoizedPattern` caches forwarding
   decisions per pattern, keyed by ``(node, inport, local failure
   mask)``.

   **Soundness.**  The paper's model (§II) makes a forwarding pattern a
   *static* function configured before any failure happens, and a rule
   may only read the packet's in-port and the locally incident failures
   ``F ∩ E(v)`` (header fields are baked into the pattern at build
   time, and headers are immutable in flight).  Determinism plus that
   locality means ``pattern.forward(view)`` is a pure function of
   ``(view.node, view.inport, view.failed_links)`` — the remaining
   ``LocalView`` field, ``alive``, is itself determined by the node and
   its incident failures.  Hence caching the result under the triple
   ``(node index, inport index, local mask)`` can never change an
   outcome: two scenarios that agree on the triple present the pattern
   with identical views.  Exhaustive enumeration over ``2^|E|`` failure
   sets revisits the same local states constantly, so most hops become
   a dictionary hit.  (Patterns that violate the model — nondeterminism
   or hidden mutable state — are out of scope for the whole library,
   not just for the cache.)

3. :class:`~repro.core.engine.components.ComponentTracker` memoizes the
   connected-component partition per failure mask and derives the
   partition for a mask incrementally from the mask with its highest
   bit cleared (its enumeration-order prefix), re-flooding only the one
   component the removed link could split.  Checkers sweeping
   destination × failure-set grids thus run one bounded BFS per mask
   instead of one per scenario.

:mod:`~repro.core.engine.sweep` stitches the layers into the batched
scenario-sweep API (:func:`sweep_resilience`) used by the public
checkers in :mod:`repro.core.resilience`, plus :func:`parallel_map`,
the crash-recovering fork fan-out behind ``run_grid(processes=N)``.

:mod:`~repro.core.engine.vectorized` adds a fourth, optional layer on
top of the same state: when numpy is installed, an
``ExperimentSession(backend="numpy")`` batches many failure masks per
destination through array ops (dense decision tables gathered per hop,
vectorized component labelling) in its destination-pattern and touring
resilience sweeps, with the scalar layers as the always-available
fallback — verdicts are identical either way.  It is not re-exported
here: only those two sweeps import it, so only numpy sessions load
numpy.
"""

from .components import ComponentTracker
from .indexed import IndexedNetwork
from .memo import DROP, ILLEGAL, MemoizedPattern, route_indexed, tour_indexed
from .sweep import (
    EngineState,
    ScenarioGrid,
    parallel_map,
    sweep_pattern_resilience,
    sweep_resilience,
)

__all__ = [
    "ComponentTracker",
    "DROP",
    "ILLEGAL",
    "EngineState",
    "IndexedNetwork",
    "MemoizedPattern",
    "ScenarioGrid",
    "parallel_map",
    "route_indexed",
    "sweep_pattern_resilience",
    "sweep_resilience",
    "tour_indexed",
]
