"""The :class:`ExperimentSession`: one owner for all engine state.

A session owns a bounded cache of per-graph engine states (index maps,
component caches, and the one pattern cache: each forwarding pattern
with its decision table, built once per graph and algorithm instance)
plus per-(graph, algorithm) traffic engines on those states, and it
decides the *backend* — ``"engine"`` (the fast indexed path),
``"numpy"`` (the engine path, with the destination-pattern and touring
resilience sweeps batched through the vectorized mask walker; needs
the optional numpy dependency, which only this backend imports, and
falls back to scalar-engine semantics where an instance cannot
vectorize), or ``"naive"`` (the hop-by-hop reference simulator, kept
for differential testing, which caches nothing).  Traffic loads and
r-tolerance checks take the scalar engine on both engine backends.
Consumers accept ``session=``; :func:`resolve_session` turns ``None``
into the shared default.  Pattern caches key on the algorithm
*instance*, so callers that share one instance across calls
(``run_grid`` per scheme, the query service per scheme name) build
each pattern once.
"""

from __future__ import annotations

from collections import OrderedDict

import networkx as nx

from repro import obs as _obs

from ..core.engine.sweep import EngineState

#: cached engine states / traffic engines per session (FIFO eviction)
STATE_CACHE_LIMIT = 16

_BACKENDS = ("engine", "naive", "numpy")


def _fingerprint(graph: nx.Graph) -> tuple:
    """Node/edge identity of a graph — catches in-place mutation.

    The O(n + m) hash is negligible next to any sweep it guards, and it
    means a session never serves stale index maps or patterns for a
    graph that was rewired between calls.
    """
    return (
        frozenset(graph.nodes),
        frozenset(frozenset(link) for link in graph.edges),
    )


class ExperimentSession:
    """Owns engine state for a series of experiments.

    ``backend="engine"`` routes every consumer through the fast indexed
    engine with caches shared across calls; ``backend="numpy"`` layers
    the vectorized destination-pattern and touring sweeps on top of the
    same engine state (requires the optional numpy dependency, which
    no other backend imports; instances the vectorizer cannot handle
    silently take the scalar engine path with identical verdicts);
    ``backend="naive"`` selects the reference hop-by-hop
    paths (identical verdicts, no caching) — the surface the
    differential tests compare against.  ``processes`` is the width of
    ``run_grid``'s cell fan-out; checkers, sweeps and estimators always
    run in process.
    """

    def __init__(self, backend: str = "engine", processes: int = 1):
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        if backend == "numpy":
            # imports numpy: only numpy sessions load it
            from ..core.engine.vectorized import require_numpy

            require_numpy()
        self.backend = backend
        self.processes = processes
        self._states: OrderedDict[int, tuple[tuple, EngineState]] = OrderedDict()
        self._traffic: OrderedDict[tuple, object] = OrderedDict()
        #: live cache statistics — plain ints so ``repr(session)`` works
        #: without telemetry; mirrored into the active registry on update
        self.stats: dict[str, int] = {
            "state_hits": 0,
            "state_misses": 0,
            "state_evictions": 0,
            "traffic_hits": 0,
            "traffic_misses": 0,
            "traffic_evictions": 0,
        }

    def _bump(self, cache: str, event: str) -> None:
        self.stats[f"{cache}_{event}"] += 1
        telemetry = _obs.active()
        if telemetry is not None:
            telemetry.count(
                f"repro_session_{cache}_cache_{event}_total",
                help=f"session {cache} cache {event}",
            )

    @property
    def use_engine(self) -> bool:
        """Does this session run on an engine-state backend (fast indexed
        or vectorized), as opposed to the naive reference paths?"""
        return self.backend != "naive"

    # -- state ownership ---------------------------------------------------

    def state(self, graph: nx.Graph) -> EngineState:
        """The session's engine state for ``graph`` (built once, cached).

        Keyed by graph object identity *and* its node/edge fingerprint;
        a mutated graph is re-indexed, and a bounded FIFO keeps sessions
        that sweep many graphs from pinning every index ever built.
        Refreshed keys (hits and re-indexes alike) move to the FIFO
        tail, so a hot graph is never the next eviction victim; an
        incoming key that already exists replaces its own slot instead
        of evicting an unrelated entry.

        The ``"naive"`` backend is the cache-free reference: it builds a
        throwaway state per call and retains nothing.
        """
        if self.backend == "naive":
            return EngineState(graph)
        key = id(graph)
        fingerprint = _fingerprint(graph)
        cached = self._states.get(key)
        if cached is not None and cached[0] == fingerprint and cached[1].graph is graph:
            self._states.move_to_end(key)
            self._bump("state", "hits")
            return cached[1]
        state = EngineState(graph)
        self._bump("state", "misses")
        if key in self._states:
            # same slot (a mutated graph being re-indexed): replace in
            # place — evicting an unrelated entry would shrink the cache
            self._states[key] = (fingerprint, state)
            self._states.move_to_end(key)
            return state
        while len(self._states) >= STATE_CACHE_LIMIT:
            self._states.popitem(last=False)
            self._bump("state", "evictions")
        self._states[key] = (fingerprint, state)
        return state

    def traffic_engine(self, graph: nx.Graph, algorithm) -> object:
        """A :class:`~repro.traffic.load.TrafficEngine` on session state.

        Cached per (graph, algorithm instance).  Its patterns and decision
        tables live in the state's pattern cache, shared with every sweep
        and estimator that passes the same algorithm instance.  The
        ``"naive"`` backend gets the reference
        :class:`~repro.traffic.load.PerPacketRouter` (same API, every load
        a :func:`~repro.traffic.load.per_packet_loads` call), built per
        call and retained nowhere.
        """
        from ..traffic.load import PerPacketRouter, TrafficEngine

        if self.backend == "naive":
            return PerPacketRouter(graph, algorithm)
        # self.state() re-indexes a mutated graph; comparing the cached
        # engine's state to the current one inherits that staleness check
        state = self.state(graph)
        key = (id(graph), id(algorithm))
        cached = self._traffic.get(key)
        if cached is not None and cached.state is state and cached.algorithm is algorithm:
            self._traffic.move_to_end(key)
            self._bump("traffic", "hits")
            return cached
        engine = TrafficEngine(state, algorithm)
        self._bump("traffic", "misses")
        if key in self._traffic:
            # stale entry under the same key (mutated graph, or a
            # recycled id pair): replace in place, never evict a neighbor
            self._traffic[key] = engine
            self._traffic.move_to_end(key)
            return engine
        while len(self._traffic) >= STATE_CACHE_LIMIT:
            self._traffic.popitem(last=False)
            self._bump("traffic", "evictions")
        self._traffic[key] = engine
        return engine

    def pattern_stats(self) -> dict[str, int]:
        """Built patterns held, and pattern-cache hits and misses, summed
        over the cached engine states (:meth:`EngineState.pattern`)."""
        states = [state for _, state in list(self._states.values())]
        return {
            "patterns": sum(state.patterns_cached() for state in states),
            "hits": sum(state.pattern_hits for state in states),
            "misses": sum(state.pattern_misses for state in states),
        }

    def clear(self) -> None:
        """Drop every cached state and traffic engine."""
        self._states.clear()
        self._traffic.clear()

    def __repr__(self) -> str:
        stats = self.stats
        return (
            f"ExperimentSession(backend={self.backend!r}, processes={self.processes}, "
            f"states={len(self._states)}, traffic={len(self._traffic)}, "
            f"state hits={stats['state_hits']}/misses={stats['state_misses']}"
            f"/evictions={stats['state_evictions']}, "
            f"traffic hits={stats['traffic_hits']}/misses={stats['traffic_misses']}"
            f"/evictions={stats['traffic_evictions']})"
        )


_DEFAULT_SESSION: ExperimentSession | None = None
_NAIVE_SESSION: ExperimentSession | None = None


def default_session() -> ExperimentSession:
    """The process-wide engine-backend session.

    Entry points called without an explicit session share this one, so
    back-to-back checks on the same graph reuse its index maps and
    component caches instead of rebuilding them per call.  The cost of
    that reuse is retention: up to :data:`STATE_CACHE_LIMIT` graphs'
    engine states (and their mask-partition caches) stay alive for the
    process lifetime.  Long-lived processes sweeping many large graphs
    should use a scoped ``ExperimentSession()`` instead — or call
    ``default_session().clear()`` to release everything at once.
    """
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = ExperimentSession(backend="engine")
    return _DEFAULT_SESSION


def naive_session() -> ExperimentSession:
    """The shared naive-backend session: reference paths, no caching.

    "No caching" is literal: a naive-backend session's
    :meth:`ExperimentSession.state` and
    :meth:`ExperimentSession.traffic_engine` build throwaway objects per
    call and retain nothing, so the reference surface can never serve a
    stale index.
    """
    global _NAIVE_SESSION
    if _NAIVE_SESSION is None:
        _NAIVE_SESSION = ExperimentSession(backend="naive")
    return _NAIVE_SESSION


def resolve_session(session: ExperimentSession | None = None) -> ExperimentSession:
    """``session`` as given, or the shared engine-backend :func:`default_session`."""
    return session if session is not None else default_session()
