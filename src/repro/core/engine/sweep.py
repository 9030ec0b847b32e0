"""Batched scenario sweeps: (destination × source × failure set) grids.

This is the engine's public face.  :func:`sweep_resilience` evaluates a
whole grid of scenarios for one algorithm with shared state — one
:class:`IndexedNetwork`, one component cache across all destinations,
each pattern and its decision table built once per graph
(:meth:`EngineState.pattern`).  Sweeps run in process, and they are the
only scenario loops of every backend: on a naive session's state
(:meth:`EngineState.mask`) the same loops walk each scenario with the
reference simulator, so the backends differ only in that walk (same
counterexample, same ``scenarios_checked``, same ``exhaustive`` flag).
:func:`parallel_map` is the crash-recovering fork fan-out that
``run_grid`` spreads its grid cells with.

Verdict semantics note: a sweep over an explicitly supplied failure-set
list reports ``exhaustive=False``.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import os
import pickle
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

import networkx as nx

from repro import obs as _obs
from repro.obs import diff_snapshots

from ...graphs.connectivity import component_of
from ...graphs.edges import FailureSet, Node, sorted_nodes
from ...runtime.deadline import Deadline
from ...runtime.faults import fire as _fault_fire
from ..resilience import EXHAUSTIVE_LINK_LIMIT, Counterexample, Verdict, default_failure_sets
from ..model import DestinationAlgorithm, SourceDestinationAlgorithm, TouringAlgorithm
from ..simulator import Network, RouteResult
from ..simulator import route as naive_route
from ..simulator import tour as naive_tour
from .components import ComponentTracker
from .indexed import IndexedNetwork
from .memo import (
    MemoizedPattern,
    _record_walk,
    _route_covers,
    _tour_recurrent_indices,
    route_indexed,
)


#: algorithm instances whose patterns one engine state keeps (FIFO)
ALGORITHM_CACHE_LIMIT = 4


class EngineState:
    """Shared engine state for one graph: index maps + caches.

    Build once, reuse across patterns, destinations and failure sets —
    the component cache and the per-``(node, local mask)`` view cache
    amortize across the whole sweep, and :meth:`pattern` builds each
    forwarding pattern once per graph.

    A ``naive`` state (a naive session's) indexes nothing per scenario:
    :meth:`mask` answers ``None`` for every failure set, so every sweep,
    check and load router on it walks each scenario with the reference
    simulator, in the same loops the indexed scenarios run.
    """

    def __init__(self, graph: nx.Graph, naive: bool = False):
        self.graph = graph
        self.naive = naive
        self.network = IndexedNetwork(graph)
        self.tracker = ComponentTracker(self.network)
        self._naive_network: Network | None = None
        #: id(algorithm) -> (algorithm, {unit: MemoizedPattern})
        self._patterns: dict[int, tuple[Any, dict[tuple, MemoizedPattern]]] = {}
        self.pattern_hits = 0
        self.pattern_misses = 0
        #: walks :meth:`mask_outcome` took with the reference simulator
        #: (a sweep counts its walk kinds from this tally's delta)
        self.reference_walks = 0

    @property
    def naive_network(self) -> Network:
        """The reference simulator's network, for the walks :meth:`mask`
        sends there."""
        if self._naive_network is None:
            self._naive_network = Network(self.graph)
        return self._naive_network

    def mask(self, failures: FailureSet) -> int | None:
        """The link bitmask of ``failures``, or ``None`` where the reference
        walks must run: on a naive state, and for a set naming links
        outside the index.  Every indexed path asks this first."""
        return None if self.naive else self.network.mask_of(failures)

    def pattern(self, algorithm, *unit) -> MemoizedPattern:
        """``algorithm.build(graph, *unit)`` with its decision table, built once.

        ``unit`` is a destination (π^t), a ``(source, destination)`` pair
        (π^{s,t}), or nothing for the touring pattern (π^∀).  Keyed by
        algorithm *instance*: the entry pins the algorithm, so its id
        cannot be recycled while the entry lives.  A FIFO over
        :data:`ALGORITHM_CACHE_LIMIT` instances bounds what a long-lived
        state retains; a build that raises caches nothing.
        """
        entry = self._patterns.get(id(algorithm))
        if entry is None:
            while len(self._patterns) >= ALGORITHM_CACHE_LIMIT:
                self._patterns.pop(next(iter(self._patterns)))
            entry = self._patterns[id(algorithm)] = (algorithm, {})
        memos = entry[1]
        memo = memos.get(unit)
        if memo is None:
            self.pattern_misses += 1
            memo = memos[unit] = MemoizedPattern(self.network, algorithm.build(self.graph, *unit))
        else:
            self.pattern_hits += 1
        return memo

    def pattern_for(self, algorithm, source: Node, destination: Node) -> MemoizedPattern:
        """:meth:`pattern` for the packet ``source → destination``: the unit
        its routing model keys on (the pair, the destination, or none)."""
        if isinstance(algorithm, TouringAlgorithm):
            return self.pattern(algorithm)
        if isinstance(algorithm, SourceDestinationAlgorithm):
            return self.pattern(algorithm, source, destination)
        return self.pattern(algorithm, destination)

    def patterns_cached(self) -> int:
        """How many built patterns this state holds.  Reads a snapshot, so
        a stats reader on another thread never iterates a changing dict."""
        return sum(len(memos) for _, memos in list(self._patterns.values()))

    def route(
        self,
        pattern: MemoizedPattern,
        source: Node,
        destination: Node,
        failures: FailureSet,
    ) -> RouteResult:
        """Label-level routing; falls back to the naive walk where
        :meth:`mask` gives ``None``."""
        network = self.network
        fmask = self.mask(failures)
        src = network.index.get(source)
        dst = network.index.get(destination)
        if fmask is None or src is None or dst is None:
            return naive_route(self.naive_network, pattern.pattern, source, destination, failures)
        return route_indexed(network, pattern, src, dst, fmask)

    def mask_outcome(
        self,
        memo: MemoizedPattern,
        destination: Node,
        failures: FailureSet,
        wanted: set | None = None,
    ) -> tuple[int, Counterexample | None]:
        """Does every source in the destination's surviving component
        reach it under ``failures``?  The one per-mask delivery check.

        Sources are walked in sorted component order (skipping the
        destination and, with ``wanted``, every source outside it); walks
        share a delivered-state set, so a walk that joins a state already
        proven to deliver stops early.  The first failing source is
        re-walked for its exact trace.  Where :meth:`mask` gives ``None``
        (and for an un-indexed destination) each source takes the
        reference walk, in the same sorted order.  Returns ``(scenarios
        checked, Counterexample | None)``.  The covers walks record no
        telemetry (callers batch their own counters); only the indexed
        counterexample re-walk counts, as one ``route`` walk.
        """
        network = self.network
        dest_idx = network.index.get(destination)
        fmask = self.mask(failures) if dest_idx is not None else None
        checked = 0
        if fmask is None:
            naive = self.naive_network
            for source in sorted_nodes(component_of(self.graph, destination, failures)):
                if source == destination or (wanted is not None and source not in wanted):
                    continue
                checked += 1
                self.reference_walks += 1
                result = naive_route(naive, memo.pattern, source, destination, failures)
                if not result.delivered:
                    return checked, Counterexample(source, destination, failures, result)
            return checked, None
        if network.m <= EXHAUSTIVE_LINK_LIMIT:
            # the per-mask partition cache pays off when masks repeat
            # across destinations (exhaustive sweeps); on larger, sampled
            # graphs it would cache every random mask's prefixes forever
            component = self.tracker.component_sorted(fmask, dest_idx)
        else:
            component = sorted_nodes(
                network.labels[i] for i in network.component_of_indices(fmask, dest_idx)
            )
        index = network.index
        delivered: set[int] = set()
        for source in component:
            if source == destination or (wanted is not None and source not in wanted):
                continue
            checked += 1
            if not _route_covers(network, memo, index[source], dest_idx, fmask, delivered):
                # re-walk for the exact trace (decisions are all cached)
                result = route_indexed(network, memo, index[source], dest_idx, fmask)
                return checked, Counterexample(source, destination, failures, result)
        return checked, None

    def connected(self, source: Node, destination: Node, failures: FailureSet) -> bool:
        """Engine twin of :func:`repro.graphs.connectivity.are_connected`.

        Uses the mask-cached partition on small graphs (where sweeps
        revisit masks), an :meth:`IndexedNetwork.distances` flood on
        large ones (where caching every random mask's partition would
        not pay), and the reference one where :meth:`mask` gives ``None``.
        """
        if source == destination:
            return True
        network = self.network
        fmask = self.mask(failures)
        src = network.index.get(source)
        dst = network.index.get(destination)
        if fmask is None or src is None or dst is None:
            from ...graphs.connectivity import are_connected

            return are_connected(self.graph, source, destination, failures)
        if network.m <= EXHAUSTIVE_LINK_LIMIT:
            return self.tracker.same_component(fmask, src, dst)
        return network.distances(fmask, src)[dst] >= 0


@dataclass
class ScenarioGrid:
    """A (destination × source × failure set) scenario grid.

    ``None`` fields mean the checker defaults: all destinations, every
    source in the destination's surviving component, and the failure
    sets of :func:`~repro.core.resilience.default_failure_sets`.
    ``pairs`` overrides destinations × sources for the
    source-destination model.
    """

    destinations: Sequence[Node] | None = None
    sources: Sequence[Node] | None = None
    pairs: Sequence[tuple[Node, Node]] | None = None
    failure_sets: Iterable[FailureSet] | None = None


# ---------------------------------------------------------------------------
# Fork fan-out.
# ---------------------------------------------------------------------------

_FORK_PAYLOAD: Callable[[Any], Any] | None = None

#: how often the receive loop wakes up to check worker health / timeout
_POLL_SECONDS = 0.02
#: fresh pools tried for the items a broken pool lost, before the
#: serial pass, sleeping ``_BACKOFF_SECONDS * attempt`` before each
_RETRIES = 2
_BACKOFF_SECONDS = 0.05
#: past a wall-clock deadline, how long a deadline-bound fan-out
#: (``run_grid``'s) still waits for its results before abandoning its pool
HANG_GRACE_SECONDS = 1.0


def _fork_call(task: tuple[int, Any, Any]) -> tuple[int, Any, Any]:
    index, item, fault = task
    if fault is not None:
        # injected-fault verdicts are decided in the parent (fork copies
        # of the plan never report back) and executed here, in the worker
        if fault.kind == "worker-crash":
            os._exit(3)
        elif fault.kind == "slow-chunk":
            time.sleep(fault.seconds)
    assert _FORK_PAYLOAD is not None
    telemetry = _obs.active()
    if telemetry is None:
        return index, _FORK_PAYLOAD(item), None
    # the forked worker inherited the parent's registry at fork time:
    # snapshot before/after the payload and ship only the delta home
    # with the result (the parent merges it, so worker-side counters
    # equal what a serial run would have recorded)
    before = telemetry.registry.snapshot()
    value = _FORK_PAYLOAD(item)
    return index, value, diff_snapshots(before, telemetry.registry.snapshot())


def parallel_map(
    function: Callable[[Any], Any],
    items: Sequence[Any],
    processes: int,
    timeout: float | None = None,
) -> list[Any]:
    """``[function(x) for x in items]`` with a crash-recovering fan-out.

    Uses the ``fork`` start method so arbitrary (closure) functions and
    unpicklable build inputs work: the callable is inherited by the
    forked workers via a module global, never pickled.  Items stream
    through ``imap_unordered`` so every completed result is salvaged the
    moment it arrives; when a fork dies (detected by the worker pid set
    changing or a nonzero exit code) or a pool still misses results
    ``timeout`` seconds after it started (on the monotonic clock, however
    recently a result landed), only the *missing* items are retried —
    up to ``_RETRIES`` fresh pools with linear backoff, then a final
    serial pass completes whatever is still missing, so a poisoned item
    can never lose its siblings' work.  Workers inherit whatever warm state
    ``function`` closes over (engine indexes, decision tables) as
    copy-on-write pages.

    Pools are entered as context managers, so workers are terminated on
    every path — including KeyboardInterrupt and exceptions raised by
    ``function`` itself, which propagate exactly as in the serial loop
    (a real workload bug is not a crash to be retried).  Fan-out
    *infrastructure* failures (fork unavailable, unpicklable
    items/results) drop to the serial pass with serial semantics.
    """
    items = list(items)
    if processes <= 1 or len(items) <= 1:
        return [function(item) for item in items]
    global _FORK_PAYLOAD
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return [function(item) for item in items]
    telemetry = _obs.active()
    previous = _FORK_PAYLOAD
    _FORK_PAYLOAD = function
    results: dict[int, Any] = {}
    with _obs.span("parallel_map", items=len(items), processes=processes):
        try:
            for attempt in range(_RETRIES + 1):
                pending = [i for i in range(len(items)) if i not in results]
                if not pending:
                    break
                if attempt:
                    time.sleep(_BACKOFF_SECONDS * attempt)
                    if telemetry is not None:
                        telemetry.count(
                            "repro_parallel_retries_total",
                            help="parallel_map retry rounds after a broken pool",
                        )
                        telemetry.point("parallel_retry", attempt=attempt, pending=len(pending))
                tasks = [(i, items[i], _fault_fire("worker", i, attempt)) for i in pending]
                started = time.monotonic()
                try:
                    pool = context.Pool(min(processes, len(pending)))
                except OSError:  # pragma: no cover - fork failed (resource limits)
                    break
                broken = False
                try:
                    with pool:
                        # _maintain_pool silently respawns dead workers, so a
                        # changed pid set is the durable sign of an abnormal
                        # death (workers never exit on their own before close)
                        initial_pids = {worker.pid for worker in pool._pool}
                        iterator = pool.imap_unordered(_fork_call, tasks)
                        received = 0
                        while received < len(tasks):
                            try:
                                index, value, delta = iterator.next(timeout=_POLL_SECONDS)
                            except multiprocessing.TimeoutError:
                                workers = pool._pool
                                died = {w.pid for w in workers} != initial_pids or any(
                                    w.exitcode not in (None, 0) for w in workers
                                )
                                late = timeout is not None and time.monotonic() - started >= timeout
                                if died or late:
                                    broken = True
                                    if telemetry is not None:
                                        reason = "worker_died" if died else "timeout"
                                        telemetry.count(
                                            "repro_parallel_pool_breaks_total",
                                            help="parallel_map pools abandoned, by reason",
                                            reason=reason,
                                        )
                                        telemetry.point(
                                            "parallel_pool_broken",
                                            reason=reason,
                                            received=received,
                                            tasks=len(tasks),
                                        )
                                    break
                                continue
                            results[index] = value
                            received += 1
                            if delta is not None and telemetry is not None:
                                # the worker's metrics delta rides home
                                # with its result; merging keeps parent
                                # counters equal to a serial run's
                                telemetry.registry.merge(delta)
                            if telemetry is not None:
                                telemetry.count(
                                    "repro_parallel_chunks_total",
                                    help="parallel_map chunk results received from workers",
                                )
                except (
                    pickle.PicklingError,
                    multiprocessing.pool.MaybeEncodingError,
                ):  # pragma: no cover - unpicklable items/results: serial semantics win
                    break
                if not broken:
                    break
        finally:
            _FORK_PAYLOAD = previous
        missing = [index for index in range(len(items)) if index not in results]
        if missing and telemetry is not None:
            telemetry.count(
                "repro_parallel_serial_fallback_total",
                len(missing),
                help="items completed by the serial fallback pass",
            )
            telemetry.point("parallel_serial_fallback", items=len(missing))
        for index in missing:
            results[index] = function(items[index])
    return [results[index] for index in range(len(items))]


# ---------------------------------------------------------------------------
# Single-pattern sweep (the inner loop of every checker).
# ---------------------------------------------------------------------------


def sweep_pattern_resilience(
    state: EngineState,
    memo: MemoizedPattern,
    destination: Node,
    sources: Iterable[Node] | None = None,
    failure_sets: Iterable[FailureSet] | None = None,
    backend: str = "engine",
) -> Verdict:
    """The sweep behind ``check_pattern_resilience``, for one memoized
    pattern (usually :meth:`EngineState.pattern`'s): one
    :meth:`EngineState.mask_outcome` per failure set, in order, up to
    the first counterexample.  ``backend="numpy"`` batches the failure
    masks through the vectorized walker where the instance supports it
    (and falls back to this scalar path, same verdicts, where it does
    not).
    """
    telemetry = _obs.active()
    if telemetry is None:
        return _sweep_pattern_resilience(state, memo, destination, sources, failure_sets, backend)
    with telemetry.span("pattern_sweep", destination=destination, backend=backend):
        verdict = _sweep_pattern_resilience(
            state, memo, destination, sources, failure_sets, backend
        )
    telemetry.count(
        "repro_engine_scenarios_total",
        verdict.scenarios_checked,
        help="(source, destination, failure set) scenarios evaluated",
    )
    return verdict


def _sweep_pattern_resilience(
    state: EngineState,
    memo: MemoizedPattern,
    destination: Node,
    sources: Iterable[Node] | None = None,
    failure_sets: Iterable[FailureSet] | None = None,
    backend: str = "engine",
) -> Verdict:
    if backend == "numpy":
        from .vectorized import VectorizedUnsupported, pattern_sweep_numpy

        try:
            return pattern_sweep_numpy(
                state, memo, destination, sources=sources, failure_sets=failure_sets
            )
        except VectorizedUnsupported as unsupported:
            telemetry = _obs.active()
            if telemetry is not None:
                telemetry.count(
                    "repro_numpy_fallbacks_total",
                    help="vectorized attempts that fell back to the scalar engine",
                    site="pattern",
                    reason=unsupported.reason,
                )
            if unsupported.failure_sets is not None:
                # a consumed one-shot iterator, reconstructed for us
                failure_sets = unsupported.failure_sets

    if failure_sets is not None:
        failure_iter: Iterable[FailureSet] = failure_sets
        exhaustive = False
    else:
        failure_iter, exhaustive = default_failure_sets(state.graph)
    wanted = None if sources is None else set(sources)
    checked = 0
    # walk accounting is batched over the WHOLE sweep (one registry
    # flush in the finally below): a covers walk is sub-microsecond, so
    # even a per-walk counter update would dominate it
    telemetry = _obs.active()
    memo_before = len(memo.table)
    reference_before = state.reference_walks
    try:
        for failures in failure_iter:
            count, counterexample = state.mask_outcome(memo, destination, failures, wanted)
            checked += count
            if counterexample is not None:
                return Verdict(False, checked, counterexample, exhaustive)
        return Verdict(True, checked, exhaustive=exhaustive)
    finally:
        if telemetry is not None:
            # a naive state walks every scenario with the reference
            # simulator, an engine state each one outside its index
            reference = state.reference_walks - reference_before
            _record_walk(
                telemetry, "covers", memo.table, memo_before, None, walks=checked - reference
            )
            # reference walks ask the pattern itself: no table misses
            _record_walk(
                telemetry, "reference", memo.table, len(memo.table), None, walks=reference
            )


# ---------------------------------------------------------------------------
# Grid sweeps per routing model.
# ---------------------------------------------------------------------------


def sweep_resilience(
    graph: nx.Graph,
    algorithm: DestinationAlgorithm | SourceDestinationAlgorithm | TouringAlgorithm,
    scenarios: ScenarioGrid | None = None,
    state: EngineState | None = None,
    backend: str = "engine",
    deadline: Deadline | None = None,
) -> Verdict:
    """Evaluate a whole scenario grid for one algorithm, batched: the
    aggregate :class:`~repro.core.resilience.Verdict`.

    Dispatches on the algorithm's routing model.  ``state`` injects a
    prebuilt (usually session-owned) :class:`EngineState` so sweeps
    reuse its caches.  ``backend="numpy"`` routes every per-unit check
    through the vectorized mask walker (same verdicts; instances it
    cannot handle fall back to the scalar engine).

    ``deadline`` makes the sweep cooperative: it is checked between
    grid units (destinations / pairs / failure buckets) and on expiry
    the sweep stops cleanly, returning the verdict over the units
    actually evaluated with ``exhaustive=False``.  Completed units are
    always whole, so their verdicts match an uncut run; the numpy
    batched paths check only at unit entry (a vectorized batch is one
    unit of work).
    """
    grid = scenarios if scenarios is not None else ScenarioGrid()
    if state is not None and state.graph is not graph:
        raise ValueError("the injected EngineState indexes a different graph")
    if deadline is not None and deadline.expired():
        return Verdict(True, 0, exhaustive=False)
    if isinstance(algorithm, TouringAlgorithm):
        model = "touring"
    elif isinstance(algorithm, SourceDestinationAlgorithm):
        model = "source-destination"
    elif isinstance(algorithm, DestinationAlgorithm):
        model = "destination"
    else:
        raise TypeError(f"not a routing algorithm: {algorithm!r}")
    telemetry = _obs.active()
    if telemetry is not None:
        telemetry.count(
            "repro_engine_sweeps_total", help="sweep_resilience calls, by model", model=model
        )
    with _obs.span("sweep_resilience", model=model, backend=backend):
        if state is None:
            state = EngineState(graph)
        if model == "touring":
            return _sweep_touring(graph, algorithm, grid, state, backend, deadline)
        return _sweep_units(graph, algorithm, grid, state, backend, deadline)


def _sweep_units(
    graph: nx.Graph,
    algorithm: DestinationAlgorithm | SourceDestinationAlgorithm,
    grid: ScenarioGrid,
    state: EngineState,
    backend: str,
    deadline: Deadline | None,
) -> Verdict:
    """One pattern sweep per grid unit, in grid order, up to the first
    failing unit.  A unit is a destination (π^t), whose pattern serves
    every source of ``grid.sources``, or an (s, t) pair (π^{s,t}), whose
    pattern serves only s."""
    destinations = list(grid.destinations) if grid.destinations is not None else list(graph.nodes)
    pair_model = isinstance(algorithm, SourceDestinationAlgorithm)
    if not pair_model:
        units: list[Any] = destinations
    elif grid.pairs is not None:
        units = list(grid.pairs)
    else:
        sources = list(grid.sources) if grid.sources is not None else list(graph.nodes)
        units = [(s, t) for t in destinations for s in sources if s != t]
    # one list for every unit: an explicit family may be a one-shot iterator
    materialized = list(grid.failure_sets) if grid.failure_sets is not None else None
    done = total = 0
    exhaustive = True
    for unit in units:
        if deadline is not None and deadline.expired():
            break  # partial sweep: the aggregate is flagged non-exhaustive
        if pair_model:
            source, destination = unit
            memo = state.pattern(algorithm, source, destination)
            served = [source]
        else:
            destination = unit
            memo = state.pattern(algorithm, destination)
            served = grid.sources
        verdict = sweep_pattern_resilience(
            state,
            memo,
            destination,
            sources=served,
            failure_sets=materialized,
            backend=backend,
        )
        done += 1
        total += verdict.scenarios_checked
        if not verdict.resilient:
            verdict.scenarios_checked = total
            return verdict
        exhaustive = exhaustive and verdict.exhaustive
        if deadline is not None:
            deadline.charge()
    complete = done == len(units)
    return Verdict(True, total, exhaustive=exhaustive and materialized is None and complete)


def _sweep_touring(
    graph: nx.Graph,
    algorithm: TouringAlgorithm,
    grid: ScenarioGrid,
    state: EngineState,
    backend: str,
    deadline: Deadline | None,
) -> Verdict:
    network = state.network
    tracker = state.tracker
    use_tracker = network.m <= EXHAUSTIVE_LINK_LIMIT
    memo = state.pattern(algorithm)
    starts = list(grid.sources) if grid.sources is not None else list(graph.nodes)
    explicit_sets = grid.failure_sets
    if backend == "numpy":
        from .vectorized import VectorizedUnsupported, touring_sweep_numpy

        try:
            return touring_sweep_numpy(
                state,
                memo,
                starts,
                failure_sets=explicit_sets,
                exhaustive=False if explicit_sets is not None else None,
            )
        except VectorizedUnsupported as unsupported:
            telemetry = _obs.active()
            if telemetry is not None:
                telemetry.count(
                    "repro_numpy_fallbacks_total",
                    help="vectorized attempts that fell back to the scalar engine",
                    site="touring",
                    reason=unsupported.reason,
                )
            if unsupported.failure_sets is not None:
                # a one-shot generator was consumed before the fallback:
                # the exception carries the reconstructed family
                explicit_sets = unsupported.failure_sets
    # single pattern, single pass: stream the failure sets, never
    # materialize (k-resilient touring can pass ~200k-set generators)
    if explicit_sets is not None:
        failure_iter: Iterable[FailureSet] = explicit_sets
        exhaustive = False
    else:
        failure_iter, exhaustive = default_failure_sets(graph)
    index = network.index
    checked = 0
    # same sweep-level walk batching as the pattern sweep above: one
    # registry flush for the whole mask loop, never one per tour
    telemetry = _obs.active()
    tour_walks = reference_walks = 0
    memo_before = len(memo.table)
    try:
        for failures in failure_iter:
            if deadline is not None and deadline.expired():
                # cut between failure buckets: the covered prefix is whole
                exhaustive = False
                break
            fmask = state.mask(failures)
            for start in starts:
                checked += 1
                covered = True  # a lone node is toured without a walk
                if fmask is None or start not in index:
                    component: frozenset | set[int] = component_of(graph, start, failures)
                    if len(component) > 1:
                        reference_walks += 1
                        covered = naive_tour(
                            state.naive_network, memo.pattern, start, failures
                        ).tours(component)
                else:
                    start_idx = index[start]
                    if use_tracker:
                        component = tracker.component_index_set(fmask, start_idx)
                    else:
                        component = set(network.component_of_indices(fmask, start_idx))
                    if len(component) > 1:
                        tour_walks += 1
                        recurrent = _tour_recurrent_indices(network, memo, start_idx, fmask)
                        covered = recurrent is not None and recurrent >= component
                if not covered:
                    return Verdict(
                        False,
                        checked,
                        Counterexample(
                            start, None, failures, None, note="tour does not cover component"
                        ),
                        exhaustive,
                    )
            if deadline is not None:
                deadline.charge()
        return Verdict(True, checked, exhaustive=exhaustive)
    finally:
        if telemetry is not None:
            _record_walk(telemetry, "tour", memo.table, memo_before, None, walks=tour_walks)
            # reference tours ask the pattern itself: no table misses
            _record_walk(
                telemetry, "reference", memo.table, len(memo.table), None, walks=reference_walks
            )
