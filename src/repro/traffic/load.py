"""Batched multi-flow routing: traffic matrices → per-link load counters.

The single-packet checkers ask *whether* a packet arrives; the congestion
line of work (Bankhamer, Elsässer, Schmid 2020/2021) asks how much *load*
the rerouted flows pile onto individual links.  This module routes a whole
traffic matrix through a static forwarding pattern under one failure set
and accumulates exact integer per-link loads — in one pass per failure
mask instead of one walk per flow.

**How the batching works.**  Forwarding is deterministic, so under a fixed
``(pattern, destination, failure mask)`` the packet trajectory is a
functional graph over packed ``(node, in-port)`` states: every state has
at most one outgoing transition.  :class:`_DestinationFlows` explores that
graph lazily (sharing the engine's memoized decision tables), classifies
each state as delivered / dropped / looping, and records the transition's
link.  Demand volumes are then injected at the flows' start states and
propagated through the functional graph in decreasing suffix-depth order;
a link's load is the total volume crossing its transition.  Trajectory
suffixes shared by many flows are therefore walked **once**, yet the
resulting loads equal a per-packet simulation link for link:

* a delivered flow loads every link of its walk (``RouteResult.path``);
* a dropped flow loads its walk up to the drop;
* a looping flow loads its transient prefix plus each cycle link exactly
  once — precisely the prefix the naive walk traverses before a
  ``(node, in-port)`` state repeats, regardless of where it entered the
  cycle.

:func:`per_packet_loads` is the naive reference implementation (one
:func:`repro.core.simulator.route` call per demand) used for differential
testing; :class:`TrafficEngine` is the batched router — the one load
router of every session, which routes every failure set of a naive
session's state through :func:`per_packet_loads` — and
:func:`route_matrix` the one-shot convenience wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro import obs as _obs

from ..core.engine.memo import DROP, MemoizedPattern
from ..core.engine.sweep import EngineState
from ..core.model import (
    DestinationAlgorithm,
    ForwardingPattern,
    SourceDestinationAlgorithm,
    TouringAlgorithm,
)
from ..core.simulator import Network, Outcome, route as naive_route
from ..graphs.connectivity import are_connected, surviving_graph
from ..graphs.edges import EMPTY_FAILURES, Edge, FailureSet, edge
from .matrices import Demand, TrafficMatrix

RoutingAlgorithm = DestinationAlgorithm | SourceDestinationAlgorithm | TouringAlgorithm

#: sentinel next-state for the transition that arrives at the destination
_DELIVERED_EXIT = -1


@dataclass
class LoadReport:
    """Link loads and volume accounting for one (matrix, failure set) run.

    ``loads`` maps every canonical graph link (failed ones included) to
    the integer volume that crossed it.  The volume counters partition
    the matrix by outcome; ``disconnected_volume`` is the orthogonal
    classification "source and destination were disconnected" (such
    volume also shows up as dropped or looped — it cannot arrive).
    """

    loads: dict[Edge, int]
    demands: int
    total_volume: int
    delivered_volume: int
    dropped_volume: int
    looped_volume: int
    disconnected_volume: int
    #: volume-weighted hop count of the delivered traffic
    delivered_hops: int
    #: Σ volume · (hops / surviving shortest path) over delivered demands
    stretch_volume: float

    @property
    def max_load(self) -> int:
        return max(self.loads.values(), default=0)

    def percentile(self, q: float) -> int:
        """Nearest-rank ``q``-th percentile of the per-link loads."""
        if not self.loads:
            return 0
        ranked = sorted(self.loads.values())
        rank = max(1, -(-len(ranked) * q // 100))  # ceil without floats
        return ranked[int(rank) - 1]

    @property
    def p99_load(self) -> int:
        return self.percentile(99)

    @property
    def delivered_fraction(self) -> float:
        return self.delivered_volume / self.total_volume if self.total_volume else 0.0

    @property
    def mean_stretch(self) -> float:
        """Volume-weighted mean stretch of the delivered traffic."""
        return self.stretch_volume / self.delivered_volume if self.delivered_volume else 0.0


@dataclass
class _VolumeAccounting:
    """Per-outcome volume counters of one :meth:`TrafficEngine.load` call.

    Each demand goes through :meth:`add` in (group, member) order; the
    float ``stretch_volume`` therefore sums in a fixed order, and a
    report is reproducible bit for bit.
    """

    delivered_volume: int = 0
    dropped_volume: int = 0
    looped_volume: int = 0
    disconnected_volume: int = 0
    delivered_hops: int = 0
    stretch_volume: float = 0.0

    def add(self, volume: int, delivered: bool, looped: bool, hops: int, shortest: int) -> None:
        """Account one demand: ``shortest`` is the surviving-graph hop
        distance (``< 0`` when source and destination are disconnected)."""
        if delivered:
            self.delivered_volume += volume
            self.delivered_hops += volume * hops
            self.stretch_volume += volume * (hops / shortest)
        else:
            if looped:
                self.looped_volume += volume
            else:
                self.dropped_volume += volume
            if shortest < 0:
                self.disconnected_volume += volume


class _DestinationFlows:
    """Lazy functional-graph classification for one (memo, dest, fmask).

    Packed states are ``node * (n + 1) + inport + 1`` (``⊥`` = 0 offset),
    exactly as in :mod:`repro.core.engine.memo`.  ``succ[state]`` is
    ``(link index, next state)`` — next state :data:`_DELIVERED_EXIT` for
    the arrival transition — or ``None`` where the pattern drops.
    ``depth[state]`` is the number of transitions the naive walk from
    ``state`` performs before it terminates (for looping states: the
    cycle length — a walk entering anywhere traverses each cycle
    transition exactly once before a state repeats).
    """

    def __init__(
        self,
        state: EngineState,
        memo: MemoizedPattern,
        destination: int,
        fmask: int,
        link_index: dict[tuple[int, int], int],
    ):
        self.engine = state
        self.network = state.network
        self.memo = memo
        self.destination = destination
        self.fmask = fmask
        self.link_index = link_index
        self.succ: dict[int, tuple[int, int] | None] = {}
        self.outcome: dict[int, Outcome] = {}
        self.depth: dict[int, int] = {}
        self.cycle_of: dict[int, int] = {}
        self.cycles: list[list[int]] = []
        self._dist: list[int] | None = None

    # ------------------------------------------------------------------
    # Classification.
    # ------------------------------------------------------------------

    def explore(self, start: int) -> None:
        """Classify every state on the walk from ``start`` (idempotent)."""
        outcome = self.outcome
        if start in outcome:
            return
        network = self.network
        memo = self.memo
        stride = network.n + 1
        shift = network.m
        incident = network.incident_mask
        table = memo.table
        decide = memo._decide
        link_index = self.link_index
        trail: list[int] = []
        position: dict[int, int] = {}
        state = start
        while True:
            if state in outcome:
                self._unwind(trail, self.depth[state], outcome[state])
                return
            if state in position:
                # a fresh cycle: trail[j:] loops forever
                j = position[state]
                cycle = trail[j:]
                cid = len(self.cycles)
                self.cycles.append(cycle)
                length = len(cycle)
                for member in cycle:
                    outcome[member] = Outcome.LOOP
                    self.depth[member] = length
                    self.cycle_of[member] = cid
                self._unwind(trail[:j], length, Outcome.LOOP)
                return
            node = state // stride
            inport = state % stride - 1
            local_mask = self.fmask & incident[node]
            key = (state << shift) | local_mask
            decision = table.get(key)
            if decision is None:
                decision = decide(node, inport, local_mask)
                table[key] = decision
            if decision < 0:
                self.succ[state] = None
                verdict = Outcome.DROPPED if decision == DROP else Outcome.ILLEGAL
                outcome[state] = verdict
                self.depth[state] = 0
                self._unwind(trail, 0, verdict)
                return
            link = link_index[(node, decision) if node < decision else (decision, node)]
            if decision == self.destination:
                self.succ[state] = (link, _DELIVERED_EXIT)
                outcome[state] = Outcome.DELIVERED
                self.depth[state] = 1
                self._unwind(trail, 1, Outcome.DELIVERED)
                return
            next_state = decision * stride + node + 1
            self.succ[state] = (link, next_state)
            position[state] = len(trail)
            trail.append(state)
            state = next_state

    def _unwind(self, trail: list[int], base_depth: int, verdict: Outcome) -> None:
        depth = base_depth
        for state in reversed(trail):
            depth += 1
            self.depth[state] = depth
            self.outcome[state] = verdict

    # ------------------------------------------------------------------
    # Volume propagation.
    # ------------------------------------------------------------------

    def accumulate(self, injections: dict[int, int], loads: list[int]) -> None:
        """Add this group's link loads: ``injections`` maps start state →
        volume; ``loads`` is the shared per-link counter array."""
        for state in injections:
            self.explore(state)
        volume_at = dict(injections)
        cycle_volume = [0] * len(self.cycles)
        cycle_of = self.cycle_of
        depth = self.depth
        succ = self.succ
        # transitions strictly decrease depth (cycles are handled as
        # collapsed sinks), so one descending sweep settles every state
        for state in sorted(
            (s for s in depth if s not in cycle_of), key=depth.__getitem__, reverse=True
        ):
            volume = volume_at.get(state)
            if not volume:
                continue
            transition = succ[state]
            if transition is None:
                continue  # dropped here: earlier links already counted
            link, next_state = transition
            loads[link] += volume
            if next_state == _DELIVERED_EXIT:
                continue
            cid = cycle_of.get(next_state)
            if cid is not None:
                cycle_volume[cid] += volume
            else:
                volume_at[next_state] = volume_at.get(next_state, 0) + volume
        for cid, volume in enumerate(cycle_volume):
            if volume:
                for state in self.cycles[cid]:
                    link, _ = self.succ[state]  # type: ignore[misc]
                    loads[link] += volume

    # ------------------------------------------------------------------
    # Distances (for stretch and disconnection accounting).
    # ------------------------------------------------------------------

    def distance_to_destination(self, source: int) -> int:
        """Hops from ``source`` to the destination in the surviving graph
        (``-1`` when disconnected).  One flood per flows group."""
        if self._dist is None:
            self._dist = self.network.distances(self.fmask, self.destination)
        return self._dist[source]


class TrafficEngine:
    """Batched multi-flow router for one (graph, algorithm) pair.

    Reuses one :class:`EngineState` (index maps, local-view caches) and
    takes each pattern with its decision table from the state's pattern
    cache (:meth:`EngineState.pattern`), so sweeping thousands of failure
    sets pays for pattern construction once, shared with every sweep,
    checker and estimator on the same state and algorithm instance.
    Falls back to :func:`per_packet_loads` where the state's
    :meth:`~repro.core.engine.sweep.EngineState.mask` is ``None``: on a
    naive session's state, and for a failure set naming links outside
    the graph (naive-matching semantics, exactly like the resilience
    checkers).
    """

    def __init__(self, graph: nx.Graph | EngineState, algorithm: RoutingAlgorithm):
        if isinstance(graph, EngineState):
            self.state = graph
        else:
            self.state = EngineState(graph)
        self.graph = self.state.graph
        self.algorithm = algorithm
        network = self.state.network
        #: (low index, high index) -> link bit position
        self.link_index: dict[tuple[int, int], int] = {
            (a, b) if a < b else (b, a): i for i, (a, b) in enumerate(network.link_ends)
        }

    def load_sweep(
        self,
        demands: TrafficMatrix,
        failure_sets: list[FailureSet],
        deadline=None,
    ) -> list[LoadReport]:
        """One :class:`LoadReport` per failure set, in order: exactly the
        ``[self.load(demands, f) for f in failure_sets]`` loop, on every
        session backend.

        ``deadline`` (a :class:`~repro.runtime.deadline.Deadline` /
        :class:`~repro.runtime.deadline.Budget`) makes the sweep stop
        cleanly between failure sets once expired, returning the
        reports completed so far — a prefix of the full sweep, each
        report identical to what the uncut sweep would produce.
        """
        sets = list(failure_sets)
        telemetry = _obs.active()
        with _obs.span("load_sweep", demands=len(demands), failure_sets=len(sets)):
            reports = []
            for failures in sets:
                if deadline is not None and deadline.expired():
                    break
                reports.append(self.load(demands, failures))
                if deadline is not None:
                    deadline.charge()
            if telemetry is not None:
                telemetry.count(
                    "repro_traffic_load_reports_total",
                    len(reports),
                    help="per-failure-set load reports produced",
                )
            return reports

    def _validate_demands(self, demands: TrafficMatrix) -> None:
        index = self.state.network.index
        for demand in demands:
            if demand.source not in index or demand.destination not in index:
                raise ValueError(
                    f"demand endpoint not in graph: {demand.source!r} -> {demand.destination!r}"
                )

    def grouped_demands(
        self, demands: TrafficMatrix
    ) -> dict[tuple[int, int], tuple[MemoizedPattern, dict[int, int], list[Demand]]]:
        """Demands grouped per (memoized pattern, destination index).

        Each value is ``(memo, injections, members)`` with injections
        keyed by packed ``(source, ⊥)`` start state.  The group order is
        the order :meth:`load` accounts demands in.
        """
        network = self.state.network
        index = network.index
        stride = network.n + 1
        groups: dict[tuple[int, int], tuple[MemoizedPattern, dict[int, int], list[Demand]]] = {}
        for demand in demands:
            memo = self.state.pattern_for(self.algorithm, demand.source, demand.destination)
            key = (id(memo), index[demand.destination])
            if key not in groups:
                groups[key] = (memo, {}, [])
            _, injections, members = groups[key]
            start = index[demand.source] * stride  # (source, ⊥)
            injections[start] = injections.get(start, 0) + demand.volume
            members.append(demand)
        return groups

    def load(self, demands: TrafficMatrix, failures: FailureSet = EMPTY_FAILURES) -> LoadReport:
        """Route the whole matrix under ``failures`` and count link loads."""
        network = self.state.network
        index = network.index
        self._validate_demands(demands)
        fmask = self.state.mask(failures)
        if fmask is None:
            # a naive state, or failure entries outside the canonical
            # link set: keep the naive semantics by routing per packet
            return per_packet_loads(self.graph, self.algorithm, demands, failures)

        # group demands per (memoized pattern, destination): the whole
        # group shares one functional graph and one volume propagation
        groups = self.grouped_demands(demands)
        stride = network.n + 1
        loads = [0] * network.m
        accounting = _VolumeAccounting()
        for (_, destination), (memo, injections, members) in groups.items():
            flows = _DestinationFlows(self.state, memo, destination, fmask, self.link_index)
            flows.accumulate(injections, loads)
            for demand in members:
                start = index[demand.source] * stride
                verdict = flows.outcome[start]
                accounting.add(
                    demand.volume,
                    delivered=verdict is Outcome.DELIVERED,
                    looped=verdict is Outcome.LOOP,
                    hops=flows.depth[start] if verdict is Outcome.DELIVERED else 0,
                    shortest=flows.distance_to_destination(index[demand.source]),
                )
        links = network.links
        return LoadReport(
            loads={links[i]: loads[i] for i in range(network.m)},
            demands=len(demands),
            total_volume=sum(demand.volume for demand in demands),
            delivered_volume=accounting.delivered_volume,
            dropped_volume=accounting.dropped_volume,
            looped_volume=accounting.looped_volume,
            disconnected_volume=accounting.disconnected_volume,
            delivered_hops=accounting.delivered_hops,
            stretch_volume=accounting.stretch_volume,
        )


def route_matrix(
    graph: nx.Graph | EngineState,
    algorithm: RoutingAlgorithm,
    demands: TrafficMatrix,
    failures: FailureSet = EMPTY_FAILURES,
) -> LoadReport:
    """One-shot batched load computation (build a fresh engine and run).

    Sweeping many failure sets?  Build one :class:`TrafficEngine` and
    call :meth:`TrafficEngine.load` per set instead — patterns and
    decision tables then amortize across the sweep.
    """
    return TrafficEngine(graph, algorithm).load(demands, failures)


def per_packet_loads(
    graph: nx.Graph,
    algorithm: RoutingAlgorithm,
    demands: TrafficMatrix,
    failures: FailureSet = EMPTY_FAILURES,
) -> LoadReport:
    """Naive reference: one simulated packet per demand, loads summed.

    Semantically identical to :meth:`TrafficEngine.load` (the batched
    router is differentially tested against this), just one full walk
    per flow.
    """
    network = Network(graph)
    if any(d.source not in graph or d.destination not in graph for d in demands):
        bad = next(d for d in demands if d.source not in graph or d.destination not in graph)
        raise ValueError(f"demand endpoint not in graph: {bad.source!r} -> {bad.destination!r}")
    loads: dict[Edge, int] = {edge(u, v): 0 for u, v in graph.edges}
    patterns: dict[object, ForwardingPattern] = {}
    touring_pattern: ForwardingPattern | None = None
    survivors = surviving_graph(graph, failures)
    delivered_volume = dropped_volume = looped_volume = 0
    disconnected_volume = 0
    delivered_hops = 0
    stretch_volume = 0.0
    for demand in demands:
        if isinstance(algorithm, TouringAlgorithm):
            if touring_pattern is None:
                touring_pattern = algorithm.build(graph)
            pattern = touring_pattern
        elif isinstance(algorithm, SourceDestinationAlgorithm):
            key: object = (demand.source, demand.destination)
            if key not in patterns:
                patterns[key] = algorithm.build(graph, demand.source, demand.destination)
            pattern = patterns[key]
        else:
            if demand.destination not in patterns:
                patterns[demand.destination] = algorithm.build(graph, demand.destination)
            pattern = patterns[demand.destination]
        result = naive_route(network, pattern, demand.source, demand.destination, failures)
        for u, v in zip(result.path, result.path[1:]):
            loads[edge(u, v)] += demand.volume
        if result.delivered:
            delivered_volume += demand.volume
            delivered_hops += demand.volume * result.steps
            shortest = nx.shortest_path_length(survivors, demand.source, demand.destination)
            stretch_volume += demand.volume * (result.steps / shortest)
        else:
            if result.outcome is Outcome.LOOP:
                looped_volume += demand.volume
            else:
                dropped_volume += demand.volume
            if not are_connected(graph, demand.source, demand.destination, failures):
                disconnected_volume += demand.volume
    return LoadReport(
        loads=loads,
        demands=len(demands),
        total_volume=sum(demand.volume for demand in demands),
        delivered_volume=delivered_volume,
        dropped_volume=dropped_volume,
        looped_volume=looped_volume,
        disconnected_volume=disconnected_volume,
        delivered_hops=delivered_hops,
        stretch_volume=stretch_volume,
    )
