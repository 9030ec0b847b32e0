"""Memoized forwarding decisions and mask-based packet walks.

``pattern.forward`` is a pure function of ``(node, inport, F ∩ E(v))``
(see the package docstring for the soundness argument), so each pattern
gets a decision table keyed by that triple.  The walks below mirror the
naive :func:`repro.core.simulator.route` / ``tour`` step for step —
identical outcomes, paths and step counts — but a revisited local state
costs one dictionary lookup instead of frozenset algebra plus a pattern
invocation.
"""

from __future__ import annotations

from repro import obs as _obs

from ..model import ForwardingPattern
from ..simulator import Outcome, RouteResult, TourResult
from .indexed import IndexedNetwork

#: decision-table sentinels (real next hops are node indices >= 0)
DROP = -1
ILLEGAL = -2


def _record_walk(
    telemetry, kind: str, table: dict, before: int, lookups: int | None, walks: int = 1
) -> None:
    """Batch walk counters into the active telemetry.

    Called once per walk for the standalone entry points — never per
    step — and once per *sweep* by the hot mask loops in ``sweep.py``,
    which accumulate ``walks`` in a local int and flush here (a registry
    update per walk would dwarf a sub-microsecond covers walk).  Misses
    are exact either way: every table miss inserts exactly one entry,
    so the table-size delta *is* the miss count.  Hits derive from the
    walk's own step count where the caller exposes one
    (``lookups=None`` otherwise).
    """
    if not walks:
        return
    telemetry.count(
        "repro_engine_walks_total", walks, help="scalar mask walks, by kind", kind=kind
    )
    misses = len(table) - before
    if misses:
        telemetry.count(
            "repro_engine_memo_misses_total", misses, help="memo decision-table misses"
        )
    if lookups is not None:
        telemetry.count(
            "repro_engine_walk_steps_total", lookups, help="scalar walk steps, by kind", kind=kind
        )
        hits = lookups - misses
        if hits > 0:
            telemetry.count(
                "repro_engine_memo_hits_total", hits, help="memo decision-table hits"
            )
    telemetry.gauge_max(
        "repro_engine_memo_table_entries_max",
        len(table),
        help="largest memo decision table observed",
    )


class MemoizedPattern:
    """A forwarding pattern with a ``(node, inport, local mask)`` cache.

    The triple is packed into one integer key: ``((node * (n + 1) +
    inport + 1) << m) | local_mask`` (``inport = -1`` is the ⊥ state).
    Integer keys hash faster than tuples, and the walks inline the
    table lookup, so a revisited local state costs a single dict hit.
    """

    def __init__(self, network: IndexedNetwork, pattern: ForwardingPattern):
        self.network = network
        self.pattern = pattern
        #: packed (node, inport, local mask) -> next-hop index, DROP, or ILLEGAL
        self.table: dict[int, int] = {}

    def next_hop(self, node: int, inport: int, local_mask: int) -> int:
        network = self.network
        key = ((node * (network.n + 1) + inport + 1) << network.m) | local_mask
        decision = self.table.get(key)
        if decision is None:
            decision = self._decide(node, inport, local_mask)
            self.table[key] = decision
        return decision

    def _decide(self, node: int, inport: int, local_mask: int) -> int:
        network = self.network
        state = network.local_state(node, local_mask)
        view = network.view(node, inport, local_mask)
        nxt = self.pattern.forward(view)
        if nxt is None:
            return DROP
        idx = state.alive_index.get(nxt)
        if idx is None:
            # forwarding over a failed or non-existent link
            return ILLEGAL
        return idx


def route_indexed(
    network: IndexedNetwork,
    pattern: MemoizedPattern,
    source: int,
    destination: int,
    fmask: int,
) -> RouteResult:
    """Mask-based twin of :func:`repro.core.simulator.route`.

    Returns the identical :class:`RouteResult` (outcome, label path,
    step count) the naive walk would produce.
    """
    telemetry = _obs.active()
    if telemetry is None:
        return _route_indexed(network, pattern, source, destination, fmask)
    before = len(pattern.table)
    result = _route_indexed(network, pattern, source, destination, fmask)
    # every loop iteration does one table lookup; drop/illegal exits
    # happen before the step increment, so they add one lookup
    lookups = result.steps + (1 if result.outcome in (Outcome.DROPPED, Outcome.ILLEGAL) else 0)
    _record_walk(telemetry, "route", pattern.table, before, lookups)
    return result


def _route_indexed(
    network: IndexedNetwork,
    pattern: MemoizedPattern,
    source: int,
    destination: int,
    fmask: int,
) -> RouteResult:
    labels = network.labels
    if source == destination:
        return RouteResult(Outcome.DELIVERED, [labels[source]], 0)
    incident = network.incident_mask
    stride = network.n + 1
    shift = network.m
    current = source
    inport = -1
    state = source * stride  # packed (node, inport+1), ⊥ = 0
    path = [labels[source]]
    seen = {state}
    steps = 0
    limit = network.state_bound
    table = pattern.table
    decide = pattern._decide
    while steps < limit:
        local_mask = fmask & incident[current]
        key = (state << shift) | local_mask  # state == current * stride + inport + 1
        decision = table.get(key)
        if decision is None:
            decision = decide(current, inport, local_mask)
            table[key] = decision
        if decision < 0:
            if decision == DROP:
                return RouteResult(Outcome.DROPPED, path, steps)
            return RouteResult(Outcome.ILLEGAL, path, steps)
        steps += 1
        path.append(labels[decision])
        if decision == destination:
            return RouteResult(Outcome.DELIVERED, path, steps)
        current, inport = decision, current
        state = current * stride + inport + 1
        if state in seen:
            return RouteResult(Outcome.LOOP, path, steps)
        seen.add(state)
    return RouteResult(Outcome.LOOP, path, steps)


def _route_covers(
    network: IndexedNetwork,
    pattern: MemoizedPattern,
    source: int,
    destination: int,
    fmask: int,
    delivered: set[int],
) -> bool:
    """Does the walk from ``source`` deliver?  Shares work across sources.

    ``delivered`` accumulates packed ``(node, inport)`` states proven to
    deliver **under this exact** ``(pattern, destination, fmask)`` —
    determinism makes the future of a walk a function of its state, so a
    walk that joins a delivered state is itself delivered and can stop
    early.  Callers reset the set whenever the failure mask (or the
    destination or pattern) changes.  On a ``False`` answer, re-run
    :func:`route_indexed` for the exact counterexample trace.  Records
    no telemetry: the one caller,
    :meth:`~repro.core.engine.sweep.EngineState.mask_outcome`, leaves the
    walk counters to the sweeps.
    """
    if source == destination:
        return True
    incident = network.incident_mask
    stride = network.n + 1
    shift = network.m
    current = source
    inport = -1
    state = source * stride
    if state in delivered:
        return True
    trail = [state]
    seen = {state}
    table = pattern.table
    decide = pattern._decide
    while True:
        local_mask = fmask & incident[current]
        key = (state << shift) | local_mask
        decision = table.get(key)
        if decision is None:
            decision = decide(current, inport, local_mask)
            table[key] = decision
        if decision < 0:
            return False
        if decision == destination:
            delivered.update(trail)
            return True
        current, inport = decision, current
        state = current * stride + inport + 1
        if state in delivered:
            delivered.update(trail)
            return True
        if state in seen:
            return False
        seen.add(state)
        trail.append(state)


def tour_indexed(
    network: IndexedNetwork,
    pattern: MemoizedPattern,
    start: int,
    fmask: int,
) -> TourResult:
    """Mask-based twin of :func:`repro.core.simulator.tour`."""
    telemetry = _obs.active()
    if telemetry is None:
        return _tour_indexed(network, pattern, start, fmask)
    before = len(pattern.table)
    result = _tour_indexed(network, pattern, start, fmask)
    _record_walk(telemetry, "tour", pattern.table, before, len(result.path))
    return result


def _tour_indexed(
    network: IndexedNetwork,
    pattern: MemoizedPattern,
    start: int,
    fmask: int,
) -> TourResult:
    order, entry = _tour_states(network, pattern, start, fmask)
    labels = network.labels
    stride = network.n + 1
    path = [labels[state // stride] for state in order]
    if entry < 0:
        failed = Outcome.DROPPED if entry == DROP else Outcome.ILLEGAL
        return TourResult(visited=frozenset(path), recurrent=frozenset(), failed=failed, path=path)
    return TourResult(visited=frozenset(path), recurrent=frozenset(path[entry:]), path=path)


def _tour_recurrent_indices(
    network: IndexedNetwork,
    pattern: MemoizedPattern,
    start: int,
    fmask: int,
) -> set[int] | None:
    """The node indices toured forever, or ``None`` if the walk fails.

    The allocation-light form of :func:`tour_indexed` for yes/no
    coverage checks: no label translation, no path materialization.
    The touring sweep batches its walk counters itself.
    """
    order, entry = _tour_states(network, pattern, start, fmask)
    if entry < 0:
        return None
    stride = network.n + 1
    return {state // stride for state in order[entry:]}


def _tour_states(
    network: IndexedNetwork,
    pattern: MemoizedPattern,
    start: int,
    fmask: int,
) -> tuple[list[int], int]:
    """The one indexed tour walk: packed ``(node, inport)`` states from
    ``start`` until one repeats or the pattern fails.

    Returns ``(order, entry)``: the states in walk order, and where in
    ``order`` the recurrent cycle begins, or the failing decision
    (:data:`DROP` / :data:`ILLEGAL`, both negative).
    """
    incident = network.incident_mask
    stride = network.n + 1
    current = start
    inport = -1
    order: list[int] = [start * stride]
    index: dict[int, int] = {start * stride: 0}
    next_hop = pattern.next_hop
    for _ in range(network.state_bound + 1):
        decision = next_hop(current, inport, fmask & incident[current])
        if decision < 0:
            return order, decision
        current, inport = decision, current
        state = current * stride + inport + 1
        entry = index.get(state)
        if entry is not None:
            return order, entry
        index[state] = len(order)
        order.append(state)
    raise AssertionError("state bound exceeded without repeating a state")  # pragma: no cover
