"""Touring-based broadcast with local completion detection (§VII).

The paper motivates touring beyond theory: *"if we also have the source,
we can use touring to implement a broadcast or flooding protocol.  Once
the source gets the packet again, it checks if the next outport is the
same outport as for ⊥: if yes, the packet has toured the whole network
(assuming resilience), and if not, it is still underway in its tour."*

:class:`TouringBroadcast` implements exactly that: the source launches a
packet along a touring pattern, and detects completion locally by
comparing the out-port it would use for the returning packet with the
out-port it used at start.  On outerplanar graphs (Cor 6) the detection
is sound and complete: every node of the source's surviving component is
informed before the source declares the broadcast finished.

Runs on the session's :class:`~repro.core.engine.sweep.EngineState` for
the graph: its pattern cache holds the memoized tour, so sweeping a
broadcast over many failure sets pays for network indexing and pattern
construction once.  Pass ``session=`` (an
:class:`~repro.experiments.session.ExperimentSession`) to source engine
state from a shared session.  Where the state's mask is ``None`` — on a
``backend="naive"`` session, and for failure sets naming links outside
the graph — the broadcast takes the hop-by-hop reference walk
(identical results, kept for differential testing).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from ...graphs.connectivity import component_of
from ...graphs.edges import FailureSet, Node
from ..engine.memo import MemoizedPattern
from ..engine.sweep import EngineState
from ..model import ForwardingPattern, TouringAlgorithm
from ..simulator import Network


@dataclass
class BroadcastResult:
    """Outcome of one broadcast."""

    informed: frozenset[Node]
    completed: bool
    hops: int
    walk: list[Node] = field(default_factory=list)

    def covers(self, component: frozenset[Node]) -> bool:
        return self.informed >= component


class TouringBroadcast:
    """Broadcast a message by touring; detect completion at the source."""

    def __init__(self, algorithm: TouringAlgorithm, session=None):
        self._algorithm = algorithm
        self._session = session

    def run(
        self,
        graph: nx.Graph,
        source: Node,
        failures: FailureSet = frozenset(),
        max_hops: int | None = None,
        session=None,
    ) -> BroadcastResult:
        """Walk the touring packet until the source detects completion.

        Completion rule (verbatim from §VII): when the packet returns to
        the source, compare the out-port the pattern prescribes *now*
        with the out-port it prescribed at ``⊥``; equality means the tour
        has wrapped around.
        """
        from ...experiments.session import resolve_session

        # the constructor-level session is only the default
        session = resolve_session(session if session is not None else self._session)
        limit = max_hops if max_hops is not None else 4 * graph.number_of_edges() + 4
        # the session re-indexes a graph mutated in place, and the
        # state's pattern cache builds the tour once per graph
        state = session.state(graph)
        memo = state.pattern(self._algorithm)
        fmask = state.mask(failures)
        if fmask is not None and source in state.network.index:
            return self._run_indexed(state, memo, source, fmask, limit)
        return self._run_naive(state.naive_network, memo.pattern, source, failures, limit)

    def _run_indexed(
        self,
        state: EngineState,
        memo: MemoizedPattern,
        source: Node,
        fmask: int,
        limit: int,
    ) -> BroadcastResult:
        """Mask-based twin of :meth:`_run_naive` — identical results."""
        network = state.network
        labels = network.labels
        index = network.index
        incident = network.incident_mask
        pattern = memo.pattern
        src = index[source]
        # ⊥ step: query the pattern directly (the naive walk does not
        # check aliveness of the very first port, so neither do we)
        first_port = pattern.forward(network.view(src, -1, fmask))
        if first_port is None:
            return BroadcastResult(frozenset({source}), True, 0, [source])
        first_idx = index.get(first_port)
        informed = {source, first_port}
        walk = [source, first_port]
        hops = 1
        if first_idx is None:  # pattern named a non-node: naive semantics
            return self._run_naive(
                state.naive_network, pattern, source, network.failures_of(fmask), limit
            )
        current, inport = first_idx, src
        next_hop = memo.next_hop
        while hops < limit:
            decision = next_hop(current, inport, fmask & incident[current])
            if decision < 0:  # dropped, or forwarded over a failed link
                return BroadcastResult(frozenset(informed), False, hops, walk)
            hops += 1
            informed.add(labels[decision])
            walk.append(labels[decision])
            current, inport = decision, current
            if current == src:
                returning = next_hop(src, inport, fmask & incident[src])
                if returning >= 0:
                    wrapped = labels[returning] == first_port
                else:
                    # the naive check compares the raw pattern answer,
                    # alive or not — ask the pattern directly here
                    wrapped = (
                        pattern.forward(network.view(src, inport, fmask)) == first_port
                    )
                if wrapped:
                    return BroadcastResult(frozenset(informed), True, hops, walk)
        return BroadcastResult(frozenset(informed), False, hops, walk)

    def _run_naive(
        self,
        network: Network,
        pattern: ForwardingPattern,
        source: Node,
        failures: FailureSet,
        limit: int,
    ) -> BroadcastResult:
        start_view = network.view(source, None, failures)
        first_port = pattern.forward(start_view)
        if first_port is None:
            return BroadcastResult(frozenset({source}), True, 0, [source])
        informed = {source, first_port}
        walk = [source, first_port]
        current, inport = first_port, source
        hops = 1
        while hops < limit:
            view = network.view(current, inport, failures)
            nxt = pattern.forward(view)
            if nxt is None or nxt not in view.alive_set:
                return BroadcastResult(frozenset(informed), False, hops, walk)
            hops += 1
            informed.add(nxt)
            walk.append(nxt)
            current, inport = nxt, current
            if current == source:
                view = network.view(source, inport, failures)
                if pattern.forward(view) == first_port:
                    return BroadcastResult(frozenset(informed), True, hops, walk)
        return BroadcastResult(frozenset(informed), False, hops, walk)

    def verify(
        self,
        graph: nx.Graph,
        source: Node,
        failures: FailureSet = frozenset(),
        session=None,
    ) -> bool:
        """Did the broadcast inform the whole surviving component of the source?"""
        result = self.run(graph, source, failures, session=session)
        return result.completed and result.covers(component_of(graph, source, failures))
