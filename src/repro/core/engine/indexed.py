"""Dense integer indexing of a network: labels → ints, failure sets → masks.

The naive :class:`~repro.core.simulator.Network` answers ``view(node,
inport, failures)`` by filtering a ``frozenset`` of failed links per hop.
:class:`IndexedNetwork` does the label → integer translation once: nodes
get dense indices, links get bit positions (in the same canonical order
:func:`~repro.core.resilience.all_failure_sets` enumerates them), and a
failure set becomes one integer mask.  A node's local state under a mask
is then ``fmask & incident_mask[node]`` — and everything derived from it
(alive neighbours, the ``F ∩ E(v)`` frozenset, the label → index map for
translating a pattern's answer) is cached per ``(node, local mask)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from ...graphs.edges import Edge, FailureSet, Node, canonical_links, edge
from ...graphs.edges import sorted_adjacency, sorted_nodes
from ..model import LocalView


@dataclass(frozen=True)
class LocalState:
    """Everything derivable from ``(node, local failure mask)`` alone."""

    #: alive neighbours as labels, in the naive simulator's sorted order
    alive_labels: tuple[Node, ...]
    #: alive neighbour label -> dense node index (doubles as the alive set)
    alive_index: dict[Node, int]
    #: ``F ∩ E(v)`` as canonical links (what a ``LocalView`` reports)
    failed_links: FailureSet


class IndexedNetwork:
    """A graph indexed for mask-based simulation.

    Each node's neighbours come in the naive
    :class:`~repro.core.simulator.Network`'s own order
    (:func:`~repro.graphs.edges.sorted_adjacency`), so indexed walks
    reproduce naive walks hop for hop.  Node indices follow
    :func:`~repro.graphs.edges.sorted_nodes`; they only number the
    nodes and order nothing a pattern sees.
    """

    def __init__(self, graph: nx.Graph):
        self.graph = graph
        adjacency = sorted_adjacency(graph)
        self.labels: tuple[Node, ...] = tuple(sorted_nodes(graph.nodes))
        self.n = len(self.labels)
        self.index: dict[Node, int] = {label: i for i, label in enumerate(self.labels)}

        self.links: tuple[Edge, ...] = tuple(canonical_links(graph))
        self.m = len(self.links)
        self.link_bit: dict[Edge, int] = {link: 1 << i for i, link in enumerate(self.links)}
        #: bit position -> (endpoint index, endpoint index)
        self.link_ends: tuple[tuple[int, int], ...] = tuple(
            (self.index[u], self.index[v]) for u, v in self.links
        )

        neighbor_labels: list[tuple[Node, ...]] = []
        neighbor_indices: list[tuple[int, ...]] = []
        neighbor_bits: list[tuple[int, ...]] = []
        incident_mask: list[int] = []
        for label in self.labels:
            nbrs = adjacency[label]
            bits = tuple(self.link_bit[edge(label, nbr)] for nbr in nbrs)
            neighbor_labels.append(nbrs)
            neighbor_indices.append(tuple(self.index[nbr] for nbr in nbrs))
            neighbor_bits.append(bits)
            mask = 0
            for bit in bits:
                mask |= bit
            incident_mask.append(mask)
        self.neighbor_labels = tuple(neighbor_labels)
        self.neighbor_indices = tuple(neighbor_indices)
        self.neighbor_bits = tuple(neighbor_bits)
        self.incident_mask = tuple(incident_mask)

        #: same bound the naive simulator uses: one (node, inport) state
        #: per directed link plus one ⊥ state per node.
        self.state_bound = 2 * self.m + self.n + 1

        self._local_cache: dict[tuple[int, int], LocalState] = {}

    # ------------------------------------------------------------------
    # Masks.
    # ------------------------------------------------------------------

    def mask_of(self, failures: FailureSet) -> int | None:
        """The failure set as a link bitmask, or ``None`` if any entry is
        not a canonical graph link.

        ``None`` sends the caller down the naive fallback, which is what
        keeps exotic inputs (links outside the graph, *non-canonical*
        tuples like ``(1, 0)`` for canonical ``(0, 1)``) behaving exactly
        as the reference walks treat them — notably, the naive path
        matches failures against canonical edges only, so a
        non-canonical entry is effectively alive and must NOT be
        canonicalized into a failed bit here.
        """
        mask = 0
        bit_of = self.link_bit
        for link in failures:
            bit = bit_of.get(link)
            if bit is None:
                return None
            mask |= bit
        return mask

    def failures_of(self, mask: int) -> FailureSet:
        """The inverse of :meth:`mask_of` (for reporting)."""
        links = self.links
        failed = []
        while mask:
            bit = mask & -mask
            failed.append(links[bit.bit_length() - 1])
            mask ^= bit
        return frozenset(failed)

    # ------------------------------------------------------------------
    # Local state.
    # ------------------------------------------------------------------

    def local_state(self, node: int, local_mask: int) -> LocalState:
        """The cached per-``(node, F ∩ E(v))`` derived state."""
        key = (node, local_mask)
        state = self._local_cache.get(key)
        if state is None:
            nbr_labels = self.neighbor_labels[node]
            nbr_indices = self.neighbor_indices[node]
            nbr_bits = self.neighbor_bits[node]
            alive_labels = []
            alive_index = {}
            for label, idx, bit in zip(nbr_labels, nbr_indices, nbr_bits):
                if not bit & local_mask:
                    alive_labels.append(label)
                    alive_index[label] = idx
            state = LocalState(
                alive_labels=tuple(alive_labels),
                alive_index=alive_index,
                failed_links=self.failures_of(local_mask),
            )
            self._local_cache[key] = state
        return state

    def distances(self, fmask: int, start: int) -> list[int]:
        """Hops from ``start`` to every node index over the links alive
        under ``fmask`` (``-1`` where unreachable): the engine's one
        uncached flood, for queries where caching whole partitions per
        mask would not pay."""
        neighbor_indices = self.neighbor_indices
        neighbor_bits = self.neighbor_bits
        dist = [-1] * self.n
        dist[start] = 0
        frontier = [start]
        level = 0
        while frontier:
            level += 1
            reached: list[int] = []
            for node in frontier:
                indices = neighbor_indices[node]
                bits = neighbor_bits[node]
                for i in range(len(indices)):
                    if bits[i] & fmask:
                        continue
                    nxt = indices[i]
                    if dist[nxt] < 0:
                        dist[nxt] = level
                        reached.append(nxt)
            frontier = reached
        return dist

    def component_of_indices(self, fmask: int, start: int) -> list[int]:
        """``start``'s component under ``fmask`` as node indices, ascending."""
        return [node for node, hops in enumerate(self.distances(fmask, start)) if hops >= 0]

    def view(self, node: int, inport: int, fmask: int) -> LocalView:
        """The :class:`LocalView` a pattern would see (``inport < 0`` = ⊥).

        Only materialized on memoization misses; byte-for-byte equal to
        what the naive simulator builds for the same scenario.
        """
        state = self.local_state(node, fmask & self.incident_mask[node])
        return LocalView(
            node=self.labels[node],
            inport=None if inport < 0 else self.labels[inport],
            alive=state.alive_labels,
            failed_links=state.failed_links,
        )
