"""Incremental connected-component tracking per failure mask.

The reference path (a naive session's) runs one BFS per
``(destination, failure set)`` scenario.  Two observations kill almost
all of that work:

* the component **partition** of ``G \\ F`` depends on the mask alone,
  so one flood per mask serves every destination and source; and
* :func:`~repro.core.resilience.all_failure_sets` emits sets in
  combination order, so the mask with the highest bit cleared (the
  enumeration prefix) has always been seen already.  Failing one more
  link can only split the single component containing that link —
  every other component's labels are reused verbatim and only the
  affected one is re-flooded.

Component labels are canonical (the minimum member index), so equal
partitions get equal label tuples regardless of the path that produced
them.
"""

from __future__ import annotations

from ...graphs.edges import sorted_nodes
from .indexed import IndexedNetwork


class ComponentTracker:
    """Memoized component partitions of ``G \\ F`` keyed by failure mask."""

    def __init__(self, network: IndexedNetwork):
        self.network = network
        #: fmask -> component label (minimum member index) per node index
        self._labels: dict[int, tuple[int, ...]] = {}
        #: (fmask, component label) -> member node indices, ascending
        self._members: dict[tuple[int, int], tuple[int, ...]] = {}
        self._label_tuples: dict[tuple[int, int], tuple] = {}
        self._index_sets: dict[tuple[int, int], frozenset[int]] = {}

    # ------------------------------------------------------------------
    # Partitions.
    # ------------------------------------------------------------------

    def labels(self, fmask: int) -> tuple[int, ...]:
        """Component label per node index under ``fmask`` (memoized)."""
        cached = self._labels.get(fmask)
        if cached is not None:
            return cached
        # Peel highest bits until we hit a cached prefix (iteratively, so
        # sampled sweeps with deep uncached suffixes cannot blow the
        # recursion limit), then reapply them one link at a time.
        pending: list[int] = []
        mask = fmask
        parent: tuple[int, ...] | None = None
        while True:
            parent = self._labels.get(mask)
            if parent is not None:
                break
            if mask == 0:
                parent = self._flood_all()
                self._labels[0] = parent
                break
            bit = 1 << (mask.bit_length() - 1)
            pending.append(bit)
            mask ^= bit
        for bit in reversed(pending):
            mask |= bit
            parent = self._split(parent, mask, bit)
            self._labels[mask] = parent
        return parent

    def _flood_all(self) -> tuple[int, ...]:
        network = self.network
        labels = [-1] * network.n
        for root in range(network.n):
            if labels[root] >= 0:
                continue
            self._flood(labels, root, 0, root)
        return tuple(labels)

    def _split(self, parent: tuple[int, ...], fmask: int, bit: int) -> tuple[int, ...]:
        u, v = self.network.link_ends[bit.bit_length() - 1]
        affected = parent[u]  # == parent[v]: the link was alive in the prefix
        labels = list(parent)
        for node in range(self.network.n):
            if parent[node] == affected:
                labels[node] = -1
        for node in range(self.network.n):
            if labels[node] < 0:
                self._flood(labels, node, fmask, node)
        return tuple(labels)

    def _flood(self, labels: list[int], root: int, fmask: int, mark: int) -> None:
        """BFS from ``root`` over links alive under ``fmask``, writing
        ``mark`` into every node reached that is still unlabelled (-1) or
        carries ``mark`` already."""
        network = self.network
        neighbor_indices = network.neighbor_indices
        neighbor_bits = network.neighbor_bits
        labels[root] = mark
        stack = [root]
        while stack:
            node = stack.pop()
            indices = neighbor_indices[node]
            bits = neighbor_bits[node]
            for i in range(len(indices)):
                if bits[i] & fmask:
                    continue
                nxt = indices[i]
                if labels[nxt] == -1:
                    labels[nxt] = mark
                    stack.append(nxt)

    # ------------------------------------------------------------------
    # Component views.
    # ------------------------------------------------------------------

    def same_component(self, fmask: int, a: int, b: int) -> bool:
        labels = self.labels(fmask)
        return labels[a] == labels[b]

    def component_indices(self, fmask: int, node: int) -> tuple[int, ...]:
        """Member node indices of ``node``'s component, ascending."""
        labels = self.labels(fmask)
        key = (fmask, labels[node])
        members = self._members.get(key)
        if members is None:
            mark = labels[node]
            members = tuple(i for i, label in enumerate(labels) if label == mark)
            self._members[key] = members
        return members

    def component_index_set(self, fmask: int, node: int) -> frozenset[int]:
        labels = self.labels(fmask)
        key = (fmask, labels[node])
        got = self._index_sets.get(key)
        if got is None:
            got = frozenset(self.component_indices(fmask, node))
            self._index_sets[key] = got
        return got

    def component_sorted(self, fmask: int, node: int) -> tuple:
        """The component's node *labels* in the checkers' deterministic
        sorted-source order (``sorted_nodes``); matches the naive path
        even when the graph mixes comparable and non-comparable labels
        (a homogeneous component sorts natively there)."""
        labels = self.labels(fmask)
        key = (fmask, labels[node])
        got = self._label_tuples.get(key)
        if got is None:
            node_labels = self.network.labels
            got = tuple(
                sorted_nodes(node_labels[i] for i in self.component_indices(fmask, node))
            )
            self._label_tuples[key] = got
        return got
