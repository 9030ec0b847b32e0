"""Canonical undirected edges and failure sets.

The paper models a network as an undirected graph; link failures are
*undirected* (§II).  Throughout the library an edge is represented by a
canonical ordered pair so that ``(u, v)`` and ``(v, u)`` always compare and
hash equal.  A failure set is a ``frozenset`` of canonical edges.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Any, Hashable

Node = Hashable
Edge = tuple[Any, Any]
FailureSet = frozenset[Edge]

EMPTY_FAILURES: FailureSet = frozenset()


def _sort_key(node: Any) -> tuple[str, str]:
    """Total order over arbitrary hashable nodes (type name, then repr)."""
    return (type(node).__name__, repr(node))


def edge_sort_key(e: Edge) -> tuple[tuple[str, str], tuple[str, str]]:
    """Stable total order over canonical edges with mixed node types."""
    u, v = e
    return (_sort_key(u), _sort_key(v))


def canonical_links(graph) -> list[Edge]:
    """The graph's links as canonical edges, in :func:`edge_sort_key`
    order (hash-seed independent)."""
    return sorted((edge(u, v) for u, v in graph.edges), key=edge_sort_key)


def _ascending(items: Iterable, key) -> list:
    """``items`` in native order, or by ``key`` when they do not compare."""
    pool = list(items)  # a one-shot iterator must survive the retry
    try:
        return sorted(pool)
    except TypeError:
        return sorted(pool, key=key)


def sorted_nodes(nodes: Iterable[Node]) -> list[Node]:
    """Nodes in ascending order, tolerating mixed/non-comparable labels.

    The checkers iterate candidate sources in this order so that
    counterexamples are deterministic (independent of set iteration
    order and hash randomization).
    """
    return _ascending(nodes, _sort_key)


def sorted_links(links: Iterable[Edge]) -> list[Edge]:
    """Links in ascending order, by :func:`edge_sort_key` when their
    labels do not compare (what counterexample notes print)."""
    return _ascending(links, edge_sort_key)


def sorted_adjacency(graph) -> dict[Node, tuple[Node, ...]]:
    """Every node's neighbours in ascending order: the order of the
    alive ports a rule sees (§II), which every simulator shares.

    One non-comparable neighbourhood switches *every* neighbourhood of
    the graph to the (type name, repr) order, so the per-node orders of
    one graph never mix regimes.
    """
    try:
        return {v: tuple(sorted(graph.neighbors(v))) for v in graph.nodes}
    except TypeError:
        return {v: tuple(sorted(graph.neighbors(v), key=_sort_key)) for v in graph.nodes}


def edge(u: Node, v: Node) -> Edge:
    """Return the canonical representation of the undirected link ``{u, v}``.

    >>> edge(3, 1)
    (1, 3)
    >>> edge('b', 'a') == edge('a', 'b')
    True
    """
    if u == v:
        raise ValueError(f"self-loop {u!r}-{v!r} is not a valid link")
    try:
        if u <= v:  # type: ignore[operator]
            return (u, v)
        return (v, u)
    except TypeError:
        # Mixed / non-comparable node types: fall back to a stable key.
        if _sort_key(u) <= _sort_key(v):
            return (u, v)
        return (v, u)


def edges(pairs: Iterable[tuple[Node, Node]]) -> FailureSet:
    """Canonicalize an iterable of node pairs into a failure set.

    >>> sorted(edges([(2, 1), (1, 2), (3, 2)]))
    [(1, 2), (2, 3)]
    """
    return frozenset(edge(u, v) for u, v in pairs)


def failure_set(*pairs: tuple[Node, Node]) -> FailureSet:
    """Convenience constructor: ``failure_set((1, 2), (3, 4))``."""
    return edges(pairs)


def incident_failures(failures: FailureSet, node: Node) -> FailureSet:
    """The failures a node can locally observe: ``F ∩ E(v)`` (§II)."""
    return frozenset(e for e in failures if node in e)


def other_endpoint(e: Edge, node: Node) -> Node:
    """The endpoint of ``e`` that is not ``node``."""
    u, v = e
    if node == u:
        return v
    if node == v:
        return u
    raise ValueError(f"{node!r} is not an endpoint of {e!r}")


def iter_subsets(items: Iterable[Edge], max_size: int | None = None) -> Iterator[FailureSet]:
    """Yield all subsets of ``items`` (optionally only those up to a size).

    Subsets are emitted in order of increasing size so that callers looking
    for a *small* counterexample find it first.
    """
    from itertools import combinations

    pool = sorted_links(items)
    limit = len(pool) if max_size is None else min(max_size, len(pool))
    for size in range(limit + 1):
        for combo in combinations(pool, size):
            yield frozenset(combo)
