"""Materializing patterns into installable forwarding tables.

The paper's whole premise is that failover rules are *pre-installed*
state: finitely many conditional rules per router, matched on (header,
in-port, set of locally failed links).  This module makes that concrete:
it enumerates a pattern's behaviour over all local failure sets and
in-ports of a node and emits the explicit rule list a router would
install — i.e. it compiles any :class:`~repro.core.model.ForwardingPattern`
(including the algorithmic ones) into static match/action tables, and can
reload those tables as a :class:`~repro.core.tables.PriorityTable`-style
pattern whose behaviour is bit-identical.

Rule counts grow as ``2^degree`` per node (one row per incident failure
set), which is exactly the table-size cost the paper's §VII table-space
remark is about.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations

import networkx as nx

from ..graphs.edges import FailureSet, Node, edge, sorted_adjacency, sorted_nodes
from .model import ForwardingPattern, LocalView


@dataclass(frozen=True)
class Rule:
    """One installable rule: (failed local links, in-port) -> out-port."""

    node: Node
    failed_links: tuple
    inport: Node | None
    out: Node | None


@dataclass
class ForwardingTable:
    """The materialized rules of one pattern on one graph."""

    rules: list[Rule] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rules)

    def lookup(self, node: Node, failed_links: FailureSet, inport: Node | None) -> Node | None:
        key = (node, tuple(sorted(failed_links, key=repr)), inport)
        return self._index()[key]

    def _index(self):
        if not hasattr(self, "_cached_index"):
            self._cached_index = {
                (rule.node, rule.failed_links, rule.inport): rule.out for rule in self.rules
            }
        return self._cached_index

    def to_json(self) -> str:
        payload = [
            {
                "node": repr(rule.node),
                "failed": [[repr(u), repr(v)] for u, v in rule.failed_links],
                "inport": None if rule.inport is None else repr(rule.inport),
                "out": None if rule.out is None else repr(rule.out),
            }
            for rule in self.rules
        ]
        return json.dumps(payload, indent=2)


class MaterializedPattern(ForwardingPattern):
    """A pattern replayed from a materialized forwarding table."""

    def __init__(self, table: ForwardingTable):
        self._table = table

    def forward(self, view: LocalView) -> Node | None:
        return self._table.lookup(view.node, view.failed_links, view.inport)


def materialize(
    graph: nx.Graph,
    pattern: ForwardingPattern,
    nodes=None,
    max_degree: int = 12,
) -> ForwardingTable:
    """Compile a pattern into explicit per-router rules.

    Enumerates, per node, every subset of incident links as the local
    failure condition and every possible in-port (including ``⊥``).  Each
    rule answers the view the simulator would build, alive ports in its
    :func:`~repro.graphs.edges.sorted_adjacency` order, so a reloaded
    table routes exactly like the pattern.  Nodes of degree above
    ``max_degree`` are rejected (their tables would exceed 2^12 rows —
    the practical table-space limit the paper alludes to).
    """
    table = ForwardingTable()
    adjacency = sorted_adjacency(graph)
    for node in sorted_nodes(graph.nodes) if nodes is None else nodes:
        neighbors = adjacency[node]
        if len(neighbors) > max_degree:
            raise ValueError(
                f"node {node!r} has degree {len(neighbors)} > {max_degree}; "
                "its failure-conditional table would be impractically large"
            )
        incident = [edge(node, neighbor) for neighbor in neighbors]
        for size in range(len(incident) + 1):
            for combo in combinations(sorted(incident, key=repr), size):
                failed = frozenset(combo)
                alive = tuple(
                    neighbor for neighbor in neighbors if edge(node, neighbor) not in failed
                )
                inports: list[Node | None] = [None] + list(alive)
                for inport in inports:
                    view = LocalView(
                        node=node, inport=inport, alive=alive, failed_links=failed
                    )
                    out = pattern.forward(view)
                    table.rules.append(
                        Rule(
                            node=node,
                            failed_links=tuple(sorted(failed, key=repr)),
                            inport=inport,
                            out=out,
                        )
                    )
    return table


def reload_pattern(table: ForwardingTable) -> ForwardingPattern:
    """A pattern whose behaviour replays the materialized table exactly."""
    return MaterializedPattern(table)
