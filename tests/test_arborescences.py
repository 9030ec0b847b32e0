"""Unit tests for the arborescence packing (Chiesa baseline substrate)."""

import hashlib
import itertools
import json
import pathlib
import random
import re
import sys

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import arborescences, construct
from repro.graphs.arborescences import (
    _arc_connectivity,
    arc_disjoint_in_arborescences,
    verify_arborescences,
)
from repro.graphs.connectivity import global_edge_connectivity
from repro.graphs.zoo import generate_zoo


class TestPacking:
    @pytest.mark.parametrize(
        "builder,root,k",
        [
            (lambda: construct.complete_graph(5), 0, 4),
            (lambda: construct.complete_graph(7), 3, 6),
            (lambda: construct.complete_bipartite(3, 3), 0, 3),
            (lambda: construct.complete_bipartite(4, 4), 5, 4),
            (lambda: construct.cycle_graph(6), 2, 2),
            (lambda: construct.grid_graph(3, 3), 4, 2),
            (lambda: construct.petersen_graph(), 0, 3),
        ],
    )
    def test_full_connectivity_packing(self, builder, root, k):
        graph = builder()
        trees = arc_disjoint_in_arborescences(graph, root)
        assert len(trees) == k
        assert verify_arborescences(graph, root, trees)

    def test_partial_k(self):
        graph = construct.complete_graph(6)
        trees = arc_disjoint_in_arborescences(graph, 0, k=3)
        assert len(trees) == 3
        assert verify_arborescences(graph, 0, trees)

    def test_disconnected_rejected(self):
        import networkx as nx

        with pytest.raises(ValueError):
            arc_disjoint_in_arborescences(nx.Graph([(0, 1), (2, 3)]), 0)

    @pytest.mark.parametrize("k", [None, 1])
    def test_root_outside_the_graph_is_named(self, k):
        import networkx as nx

        with pytest.raises(ValueError, match="root 99 is not a node of the graph"):
            arc_disjoint_in_arborescences(nx.cycle_graph(5), 99, k=k)


class TestVerification:
    def test_detects_shared_arc(self):
        graph = construct.complete_graph(4)
        tree = {1: 0, 2: 0, 3: 0}
        assert not verify_arborescences(graph, 0, [tree, tree])

    def test_opposite_directions_allowed(self):
        graph = construct.cycle_graph(3)
        clockwise = {1: 0, 2: 1}
        counter = {2: 0, 1: 2}
        assert verify_arborescences(graph, 0, [clockwise, counter])

    def test_detects_cycle(self):
        graph = construct.complete_graph(4)
        bad = {1: 2, 2: 1, 3: 0}
        assert not verify_arborescences(graph, 0, [bad])

    def test_detects_missing_node(self):
        graph = construct.complete_graph(4)
        bad = {1: 0, 2: 0}
        assert not verify_arborescences(graph, 0, [bad])

    def test_detects_fake_link(self):
        graph = construct.cycle_graph(4)
        bad = {1: 0, 2: 0, 3: 0}  # (2, 0) is not a link of C4
        assert not verify_arborescences(graph, 0, [bad])


class TestDeterminism:
    """Packings must not depend on the interpreter's string hash seed.

    String-labelled graphs used to leak ``PYTHONHASHSEED`` through set
    iteration order in the greedy growth step; the packing is now
    canonicalized by sorting candidates before the seeded shuffle.
    """

    #: 5-node, 9-link string-labelled graph (2-connected, non-complete)
    STRING_EDGES = [
        ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"),
        ("a", "c"), ("b", "d"), ("c", "e"), ("d", "a"),
    ]

    _SCRIPT = """
import hashlib, json, sys
import networkx as nx
from repro.graphs.arborescences import arc_disjoint_in_arborescences

edges = json.loads(sys.argv[1])
graph = nx.Graph(edges)
trees = arc_disjoint_in_arborescences(graph, "a")
blob = json.dumps([sorted(tree.items()) for tree in trees]).encode()
print(hashlib.sha256(blob).hexdigest())
"""

    def _packing_digest(self, hash_seed):
        import json
        import os
        import subprocess
        import sys

        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", self._SCRIPT, json.dumps(self.STRING_EDGES)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return result.stdout.strip()

    def test_string_labels_packing_is_hash_seed_independent(self):
        digests = {self._packing_digest(seed) for seed in (0, 1, 2)}
        assert len(digests) == 1, f"packing depends on PYTHONHASHSEED: {digests}"

    def test_string_labelled_packing_verifies(self):
        import networkx as nx

        graph = nx.Graph(self.STRING_EDGES)
        trees = arc_disjoint_in_arborescences(graph, "a")
        assert len(trees) == 3
        assert verify_arborescences(graph, "a", trees)

    def test_string_labelled_complete_graph(self):
        import networkx as nx

        nodes = ["alpha", "beta", "gamma", "delta", "epsilon"]
        graph = nx.complete_graph(nodes)
        trees = arc_disjoint_in_arborescences(graph, "gamma")
        assert len(trees) == 4
        assert verify_arborescences(graph, "gamma", trees)


# ---------------------------------------------------------------------------
# Pinned packings: every packing below is byte-identical to the committed
# digests, so a faster prune cannot quietly change a decision.
# ---------------------------------------------------------------------------

FIXTURE = pathlib.Path(__file__).resolve().parent / "fixtures" / "arborescence_packings.json"


def _pinned_cases():
    """``(name, graph, roots, ks)`` per pinned topology; ``None`` is the default k."""
    named = {
        "fattree(4)": construct.fat_tree(4),
        "torus(5,5)": construct.torus(5, 5),
        "torus(3,4)": construct.torus(3, 4),
        "hypercube(4)": construct.hypercube(4),
        "grid(4,4)": construct.grid_graph(4, 4),
        "complete(6)": construct.complete_graph(6),
        "complete(7)": construct.complete_graph(7),
        "petersen": construct.petersen_graph(),
    }
    for name, graph in named.items():
        ks = [None, *range(1, global_edge_connectivity(graph) + 1)]
        yield name, graph, list(graph.nodes), ks
    fattree6 = construct.fat_tree(6)
    yield "fattree(6)", fattree6, list(fattree6.nodes)[::4], [None]
    yield "fattree(8)", construct.fat_tree(8), [("core", 0), ("edge", 7, 3)], [None]
    for topology in generate_zoo():
        if nx.is_connected(topology.graph):
            yield topology.name, topology.graph, [0], [None]
    rng = random.Random(2022)
    drawn = 0
    for seed in itertools.count():
        n, p = rng.randint(4, 12), round(rng.uniform(0.25, 0.75), 3)
        graph = nx.gnp_random_graph(n, p, seed=seed)
        if not nx.is_connected(graph):
            continue
        ks = [None] + [k for k in (2, 3) if k <= global_edge_connectivity(graph)]
        yield f"gnp(n={n},p={p},seed={seed})", graph, [seed % n], ks
        drawn += 1
        if drawn == 100:
            return


def _packings_digest(graph, roots, k):
    """sha256 of the canonical JSON of the packings (dict order kept) at ``roots``."""
    packings = [
        [root, [list(tree.items()) for tree in arc_disjoint_in_arborescences(graph, root, k=k)]]
        for root in roots
    ]
    return hashlib.sha256(json.dumps(packings, separators=(",", ":")).encode()).hexdigest()


def pinned_packing_digests():
    return {
        f"{name}|k={'default' if k is None else k}": _packings_digest(graph, roots, k)
        for name, graph, roots, ks in _pinned_cases()
        for k in ks
    }


class TestPinnedPackings:
    def test_packings_match_the_committed_digests(self):
        expected = json.loads(FIXTURE.read_text())["digests"]
        actual = pinned_packing_digests()
        assert sorted(actual) == sorted(expected)
        changed = [case for case in expected if actual[case] != expected[case]]
        assert not changed, f"packings changed: {changed}"


# ---------------------------------------------------------------------------
# The prune: one flow from the candidate's tail decides it exactly.
# ---------------------------------------------------------------------------


@st.composite
def rooted_arc_sets(draw):
    """A connected graph, a root, ``1 <= r <= λ``, and an arc set thinned
    at random while every node keeps ``r`` arc-disjoint paths to the root."""
    n = draw(st.integers(min_value=2, max_value=9))
    # a random spanning tree keeps the graph connected; extra links on top
    links = {(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)}
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kept = draw(st.lists(st.booleans(), min_size=len(possible), max_size=len(possible)))
    links |= {link for link, keep in zip(possible, kept) if keep}
    graph = nx.Graph(sorted(links))
    root = draw(st.integers(min_value=0, max_value=n - 1))
    r = draw(st.integers(min_value=1, max_value=global_edge_connectivity(graph)))
    nodes = list(graph.nodes)
    arcs = {arc for u, v in graph.edges for arc in ((u, v), (v, u))}
    for arc in draw(st.permutations(sorted(arcs))):
        if draw(st.booleans()) and _every_node_keeps(arcs - {arc}, nodes, root, r):
            arcs = arcs - {arc}
    return nodes, root, r, arcs


def _keeps(arcs, nodes, w, root, r):
    return _arc_connectivity(arcs, nodes, w, root, stop_at=r) >= r


def _every_node_keeps(arcs, nodes, root, r):
    return all(_keeps(arcs, nodes, w, root, r) for w in nodes if w != root)


class TestTailOnlyPrune:
    @settings(max_examples=200, deadline=None)
    @given(case=rooted_arc_sets())
    def test_tail_check_equals_the_all_nodes_check(self, case):
        # arcs out of the root are never candidates: the root is attached
        nodes, root, r, arcs = case
        assert _every_node_keeps(arcs, nodes, root, r)
        for arc in sorted(arcs):
            if arc[0] == root:
                continue
            trial = arcs - {arc}
            assert _every_node_keeps(trial, nodes, root, r) == _keeps(trial, nodes, arc[0], root, r)


class TestPackingWork:
    @staticmethod
    def _counted_flows(monkeypatch):
        calls = []
        flow = arborescences._arc_connectivity

        def counted(*args, **kwargs):
            calls.append(None)
            return flow(*args, **kwargs)

        monkeypatch.setattr(arborescences, "_arc_connectivity", counted)
        return calls

    @pytest.mark.parametrize(
        "builder,root",
        [(lambda: construct.torus(5, 5), 0), (lambda: construct.fat_tree(8), ("core", 0))],
        ids=["torus(5,5)", "fattree(8)"],
    )
    def test_default_k_packing_makes_at_most_two_flows_per_tree_arc(
        self, monkeypatch, builder, root
    ):
        graph = builder()
        calls = self._counted_flows(monkeypatch)
        trees = arc_disjoint_in_arborescences(graph, root)
        assert verify_arborescences(graph, root, trees)
        assert len(calls) <= 2 * len(trees) * (graph.number_of_nodes() - 1)

    @pytest.mark.parametrize(
        "builder,root",
        [(lambda: construct.fat_tree(4), ("core", 0)), (lambda: construct.grid_graph(4, 4), 1)],
        ids=["fattree(4)", "grid(4,4)"],
    )
    def test_k_above_the_connectivity_is_refused_after_one_pass(self, monkeypatch, builder, root):
        # each tree holds one path from every node, so k trees need k
        # arc-disjoint paths from every node: λ = 2 here refuses k = 3
        graph = builder()
        calls = self._counted_flows(monkeypatch)
        with pytest.raises(RuntimeError, match=re.escape(f"could not pack 3 arborescences rooted at {root!r}")):
            arc_disjoint_in_arborescences(graph, root, k=3)
        assert len(calls) <= graph.number_of_nodes() - 1


class TestSearchDepth:
    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        # torus(5,5) commits 96 arcs; the search runs a few frames deep
        graph = construct.torus(5, 5)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            trees = arc_disjoint_in_arborescences(graph, 0)
        finally:
            sys.setrecursionlimit(limit)
        assert len(trees) == 4 and verify_arborescences(graph, 0, trees)

    def test_long_ring_packs_at_the_default_limit(self):
        graph = construct.cycle_graph(600)
        trees = arc_disjoint_in_arborescences(graph, 0)
        assert len(trees) == 2 and verify_arborescences(graph, 0, trees)


if __name__ == "__main__":
    # re-records the pinned digests: run only where the packings are
    # meant to change, and say why in the change that commits the file
    FIXTURE.write_text(
        json.dumps(
            {
                "about": "sha256 of the canonical JSON of arc_disjoint_in_arborescences "
                "at every listed root, per (topology, k); see tests/test_arborescences.py",
                "digests": pinned_packing_digests(),
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
