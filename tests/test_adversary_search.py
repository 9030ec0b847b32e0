"""The generic adversarial search machinery (exhaustive, random, minimize)."""

import networkx as nx
import pytest

from repro.core.adversary.search import (
    AttackResult,
    exhaustive_attack,
    make_view,
    random_attack,
    verify_attack,
)
from repro.core.algorithms import GreedyLowestNeighbor, K5SourceRouting
from repro.core.simulator import Network
from repro.graphs import construct
from repro.graphs.connectivity import are_connected, st_edge_connectivity
from repro.graphs.edges import failure_set


class TestMakeView:
    def test_alive_and_failed_partition(self):
        g = construct.complete_graph(4)
        view = make_view(g, 0, inport=1, alive=[1, 3])
        assert view.alive == (1, 3)
        assert view.failed_links == failure_set((0, 2))

    def test_empty_alive(self):
        g = construct.complete_graph(3)
        view = make_view(g, 0, inport=None, alive=[])
        assert view.alive == ()
        assert len(view.failed_links) == 2

    @pytest.mark.parametrize("alive", [[2, 10], [2, 10, "x"], ["x", 2]])
    def test_mixed_labels_give_the_simulators_view(self, alive):
        # node 1's neighbourhood {2, 10, 'x'} does not compare, so the
        # simulator orders every port of the graph by (type name, repr):
        # 10 before 2, and ints before strings
        g = nx.Graph([(1, 2), (2, 10), (10, 1), (1, "x"), ("x", 2)])
        failed = failure_set(*[(1, v) for v in (2, 10, "x") if v not in alive])
        assert make_view(g, 1, inport=2, alive=alive) == Network(g).view(1, 2, failed)


class TestVerifyAttack:
    def test_rejects_disconnecting_failures(self):
        g = construct.path_graph(3)
        pattern = GreedyLowestNeighbor().build(g, 2)
        assert not verify_attack(g, pattern, 0, 2, failure_set((1, 2)))

    def test_rejects_delivered(self):
        g = construct.complete_graph(4)
        pattern = GreedyLowestNeighbor().build(g, 3)
        assert not verify_attack(g, pattern, 0, 3, frozenset())

    def test_accepts_genuine_witness(self):
        g = construct.complete_graph(5)
        pattern = GreedyLowestNeighbor().build(g, 4)
        witness = exhaustive_attack(g, pattern, 0, 4)
        assert witness is not None
        assert verify_attack(g, pattern, 0, 4, witness.failures)

    def test_min_connectivity_promise(self):
        g = construct.complete_graph(5)
        pattern = GreedyLowestNeighbor().build(g, 4)
        heavy = failure_set((0, 4), (1, 4), (2, 4))
        # with the 3-connectivity promise this failure set is out of scope
        assert st_edge_connectivity(g, 0, 4, heavy) < 3
        assert not verify_attack(g, pattern, 0, 4, heavy, min_connectivity=3)


class TestExhaustiveAttack:
    def test_finds_smallest_witness_first(self):
        g = construct.complete_graph(5)
        pattern = GreedyLowestNeighbor().build(g, 4)
        witness = exhaustive_attack(g, pattern, 0, 4)
        assert witness is not None
        # enumeration is by increasing size: no smaller witness exists
        for smaller in range(len(witness.failures)):
            assert (
                exhaustive_attack(g, pattern, 0, 4, max_failures=smaller) is None
                or smaller == len(witness.failures)
            )

    def test_none_against_perfect_pattern(self):
        g = construct.complete_graph(5)
        pattern = K5SourceRouting().build(g, 0, 4)
        assert exhaustive_attack(g, pattern, 0, 4) is None


class TestRandomAttack:
    def test_finds_and_minimizes(self):
        g = construct.complete_graph(5)
        pattern = GreedyLowestNeighbor().build(g, 4)
        witness = random_attack(g, pattern, 0, 4, attempts=2_000, seed=3)
        assert witness is not None
        # minimality: removing any single failure un-breaks the witness
        for link in witness.failures:
            reduced = frozenset(witness.failures - {link})
            assert not verify_attack(g, pattern, 0, 4, reduced)

    def test_respects_budget(self):
        g = construct.complete_graph(5)
        pattern = GreedyLowestNeighbor().build(g, 4)
        witness = random_attack(g, pattern, 0, 4, max_failures=4, attempts=3_000, seed=1)
        if witness is not None:
            assert len(witness.failures) <= 4

    def test_gives_up_on_perfect_pattern(self):
        g = construct.complete_graph(4)
        pattern = K5SourceRouting().build(g, 0, 3)
        assert random_attack(g, pattern, 0, 3, attempts=300, seed=0) is None

    def test_attack_result_size(self):
        result = AttackResult(failure_set((0, 1), (2, 3)), method="test")
        assert result.size == 2
