"""Lemmas 1, 3, 4 and Theorem 16: touring impossibility."""

import pytest

from repro.core import simulator
from repro.core.adversary import (
    attack_touring,
    attack_touring_pattern,
    cyclic_permutation_violation,
    touring,
    touring_impossibility_graphs,
)
from repro.core.algorithms import RandomPortCycles, RightHandTouring
from repro.core.model import FunctionPattern
from repro.core.resilience import all_failure_sets
from repro.graphs import construct


class TestLemmas3And4:
    """No touring pattern survives on K4 / K2,3 — exhaustively."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name,graph", touring_impossibility_graphs(), ids=["K4", "K2,3"])
    def test_random_cycles_broken(self, name, graph, seed):
        witness = attack_touring(graph, RandomPortCycles(seed=seed))
        assert witness is not None
        start, failures = witness
        assert start in graph.nodes

    def test_k4_witness_small(self):
        # Lemma 3 uses exactly two failures; the exhaustive adversary finds
        # a witness of at most that size
        witness = attack_touring(construct.complete_graph(4), RandomPortCycles(seed=0))
        assert len(witness[1]) <= 2

    def test_k23_witness_small(self):
        # Lemma 4 uses exactly one failure
        witness = attack_touring(construct.complete_bipartite(2, 3), RandomPortCycles(seed=1))
        assert len(witness[1]) <= 1


class TestTheorem16ClosesBothSides:
    def test_outerplanar_graphs_survive(self):
        # the same adversary finds nothing on outerplanar graphs toured by
        # the right-hand rule (Cor 6 positive side)
        witness = attack_touring(construct.cycle_graph(5), RightHandTouring())
        assert witness is None

    def test_fan_survives(self):
        witness = attack_touring(construct.fan_graph(5), RightHandTouring())
        assert witness is None

    def test_each_scenario_floods_its_component_once(self, monkeypatch):
        # tours_component answers a start alone in its component from its
        # own flood, so the adversary floods once per (start, failure set)
        floods = []
        flood = simulator.component_of

        def counted(*args, **kwargs):
            floods.append(None)
            return flood(*args, **kwargs)

        for module in (simulator, touring):
            if hasattr(module, "component_of"):
                monkeypatch.setattr(module, "component_of", counted)
        graph = construct.fan_graph(6)
        assert attack_touring(graph, RightHandTouring()) is None
        scenarios = graph.number_of_nodes() * len(list(all_failure_sets(graph)))
        assert len(floods) == scenarios == 3072


class TestLemma1:
    def test_right_hand_rule_is_cyclic(self):
        graph = construct.cycle_graph(5)
        pattern = RightHandTouring().build(graph)
        assert cyclic_permutation_violation(graph, pattern) is None

    def test_violation_detected_and_punished(self):
        graph = construct.cycle_graph(4)

        def stubborn(view):
            # always go to the lowest alive neighbour: not a permutation
            return view.alive[0] if view.alive else None

        pattern = FunctionPattern(stubborn)
        witness = cyclic_permutation_violation(graph, pattern)
        assert witness is not None
        node, failures = witness
        # the Lemma's failure set really breaks the tour
        broken = attack_touring_pattern(graph, pattern)
        assert broken is not None
