"""Materialized forwarding tables: patterns are finite installable state."""

import json

import pytest

from repro.core.algorithms import K5SourceRouting, RightHandTouring, TourToDestination
from repro.core.export import materialize, reload_pattern
from repro.core.model import SourceDestinationAlgorithm
from repro.core.resilience import (
    all_failure_sets,
    check_pattern_resilience,
    check_perfect_touring,
)
from repro.core.simulator import Network, route
from repro.experiments.registry import resolve_topology, scheme
from repro.graphs import construct
from repro.graphs.edges import failure_set


class TestMaterialize:
    def test_rule_count_is_exponential_in_degree(self):
        graph = construct.cycle_graph(4)  # degree 2 everywhere
        pattern = TourToDestination().build(graph, 0)
        table = materialize(graph, pattern)
        # per node: sum over failure subsets of (alive ports + 1)
        # degree 2: F={} -> 3, two singleton F -> 2 each, F=both -> 1: total 8
        assert len(table) == 4 * 8

    def test_rejects_high_degree(self):
        graph = construct.star_graph(15)
        pattern = TourToDestination().build(graph, 1)
        with pytest.raises(ValueError):
            materialize(graph, pattern)

    def test_subset_of_nodes(self):
        graph = construct.cycle_graph(5)
        pattern = TourToDestination().build(graph, 0)
        table = materialize(graph, pattern, nodes=[1, 2])
        assert {rule.node for rule in table.rules} == {1, 2}

    def test_json_round_trips_text(self):
        graph = construct.cycle_graph(4)
        pattern = RightHandTouring().build(graph)
        payload = json.loads(materialize(graph, pattern).to_json())
        assert len(payload) == 32
        assert all("out" in row for row in payload)


class TestReplayFidelity:
    def test_algorithm1_replay_is_identical(self):
        graph = construct.complete_graph(5)
        pattern = K5SourceRouting().build(graph, 0, 4)
        replay = reload_pattern(materialize(graph, pattern))
        network = Network(graph)
        for failures in all_failure_sets(graph, max_failures=3):
            original = route(network, pattern, 0, 4, failures)
            replayed = route(network, replay, 0, 4, failures)
            assert original.outcome == replayed.outcome
            assert original.path == replayed.path

    @pytest.mark.parametrize(
        "topology,scheme_name",
        [("ring(12)", "greedy"), ("grid(3,4)", "greedy"), ("grid(3,4)", "distance2")],
    )
    def test_replay_is_identical_past_ten_nodes(self, topology, scheme_name):
        # from 11 integer nodes on, repr order (10 before 2) is not the
        # simulator's port order: each rule must answer the simulator's view
        graph = resolve_topology(topology)
        algorithm = scheme(scheme_name).instantiate()
        nodes = sorted(graph.nodes)
        destination = nodes[0]
        if isinstance(algorithm, SourceDestinationAlgorithm):
            sources = [nodes[-1]]
            pattern = algorithm.build(graph, nodes[-1], destination)
        else:
            sources = nodes[1:]
            pattern = algorithm.build(graph, destination)
        replay = reload_pattern(materialize(graph, pattern))
        network = Network(graph)
        for failures in all_failure_sets(graph, max_failures=2):
            for source in sources:
                original = route(network, pattern, source, destination, failures)
                replayed = route(network, replay, source, destination, failures)
                assert (replayed.outcome, replayed.path) == (original.outcome, original.path)

    def test_replayed_pattern_is_still_perfectly_resilient(self):
        graph = construct.wheel_graph(5)
        pattern = TourToDestination().build(graph, 0)
        replay = reload_pattern(materialize(graph, pattern))
        verdict = check_pattern_resilience(graph, replay, 0)
        assert verdict.resilient, str(verdict.counterexample)

    def test_replayed_touring_still_tours(self):
        graph = construct.fan_graph(6)

        class _Replayed(RightHandTouring):
            def build(self, g):
                return reload_pattern(materialize(g, RightHandTouring().build(g)))

        verdict = check_perfect_touring(graph, _Replayed())
        assert verdict.resilient, str(verdict.counterexample)

    def test_lookup_matches_forward(self):
        graph = construct.complete_graph(4)
        pattern = TourToDestination().build(graph, 3)
        table = materialize(graph, pattern)
        network = Network(graph)
        failures = failure_set((0, 3))
        view = network.view(0, 1, failures)
        assert table.lookup(0, view.failed_links, 1) == pattern.forward(view)
