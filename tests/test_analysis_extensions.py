"""Table-space accounting, random-failure curves, and stretch measurement."""

import math

import pytest

from repro.analysis import (
    compare_curves,
    delivery_curve,
    measure_stretch,
    measured_table_space,
    table_space,
    table_space_report,
)
from repro.core.algorithms import (
    ArborescenceRouting,
    Distance2Algorithm,
    GreedyLowestNeighbor,
    K5SourceRouting,
    RightHandTouring,
    TourToDestination,
)
from repro.graphs import construct


class TestTableSpace:
    def test_touring_needs_least_rules(self):
        space = table_space(construct.complete_graph(6), "K6")
        assert space.touring_rules < space.destination_rules
        assert space.destination_rules < space.source_destination_rules

    def test_exact_counts_on_ring(self):
        # ring: every node has degree 2, so 3 port keys per node
        space = table_space(construct.cycle_graph(5), "C5")
        assert space.touring_rules == 5 * 3
        assert space.destination_rules == 5 * 4 * 3
        assert space.source_destination_rules == 5 * 20 * 3

    def test_saving_ratio(self):
        space = table_space(construct.cycle_graph(10))
        assert space.touring_saving == pytest.approx(9.0)

    def test_report(self):
        report = table_space_report(
            {"C4": construct.cycle_graph(4), "K4": construct.complete_graph(4)}
        )
        assert [entry.name for entry in report] == ["C4", "K4"]


class TestMeasuredTableSpace:
    def test_touring_still_needs_least_rules_measured(self):
        graph = construct.fan_graph(6)
        space = measured_table_space(
            graph,
            destination_algorithm=ArborescenceRouting(),
            source_destination_algorithm=Distance2Algorithm(),
            touring_algorithm=RightHandTouring(),
            name="fan6",
        )
        assert 0 < space.touring_rules < space.destination_rules
        assert space.destination_rules < space.source_destination_rules
        assert space.touring_saving > 1.0

    def test_models_without_algorithm_report_zero(self):
        graph = construct.cycle_graph(4)
        space = measured_table_space(graph, touring_algorithm=RightHandTouring())
        assert space.destination_rules == 0
        assert space.source_destination_rules == 0
        assert space.touring_rules > 0

    def test_measured_is_deterministic(self):
        graph = construct.cycle_graph(5)
        runs = [
            measured_table_space(graph, destination_algorithm=ArborescenceRouting())
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_rejects_failures_outside_graph(self):
        graph = construct.cycle_graph(4)
        with pytest.raises(ValueError):
            measured_table_space(
                graph,
                touring_algorithm=RightHandTouring(),
                failure_sets=[frozenset({("v1", "nope")})],
            )


class TestDeliveryCurves:
    def test_perfect_pattern_stays_at_one(self):
        graph = construct.complete_graph(5)
        curve = delivery_curve(
            graph, K5SourceRouting(), 0, 4, sizes=[0, 2, 4, 6], samples=60, seed=1
        )
        assert all(p == 1.0 for p in curve.probabilities)

    def test_greedy_decays(self):
        graph = construct.complete_graph(5)
        curve = delivery_curve(
            graph, GreedyLowestNeighbor(), 0, 4, sizes=[0, 4, 6], samples=80, seed=2
        )
        assert curve.probabilities[0] == 1.0
        assert min(curve.probabilities) < 1.0

    def test_compare_orders_algorithms(self):
        graph = construct.complete_graph(5)
        curves = compare_curves(
            graph,
            [K5SourceRouting(), GreedyLowestNeighbor()],
            0,
            4,
            sizes=[5],
            samples=80,
            seed=3,
        )
        assert curves[0].probabilities[0] >= curves[1].probabilities[0]

    def test_curve_lookup(self):
        graph = construct.cycle_graph(5)
        curve = delivery_curve(graph, TourToDestination(), 0, 2, sizes=[0, 1], samples=30)
        assert curve.at(0) == 1.0


class TestStretch:
    def test_direct_routing_stretch_one_without_failures(self):
        graph = construct.complete_graph(5)
        summary = measure_stretch(graph, K5SourceRouting(), 0, 4, max_failures=0, samples=10)
        assert summary.mean_stretch == pytest.approx(1.0)
        assert summary.delivery_rate == 1.0

    def test_failover_costs_stretch(self):
        graph = construct.complete_graph(5)
        summary = measure_stretch(graph, K5SourceRouting(), 0, 4, max_failures=6, samples=200, seed=5)
        assert summary.delivery_rate == 1.0  # perfectly resilient
        assert summary.mean_stretch >= 1.0
        assert summary.max_stretch >= summary.mean_stretch

    def test_tour_to_destination_stretch(self):
        graph = construct.wheel_graph(6)
        summary = measure_stretch(graph, TourToDestination(), 1, 0, max_failures=4, samples=150, seed=6)
        assert summary.delivery_rate == 1.0
        assert not math.isnan(summary.mean_stretch)

    def test_baseline_drops_scenarios(self):
        graph = construct.complete_graph(5)
        summary = measure_stretch(
            graph, ArborescenceRouting(), 0, 4, max_failures=8, samples=200, seed=7
        )
        # the ideal-resilience baseline is not perfectly resilient
        assert summary.delivery_rate < 1.0


class TestNaiveSession:
    """A naive session walks every scenario with the reference simulator
    and measures the engine session's numbers."""

    @pytest.mark.parametrize(
        "algorithm", [K5SourceRouting(), GreedyLowestNeighbor(), ArborescenceRouting()]
    )
    def test_stretch_matches_the_engine_session(self, algorithm):
        from repro.experiments import ExperimentSession, naive_session

        graph = construct.complete_graph(5)
        runs = [
            measure_stretch(
                graph, algorithm, 0, 4, max_failures=6, samples=60, seed=5, session=session
            )
            for session in (naive_session(), ExperimentSession())
        ]
        assert runs[0].scenarios == 60
        assert repr(runs[0]) == repr(runs[1])

    @pytest.mark.parametrize("algorithm", [K5SourceRouting(), GreedyLowestNeighbor()])
    def test_delivery_curve_matches_the_engine_session(self, algorithm):
        from repro.experiments import ExperimentSession, naive_session

        graph = construct.complete_graph(5)
        curves = [
            delivery_curve(
                graph, algorithm, 0, 4, sizes=[0, 4, 6], samples=40, seed=2, session=session
            )
            for session in (naive_session(), ExperimentSession())
        ]
        assert curves[0] == curves[1]
