"""Traffic subsystem: matrices, batched load router, congestion sweeps.

The load-router tests are differential at their core: the batched
functional-graph router must reproduce, link for link and counter for
counter, what one naive simulated walk per demand produces — across all
three routing models and randomized graphs/failure sets (the ISSUE 2
acceptance bar).
"""

import random

import networkx as nx
import pytest

from repro.core.algorithms import (
    ArborescenceRouting,
    Distance2Algorithm,
    GreedyLowestNeighbor,
    RightHandTouring,
)
from repro.core.engine.sweep import EngineState
from repro.core.simulator import Network, route
from repro.experiments import ExperimentSession, naive_session
from repro.failures import RandomGridModel, sample_failure_grid
from repro.graphs import construct
from repro.graphs.edges import edge, edge_sort_key, failure_set
from repro.traffic import (
    Demand,
    TrafficEngine,
    all_to_all,
    all_to_one,
    compare_congestion,
    congestion_table,
    gravity,
    greedy_congestion_attack,
    hotspot,
    per_packet_loads,
    permutation,
    preflight_congestion_curve,
    route_matrix,
    total_volume,
)


def random_connected_graph(seed, n_low=4, n_high=9, p=0.5):
    rng = random.Random(seed)
    while True:
        n = rng.randint(n_low, n_high)
        graph = nx.gnp_random_graph(n, p, seed=rng.randint(0, 10**6))
        if graph.number_of_edges() >= 3 and nx.is_connected(graph):
            return graph


def random_failures(graph, seed, fraction=2):
    rng = random.Random(seed)
    links = sorted((edge(u, v) for u, v in graph.edges), key=edge_sort_key)
    return frozenset(rng.sample(links, rng.randint(0, len(links) // fraction)))


def assert_reports_equal(fast, slow):
    assert fast.loads == slow.loads
    for field in (
        "demands",
        "total_volume",
        "delivered_volume",
        "dropped_volume",
        "looped_volume",
        "disconnected_volume",
        "delivered_hops",
    ):
        assert getattr(fast, field) == getattr(slow, field), field
    assert fast.stretch_volume == pytest.approx(slow.stretch_volume)


class TestMatrices:
    def test_all_to_one_shape(self):
        g = construct.complete_graph(5)
        demands = all_to_one(g, 0, volume=3)
        assert len(demands) == 4
        assert all(d.destination == 0 and d.volume == 3 for d in demands)

    def test_all_to_all_shape(self):
        g = construct.cycle_graph(4)
        demands = all_to_all(g)
        assert len(demands) == 12
        assert total_volume(demands) == 12

    def test_permutation_is_a_derangement(self):
        g = construct.complete_graph(7)
        demands = permutation(g, seed=3)
        assert len(demands) == 7
        assert sorted(d.source for d in demands) == sorted(g.nodes)
        assert sorted(d.destination for d in demands) == sorted(g.nodes)
        assert all(d.source != d.destination for d in demands)

    def test_generators_deterministic(self):
        g = construct.fat_tree(4)
        assert permutation(g, seed=5) == permutation(g, seed=5)
        assert hotspot(g, seed=5) == hotspot(g, seed=5)
        assert gravity(g, seed=5) == gravity(g, seed=5)

    def test_gravity_prefers_high_degree(self):
        g = construct.star_graph(5)  # hub 0 has degree 5, leaves 1
        demands = gravity(g, total_volume=600, seed=0)
        hub_volume = sum(d.volume for d in demands if 0 in (d.source, d.destination))
        assert hub_volume > total_volume(demands) / 2

    def test_demand_validation(self):
        with pytest.raises(ValueError):
            Demand(1, 1)
        with pytest.raises(ValueError):
            Demand(1, 2, volume=0)
        with pytest.raises(ValueError):
            all_to_one(construct.cycle_graph(3), "missing")


class TestLoadConservation:
    """Σ per-link load == Σ volume · (links on that demand's walk)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_total_load_equals_weighted_path_lengths(self, seed):
        graph = random_connected_graph(seed)
        failures = random_failures(graph, seed + 100)
        demands = all_to_all(graph, volume=2)
        algorithm = GreedyLowestNeighbor()
        report = route_matrix(graph, algorithm, demands, failures)
        network = Network(graph)
        patterns = {t: algorithm.build(graph, t) for t in graph.nodes}
        expected = sum(
            demand.volume
            * route(
                network, patterns[demand.destination], demand.source, demand.destination, failures
            ).steps
            for demand in demands
        )
        assert sum(report.loads.values()) == expected

    def test_failed_links_carry_no_load(self):
        graph = construct.complete_graph(5)
        failures = failure_set((0, 1), (2, 3))
        report = route_matrix(graph, ArborescenceRouting(), all_to_all(graph), failures)
        assert report.loads[(0, 1)] == 0
        assert report.loads[(2, 3)] == 0

    def test_volume_counters_partition_the_matrix(self):
        graph = random_connected_graph(17)
        failures = random_failures(graph, 18)
        report = route_matrix(graph, GreedyLowestNeighbor(), all_to_all(graph), failures)
        assert (
            report.delivered_volume + report.dropped_volume + report.looped_volume
            == report.total_volume
        )


class TestBatchedNaiveParity:
    """The acceptance bar: exact load parity across all three models."""

    @pytest.mark.parametrize("seed", range(8))
    def test_destination_model(self, seed):
        graph = random_connected_graph(seed)
        failures = random_failures(graph, seed + 50)
        demands = all_to_all(graph)
        for algorithm in (GreedyLowestNeighbor(), ArborescenceRouting()):
            fast = route_matrix(graph, algorithm, demands, failures)
            slow = per_packet_loads(graph, algorithm, demands, failures)
            assert_reports_equal(fast, slow)

    @pytest.mark.parametrize("seed", range(8))
    def test_source_destination_model(self, seed):
        graph = random_connected_graph(seed * 31 + 7)
        failures = random_failures(graph, seed + 200)
        demands = hotspot(graph, seed=seed)
        algorithm = Distance2Algorithm()
        assert_reports_equal(
            route_matrix(graph, algorithm, demands, failures),
            per_packet_loads(graph, algorithm, demands, failures),
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_touring_model(self, seed):
        graph = construct.maximal_outerplanar(4 + seed % 5, seed=seed)
        failures = random_failures(graph, seed + 300)
        demands = all_to_all(graph)
        algorithm = RightHandTouring()
        assert_reports_equal(
            route_matrix(graph, algorithm, demands, failures),
            per_packet_loads(graph, algorithm, demands, failures),
        )

    def test_exhaustive_failure_sets_on_a_gadget(self):
        """Every failure set of a small graph, not just sampled ones."""
        from repro.core.resilience import all_failure_sets

        graph = construct.fig2_two_rail(2)
        demands = all_to_one(graph, "t")
        engine = TrafficEngine(graph, GreedyLowestNeighbor())
        for failures in all_failure_sets(graph, max_failures=2):
            assert_reports_equal(
                engine.load(demands, failures),
                per_packet_loads(graph, GreedyLowestNeighbor(), demands, failures),
            )

    @pytest.mark.parametrize("matrix", ["all-to-one", "permutation"])
    def test_fat_tree_failure_grid(self, matrix):
        """fat-tree(4) incast and permutation traffic over a sampled grid."""
        graph = construct.fat_tree(4)
        if matrix == "all-to-one":
            demands = all_to_one(graph, ("core", 0))
        else:
            demands = permutation(graph, seed=1)
        grid = sample_failure_grid(graph, [0, 2], 3, seed=0)
        sets = [failures for size in sorted(grid) for failures in grid[size]]
        algorithm = ArborescenceRouting()
        reports = TrafficEngine(graph, algorithm).load_sweep(demands, sets)
        assert len(reports) == len(sets) > 1
        for failures, report in zip(sets, reports):
            assert_reports_equal(report, per_packet_loads(graph, algorithm, demands, failures))

    def test_fallback_for_failures_outside_the_graph(self):
        graph = construct.cycle_graph(5)
        failures = frozenset({("v1", "nowhere")})
        demands = all_to_one(graph, 0)
        assert_reports_equal(
            route_matrix(graph, GreedyLowestNeighbor(), demands, failures),
            per_packet_loads(graph, GreedyLowestNeighbor(), demands, failures),
        )
        # a sweep mixing canonical sets with ones the router cannot mask
        graph = construct.cycle_graph(8)
        demands = permutation(graph, seed=2)
        sets = [
            frozenset(),
            frozenset({(1, 0)}),  # non-canonical: effectively alive
            frozenset({(0, 99)}),  # outside the graph
            frozenset({(2, 3), (4, 5)}),
        ]
        reports = TrafficEngine(graph, GreedyLowestNeighbor()).load_sweep(demands, sets)
        assert len(reports) == len(sets)
        for failures, report in zip(sets, reports):
            assert_reports_equal(
                report, per_packet_loads(graph, GreedyLowestNeighbor(), demands, failures)
            )

    def test_rejects_unknown_endpoints(self):
        graph = construct.cycle_graph(4)
        demands = [Demand("ghost", 0)]
        with pytest.raises(ValueError):
            route_matrix(graph, GreedyLowestNeighbor(), demands)
        with pytest.raises(ValueError):
            per_packet_loads(graph, GreedyLowestNeighbor(), demands)

    def test_session_keyword_is_removed(self):
        # a session hands out its router: session.traffic_engine(graph, algorithm)
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            TrafficEngine(
                construct.cycle_graph(4), GreedyLowestNeighbor(), session=ExperimentSession()
            )

    def test_engine_state_is_reusable(self):
        graph = construct.fat_tree(4)
        state = EngineState(graph)
        demands = permutation(graph, seed=2)
        first = route_matrix(state, ArborescenceRouting(), demands)
        second = route_matrix(graph, ArborescenceRouting(), demands)
        assert first.loads == second.loads


class TestLoadReport:
    def test_percentiles_and_max(self):
        graph = construct.cycle_graph(6)
        report = route_matrix(graph, GreedyLowestNeighbor(), all_to_one(graph, 0))
        assert report.max_load == max(report.loads.values())
        assert report.percentile(100) == report.max_load
        assert report.percentile(1) == min(report.loads.values())
        assert report.p99_load <= report.max_load

    def test_delivered_fraction_and_stretch(self):
        graph = construct.complete_graph(5)
        report = route_matrix(graph, ArborescenceRouting(), all_to_all(graph))
        assert report.delivered_fraction == 1.0
        assert report.mean_stretch >= 1.0


class TestCongestionSweeps:
    def test_curve_shape_and_failure_free_point(self):
        graph = construct.fat_tree(4)
        demands = permutation(graph, seed=1)
        grid = RandomGridModel(sizes=(0, 2), samples=4, seed=0).grid(graph)
        curve, reason = preflight_congestion_curve(
            TrafficEngine(graph, ArborescenceRouting()), demands, grid
        )
        assert reason is None
        assert curve.algorithm == ArborescenceRouting.name
        assert [point.failures for point in curve.points] == [0, 2]
        baseline = curve.at(0)
        assert baseline.scenarios == 1
        assert baseline.delivered_fraction == 1.0
        assert baseline.mean_max_load == baseline.worst_max_load

    def test_sample_grid_is_deterministic_and_shared(self):
        graph = construct.hypercube(3)
        grid_a = sample_failure_grid(graph, [0, 2, 3], samples=5, seed=9)
        grid_b = sample_failure_grid(graph, [0, 2, 3], samples=5, seed=9)
        assert grid_a == grid_b
        assert grid_a[0] == [frozenset()]
        assert all(len(f) == 2 for f in grid_a[2])

    def test_compare_skips_unsupported_algorithms(self):
        graph = construct.fat_tree(4)  # not outerplanar: tour must be skipped
        result = compare_congestion(
            graph,
            permutation(graph, seed=1),
            failure_model=RandomGridModel(sizes=(0, 1), samples=2, seed=0),
        )
        skipped_names = {name for name, _ in result.skipped}
        assert "tour-to-destination (Cor 5)" in skipped_names
        assert len(result.curves) >= 2
        # every surviving competitor saw the same grid
        sizes = {tuple(p.failures for p in curve.points) for curve in result.curves}
        assert len(sizes) == 1
        assert congestion_table(result.curves)  # renders

    def test_naive_session_routes_every_surface_per_packet(self, monkeypatch):
        """Given a naive session, each congestion surface takes the
        session's reference router, whose loads are per_packet_loads:
        the same numbers as an engine session's batched router."""
        import repro.traffic.load as load_module

        calls = []
        reference = load_module.per_packet_loads

        def counted(*args, **kwargs):
            calls.append(args)
            return reference(*args, **kwargs)

        monkeypatch.setattr(load_module, "per_packet_loads", counted)
        graph = construct.cycle_graph(6)
        algorithm = GreedyLowestNeighbor()
        demands = all_to_one(graph, 0)
        model = RandomGridModel(sizes=(0, 1), samples=2, seed=0)
        surfaces = {
            "compare_congestion": lambda session: compare_congestion(
                graph, demands, algorithms=[algorithm], failure_model=model, session=session
            ).curves,
            "preflight_congestion_curve": lambda session: preflight_congestion_curve(
                session.traffic_engine(graph, algorithm), demands, model.grid(graph)
            ),
            "greedy_congestion_attack": lambda session: greedy_congestion_attack(
                graph, algorithm, demands, max_failures=2, session=session
            ),
        }
        for name, surface in surfaces.items():
            calls.clear()
            naive = surface(naive_session())
            assert calls, name
            calls.clear()
            assert surface(ExperimentSession()) == naive, name
            assert not calls, name

    def test_greedy_attack_is_verified_and_connected(self):
        graph = construct.fat_tree(4)
        demands = all_to_one(graph, ("core", 0))
        attack = greedy_congestion_attack(graph, ArborescenceRouting(), demands, max_failures=2)
        assert attack.max_load >= attack.baseline_max_load
        survivors = nx.Graph(graph)
        survivors.remove_edges_from(attack.failures)
        assert nx.is_connected(survivors)
        # the witness is genuine: re-simulation reproduces the load
        verified = route_matrix(graph, ArborescenceRouting(), demands, attack.failures)
        assert verified.max_load == attack.max_load
