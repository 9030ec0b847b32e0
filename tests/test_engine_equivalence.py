"""Engine ⇔ naive equivalence: the fast path must change nothing.

Property-style differential tests: for random graphs, all three routing
models, and the paper gadgets (K7, K4,4, Netrail), the indexed +
memoized engine must return *identical* results to the naive
simulator/checkers — same ``Outcome``, same hop-by-hop path, same
``Verdict`` (resilient flag, scenario count, exhaustiveness) and the
same counterexample trace.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.core.algorithms.naive import (
    GreedyLowestNeighbor,
    RandomCyclicDestinationOnly,
    RandomCyclicPermutations,
    RandomPortCycles,
)
from repro import obs
from repro.core.engine import EngineState, route_indexed, tour_indexed
from repro.core.resilience import (
    EXHAUSTIVE_LINK_LIMIT,
    Verdict,
    all_failure_sets,
    check_pattern_resilience,
    check_perfect_resilience_destination,
    check_perfect_resilience_source_destination,
    check_perfect_touring,
    check_r_tolerance,
    sampled_failure_sets,
)
from repro.core.engine.vectorized import numpy_available
from repro.core.simulator import Network, route, tour
from repro.experiments import (
    ExperimentSession,
    default_session as engine_session,
    naive_session,
)
from repro.graphs.construct import complete_bipartite, complete_graph, fig6_netrail
from repro.graphs.edges import edge, edge_sort_key

RANDOM_GRAPHS_PER_MODEL = 50

#: the differential matrix: every fast backend must equal the naive
#: reference bit for bit (numpy joins the matrix when it is installed)
FAST_BACKENDS = ["engine"] + (["numpy"] if numpy_available() else [])


@pytest.fixture(params=FAST_BACKENDS)
def fast_session(request):
    return ExperimentSession(backend=request.param)


def random_graph(index: int) -> nx.Graph:
    """A small connected random graph, deterministic per index."""
    rng = random.Random(index)
    n = rng.randint(5, 8)
    while True:
        graph = nx.gnp_random_graph(n, 0.45, seed=rng.randint(0, 10**9))
        if graph.number_of_edges() >= n - 1 and nx.is_connected(graph):
            return graph


def verdict_tuple(verdict):
    t = (verdict.resilient, verdict.scenarios_checked, verdict.exhaustive)
    c = verdict.counterexample
    if c is not None:
        result = None
        if c.result is not None:
            result = (c.result.outcome, tuple(c.result.path), c.result.steps)
        t += (c.source, c.destination, c.failures, result, c.note)
    return t


def small_failure_family(graph: nx.Graph) -> list:
    """All |F| ≤ 2 plus a few random larger sets — cheap but varied."""
    sets = list(all_failure_sets(graph, max_failures=2))
    links = sorted((edge(u, v) for u, v in graph.edges), key=edge_sort_key)
    rng = random.Random(graph.number_of_edges() * 1000 + graph.number_of_nodes())
    for _ in range(5):
        size = rng.randint(3, max(3, len(links)))
        sets.append(frozenset(rng.sample(links, min(size, len(links)))))
    return sets


def assert_routes_match(graph, algorithm, unit, scenarios):
    """Every (source, destination, failures) routes identically under the
    engine state's cached pattern for ``unit``."""
    naive = Network(graph)
    state = EngineState(graph)
    memo = state.pattern(algorithm, *unit)
    network = state.network
    for source, destination, failures in scenarios:
        expected = route(naive, memo.pattern, source, destination, failures)
        fmask = network.mask_of(failures)
        assert fmask is not None
        got = route_indexed(
            network, memo, network.index[source], network.index[destination], fmask
        )
        assert got.outcome is expected.outcome, (source, destination, failures)
        assert got.path == expected.path, (source, destination, failures)
        assert got.steps == expected.steps, (source, destination, failures)


class TestRouteEquivalenceRandomGraphs:
    @pytest.mark.parametrize("index", range(RANDOM_GRAPHS_PER_MODEL))
    def test_destination_model(self, index):
        graph = random_graph(index)
        destination = min(graph.nodes)
        scenarios = [
            (s, destination, failures)
            for failures in small_failure_family(graph)
            for s in graph.nodes
            if s != destination
        ]
        assert_routes_match(
            graph, RandomCyclicDestinationOnly(seed=index), (destination,), scenarios
        )

    @pytest.mark.parametrize("index", range(RANDOM_GRAPHS_PER_MODEL))
    def test_source_destination_model(self, index):
        graph = random_graph(1_000 + index)
        nodes = sorted(graph.nodes)
        source, destination = nodes[0], nodes[-1]
        scenarios = [
            (source, destination, failures) for failures in small_failure_family(graph)
        ]
        assert_routes_match(
            graph, RandomCyclicPermutations(seed=index), (source, destination), scenarios
        )

    @pytest.mark.parametrize("index", range(RANDOM_GRAPHS_PER_MODEL))
    def test_port_model_tours(self, index):
        graph = random_graph(2_000 + index)
        naive = Network(graph)
        state = EngineState(graph)
        memo = state.pattern(RandomPortCycles(seed=index))
        pattern = memo.pattern
        network = state.network
        for failures in small_failure_family(graph):
            fmask = network.mask_of(failures)
            assert fmask is not None
            for start in graph.nodes:
                expected = tour(naive, pattern, start, failures)
                got = tour_indexed(network, memo, network.index[start], fmask)
                assert got.visited == expected.visited, (start, failures)
                assert got.recurrent == expected.recurrent, (start, failures)
                assert got.failed == expected.failed, (start, failures)
                assert got.path == expected.path, (start, failures)


class TestCheckerEquivalenceRandomGraphs:
    """Full checker verdicts, every fast backend vs naive, on a subsample."""

    @pytest.mark.parametrize("index", range(0, RANDOM_GRAPHS_PER_MODEL, 4))
    def test_destination_checker(self, index, fast_session):
        graph = random_graph(3_000 + index)
        algorithm = GreedyLowestNeighbor()
        fast = check_perfect_resilience_destination(graph, algorithm, session=fast_session)
        slow = check_perfect_resilience_destination(graph, algorithm, session=naive_session())
        assert verdict_tuple(fast) == verdict_tuple(slow)

    @pytest.mark.parametrize("index", range(0, RANDOM_GRAPHS_PER_MODEL, 4))
    def test_source_destination_checker(self, index, fast_session):
        graph = random_graph(4_000 + index)
        algorithm = RandomCyclicPermutations(seed=index)
        fast = check_perfect_resilience_source_destination(
            graph, algorithm, session=fast_session
        )
        slow = check_perfect_resilience_source_destination(graph, algorithm, session=naive_session())
        assert verdict_tuple(fast) == verdict_tuple(slow)

    @pytest.mark.parametrize("index", range(0, RANDOM_GRAPHS_PER_MODEL, 4))
    def test_touring_checker(self, index, fast_session):
        graph = random_graph(5_000 + index)
        algorithm = RandomPortCycles(seed=index)
        fast = check_perfect_touring(graph, algorithm, session=fast_session)
        slow = check_perfect_touring(graph, algorithm, session=naive_session())
        assert verdict_tuple(fast) == verdict_tuple(slow)

    @pytest.mark.parametrize("index", range(0, RANDOM_GRAPHS_PER_MODEL, 10))
    def test_r_tolerance_checker(self, index, fast_session):
        graph = random_graph(6_000 + index)
        nodes = sorted(graph.nodes)
        algorithm = RandomCyclicPermutations(seed=index)
        fast = check_r_tolerance(graph, algorithm, nodes[0], nodes[-1], 2, session=fast_session)
        slow = check_r_tolerance(graph, algorithm, nodes[0], nodes[-1], 2, session=naive_session())
        assert verdict_tuple(fast) == verdict_tuple(slow)


class TestPaperGadgets:
    """K7, K4,4 and Netrail: the graphs the paper's theorems live on."""

    @pytest.mark.parametrize(
        "maker", [lambda: complete_graph(7), lambda: complete_bipartite(4, 4), fig6_netrail]
    )
    def test_destination_checker_on_gadget(self, maker, fast_session):
        graph = maker()
        failure_sets = list(all_failure_sets(graph, max_failures=2))
        algorithm = GreedyLowestNeighbor()
        fast = check_perfect_resilience_destination(
            graph, algorithm, failure_sets=failure_sets, session=fast_session
        )
        slow = check_perfect_resilience_destination(
            graph, algorithm, failure_sets=failure_sets, session=naive_session()
        )
        assert verdict_tuple(fast) == verdict_tuple(slow)

    @pytest.mark.parametrize(
        "maker", [lambda: complete_graph(7), lambda: complete_bipartite(4, 4), fig6_netrail]
    )
    def test_route_level_on_gadget(self, maker):
        graph = maker()
        nodes = sorted(graph.nodes)
        for seed, (source, destination) in enumerate([(nodes[0], nodes[-1]), (nodes[1], nodes[0])]):
            scenarios = [
                (source, destination, failures) for failures in small_failure_family(graph)
            ]
            assert_routes_match(
                graph, RandomCyclicPermutations(seed=seed), (source, destination), scenarios
            )

    def test_netrail_full_default_enumeration(self, fast_session):
        graph = fig6_netrail()
        algorithm = RandomCyclicDestinationOnly(seed=7)
        fast = check_perfect_resilience_destination(graph, algorithm, session=fast_session)
        slow = check_perfect_resilience_destination(graph, algorithm, session=naive_session())
        assert verdict_tuple(fast) == verdict_tuple(slow)


class TestSampledLargeGraphs:
    """Graphs above EXHAUSTIVE_LINK_LIMIT take the uncached component
    path (sampled failure sets never repeat masks across destinations)."""

    @pytest.mark.parametrize("index", range(3))
    def test_destination_checker_sampled(self, index, fast_session):
        graph = nx.gnp_random_graph(12, 0.5, seed=index)
        assert graph.number_of_edges() > 17 and nx.is_connected(graph)
        destinations = sorted(graph.nodes)[:2]
        algorithm = GreedyLowestNeighbor()
        fast = check_perfect_resilience_destination(
            graph, algorithm, destinations=destinations, session=fast_session
        )
        slow = check_perfect_resilience_destination(
            graph, algorithm, destinations=destinations, session=naive_session()
        )
        assert verdict_tuple(fast) == verdict_tuple(slow)

    def test_touring_checker_sampled(self, fast_session):
        graph = nx.gnp_random_graph(12, 0.5, seed=5)
        assert graph.number_of_edges() > 17
        algorithm = RandomPortCycles(seed=5)
        starts = sorted(graph.nodes)[:3]
        fast = check_perfect_touring(graph, algorithm, starts=starts, session=fast_session)
        slow = check_perfect_touring(graph, algorithm, starts=starts, session=naive_session())
        assert verdict_tuple(fast) == verdict_tuple(slow)


class TestPatternLevel:
    def test_single_pattern_checker_equivalence(self, fast_session):
        graph = fig6_netrail()
        destination = sorted(graph.nodes)[0]
        pattern = GreedyLowestNeighbor().build(graph, destination)
        fast = check_pattern_resilience(graph, pattern, destination, session=fast_session)
        slow = check_pattern_resilience(graph, pattern, destination, session=naive_session())
        assert verdict_tuple(fast) == verdict_tuple(slow)

    def test_mixed_label_graph_matches_naive_ordering(self, fast_session):
        # one non-comparable neighbourhood flips the naive Network to
        # repr-order for *every* node; the engine must follow suit —
        # note 10 vs 2 sort differently under native and repr order
        graph = nx.Graph()
        graph.add_edges_from([(1, 2), (2, 10), (10, 1), (1, "x"), ("x", 2)])
        algorithm = GreedyLowestNeighbor()
        fast = check_perfect_resilience_destination(graph, algorithm, session=fast_session)
        slow = check_perfect_resilience_destination(graph, algorithm, session=naive_session())
        assert verdict_tuple(fast) == verdict_tuple(slow)
        destination = 1
        scenarios = [
            (s, destination, failures)
            for failures in small_failure_family(graph)
            for s in graph.nodes
            if s != destination
        ]
        assert_routes_match(graph, RandomCyclicDestinationOnly(seed=3), (destination,), scenarios)

    def test_non_graph_links_fall_back_to_naive_semantics(self, fast_session):
        graph = complete_graph(4)
        destination = 0
        pattern = GreedyLowestNeighbor().build(graph, destination)
        weird = [frozenset({(0, 99)}), frozenset({(1, 2), ("x", "y")})]
        fast = check_pattern_resilience(
            graph, pattern, destination, failure_sets=weird, session=fast_session
        )
        slow = check_pattern_resilience(
            graph, pattern, destination, failure_sets=weird, session=naive_session()
        )
        assert verdict_tuple(fast) == verdict_tuple(slow)

    def test_non_canonical_failure_tuples_keep_naive_semantics(self, fast_session):
        # the naive path matches failures against canonical edges only,
        # so a reversed tuple like (1, 0) is effectively alive; the
        # engine must not canonicalize it into a failed link
        graph = complete_graph(4)
        destination = 0
        pattern = GreedyLowestNeighbor().build(graph, destination)
        reversed_links = [frozenset({(1, 0)}), frozenset({(2, 1), (3, 0)})]
        fast = check_pattern_resilience(
            graph, pattern, destination, failure_sets=reversed_links, session=fast_session
        )
        slow = check_pattern_resilience(
            graph, pattern, destination, failure_sets=reversed_links, session=naive_session()
        )
        assert verdict_tuple(fast) == verdict_tuple(slow)
        # and at the route level (the reviewer's reproduction)
        from repro.core.engine import EngineState
        from repro.graphs.construct import cycle_graph

        ring = cycle_graph(4)
        state = EngineState(ring)
        memo = state.pattern(GreedyLowestNeighbor(), 0)
        got = state.route(memo, 2, 0, frozenset({(1, 0)}))
        expected = route(Network(ring), memo.pattern, 2, 0, frozenset({(1, 0)}))
        assert (got.outcome, got.path, got.steps) == (
            expected.outcome,
            expected.path,
            expected.steps,
        )


def assert_mask_outcomes_match(graph, algorithm, destination, failure_sets, wanted=None):
    """The kernel answers each mask exactly like the naive checker run
    on that one failure set: same count, same counterexample trace."""
    state = EngineState(graph)
    memo = state.pattern(algorithm, destination)
    naive = naive_session()
    for failures in failure_sets:
        checked, counterexample = state.mask_outcome(memo, destination, failures, wanted)
        got = Verdict(counterexample is None, checked, counterexample)
        expected = check_pattern_resilience(
            graph, memo.pattern, destination, sources=wanted, failure_sets=[failures],
            session=naive,
        )
        assert verdict_tuple(got) == verdict_tuple(expected), failures


class TestNaiveState:
    """A naive session's state answers every per-scenario question with
    the reference simulator, and gives the indexed state's answers."""

    def test_scenario_queries_take_the_reference_walks(self, monkeypatch):
        import repro.core.engine.sweep as sweep_module
        import repro.graphs.connectivity as connectivity

        calls = {"route": 0, "connected": 0}

        def counted(kind, function):
            def wrapper(*args, **kwargs):
                calls[kind] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(sweep_module, "naive_route", counted("route", sweep_module.naive_route))
        monkeypatch.setattr(
            connectivity, "are_connected", counted("connected", connectivity.are_connected)
        )
        graph = fig6_netrail()
        nodes = sorted(graph.nodes)
        destination = nodes[0]
        algorithm = RandomCyclicDestinationOnly(seed=1)
        indexed = EngineState(graph)
        naive = naive_session().state(graph)
        indexed_memo = indexed.pattern(algorithm, destination)
        naive_memo = naive.pattern(algorithm, destination)
        sources = nodes[1:]
        for failures in small_failure_family(graph):
            assert naive.mask(failures) is None and indexed.mask(failures) is not None
            expected = indexed.mask_outcome(indexed_memo, destination, failures)
            routes = [indexed.route(indexed_memo, s, destination, failures) for s in sources]
            links = [indexed.connected(s, destination, failures) for s in sources]
            assert calls == {"route": 0, "connected": 0}

            checked, counterexample = naive.mask_outcome(naive_memo, destination, failures)
            assert verdict_tuple(Verdict(counterexample is None, checked, counterexample)) == (
                verdict_tuple(Verdict(expected[1] is None, *expected))
            )
            assert calls["route"] == checked
            calls["route"] = 0
            for source, route_result in zip(sources, routes):
                got = naive.route(naive_memo, source, destination, failures)
                assert (got.outcome, got.path, got.steps) == (
                    route_result.outcome, route_result.path, route_result.steps,
                )
            assert calls["route"] == len(sources)
            assert [naive.connected(s, destination, failures) for s in sources] == links
            assert calls["connected"] == len(sources)
            calls.update(route=0, connected=0)

    def test_sweep_walks_count_by_backend(self):
        """A naive sweep's walks count as reference walks, an engine
        sweep's as covers walks: one per scenario either way."""
        graph = complete_graph(5)
        algorithm = RandomCyclicDestinationOnly(seed=1)
        walks = {}
        for name, session in (("naive", naive_session()), ("engine", ExperimentSession())):
            telemetry = obs.Telemetry()
            with obs.installed(telemetry):
                verdict = check_perfect_resilience_destination(graph, algorithm, session=session)
            registry = telemetry.registry
            assert registry.value("repro_engine_scenarios_total") == verdict.scenarios_checked
            walks[name] = (
                verdict_tuple(verdict),
                {
                    kind: registry.value("repro_engine_walks_total", kind=kind)
                    for kind in ("covers", "reference")
                },
            )
        (naive_verdict, naive_walks), (engine_verdict, engine_walks) = walks.values()
        assert naive_verdict == engine_verdict
        checked = naive_verdict[1]
        assert checked > 0
        assert naive_walks == {"covers": 0, "reference": checked}
        assert engine_walks == {"covers": checked, "reference": 0}


class TestMaskOutcomeKernel:
    """``EngineState.mask_outcome``: the one per-mask delivery check behind
    the sweeps, the serve memo, the estimator and the numpy fallback."""

    @pytest.mark.parametrize("index", range(0, RANDOM_GRAPHS_PER_MODEL, 10))
    def test_matches_naive_on_every_mask(self, index):
        graph = random_graph(7_000 + index)
        failure_sets = small_failure_family(graph)
        for seed, destination in enumerate(graph.nodes):
            assert_mask_outcomes_match(
                graph, RandomCyclicDestinationOnly(seed=seed), destination, failure_sets
            )

    def test_large_graph_takes_the_uncached_component_path(self):
        graph = nx.gnp_random_graph(12, 0.5, seed=0)
        assert graph.number_of_edges() > EXHAUSTIVE_LINK_LIMIT
        failure_sets = list(sampled_failure_sets(graph, samples=30, seed=0))
        destination = sorted(graph.nodes)[0]
        assert_mask_outcomes_match(
            graph, RandomCyclicDestinationOnly(seed=2), destination, failure_sets
        )

    def test_wanted_restricts_the_sources(self):
        graph = fig6_netrail()
        nodes = sorted(graph.nodes)
        destination = nodes[0]
        wanted = set(nodes[::2])  # holds the destination, which is never a source
        assert_mask_outcomes_match(
            graph, RandomCyclicDestinationOnly(seed=1), destination,
            small_failure_family(graph), wanted,
        )

    def test_masks_outside_the_index_take_the_naive_walk(self):
        graph = complete_graph(4)
        network = EngineState(graph).network
        weird = [frozenset({(0, 99)}), frozenset({(1, 2), ("x", "y")}), frozenset({(1, 0)})]
        assert network.mask_of(weird[0]) is None and network.mask_of(weird[1]) is None
        for seed, destination in enumerate(graph.nodes):
            assert_mask_outcomes_match(
                graph, RandomCyclicDestinationOnly(seed=seed), destination, weird
            )

    def test_covers_walks_record_no_telemetry(self):
        # sweeps count their walks once per sweep; inside the kernel only
        # the indexed counterexample re-walk counts, as one route walk
        graph = fig6_netrail()
        destination = sorted(graph.nodes)[0]
        state = EngineState(graph)
        memo = state.pattern(RandomCyclicDestinationOnly(seed=1), destination)
        failure_sets = small_failure_family(graph) + [frozenset({(0, 99)})]
        failing = [
            failures for failures in failure_sets
            if state.mask_outcome(memo, destination, failures)[1] is not None
        ]
        delivered = [failures for failures in failure_sets if failures not in failing]
        assert failing and delivered
        with obs.installed(obs.Telemetry()) as telemetry:
            for failures in delivered:
                state.mask_outcome(memo, destination, failures)
            assert telemetry.registry.families() == []
            for failures in failing:
                state.mask_outcome(memo, destination, failures)
            walks = telemetry.registry.value("repro_engine_walks_total", kind="route")
        indexed = [failures for failures in failing if state.network.mask_of(failures) is not None]
        assert walks == len(indexed)
