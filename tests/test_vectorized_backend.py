"""The numpy mask-walk backend: gating, parity, caching, and plumbing.

The broad differential matrix lives in ``test_engine_equivalence.py``
(every fast backend × every checker × random graphs and gadgets); this
file covers what is specific to ``backend="numpy"``: the optional-
dependency gate, chunked batches, the scalar fallbacks, and the
grid/CLI plumbing.  Loads and r-tolerance take the scalar engine on
every backend; the tests here pin that a numpy session hands them to
it, and the scalar router and checker are tested with their modules.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

import networkx as nx

from repro.core.algorithms.naive import (
    GreedyLowestNeighbor,
    RandomCyclicDestinationOnly,
    RandomCyclicPermutations,
    RandomPortCycles,
)
from repro.core.engine import vectorized
from repro.core.engine.vectorized import MaskBatch, VectorizedUnsupported
from repro.core.resilience import (
    all_failure_sets,
    check_ideal_resilience,
    check_k_resilient_touring,
    check_pattern_resilience,
    check_perfect_resilience_destination,
    check_perfect_touring,
)
from repro.experiments import (
    ExperimentSession,
    naive_session,
    resolve_topology,
    run_grid,
    scheme,
    topology,
)
from repro.failures import RandomGridModel
from repro.graphs.construct import complete_graph, cycle_graph
from repro.traffic import TrafficEngine, all_to_one, per_packet_loads, permutation


def numpy_session() -> ExperimentSession:
    return ExperimentSession(backend="numpy")


def verdict_tuple(verdict):
    t = (verdict.resilient, verdict.scenarios_checked, verdict.exhaustive)
    c = verdict.counterexample
    if c is not None:
        result = None
        if c.result is not None:
            result = (c.result.outcome, tuple(c.result.path), c.result.steps)
        t += (c.source, c.destination, c.failures, result, c.note)
    return t


def report_tuple(report):
    return (
        report.loads,
        report.demands,
        report.total_volume,
        report.delivered_volume,
        report.dropped_volume,
        report.looped_volume,
        report.disconnected_volume,
        report.delivered_hops,
        report.stretch_volume,
    )


class TestMaskBatch:
    def test_exhaustive_order_matches_all_failure_sets(self):
        from repro.core.engine import EngineState

        graph = complete_graph(4)
        state = EngineState(graph)
        batch = MaskBatch.exhaustive(state.network)
        masks = [
            chunk.mask_int(row) for chunk in batch.chunks for row in range(len(chunk))
        ]
        expected = [state.network.mask_of(f) for f in all_failure_sets(graph)]
        assert batch.total == len(expected) == 2 ** graph.number_of_edges()
        assert masks == expected

    def test_non_canonical_sets_become_fallbacks(self):
        from repro.core.engine import EngineState

        state = EngineState(cycle_graph(4))
        sets = [frozenset(), frozenset({(1, 0)}), frozenset({(0, 1)})]
        batch = MaskBatch.from_failure_sets(state.network, sets)
        assert batch.total == 3
        assert [position for position, _ in batch.fallbacks] == [1]
        assert [int(p) for chunk in batch.chunks for p in chunk.positions] == [0, 2]

    def test_chunking_preserves_verdicts(self, monkeypatch):
        # tiny chunks force every sweep through the multi-chunk paths
        monkeypatch.setattr(vectorized, "CHUNK_MASKS", 7)
        graph = cycle_graph(6)
        algorithm = RandomCyclicDestinationOnly(seed=5)
        fast = check_perfect_resilience_destination(graph, algorithm, session=numpy_session())
        slow = check_perfect_resilience_destination(graph, algorithm, session=naive_session())
        assert verdict_tuple(fast) == verdict_tuple(slow)
        tour = RandomPortCycles(seed=5)
        fast = check_perfect_touring(graph, tour, session=numpy_session())
        slow = check_perfect_touring(graph, tour, session=naive_session())
        assert verdict_tuple(fast) == verdict_tuple(slow)

    def test_mutated_failure_set_list_is_not_served_stale(self):
        # the per-state batch cache keys lists by identity; appending to
        # the same list between calls must re-pack, not serve the old
        # batch (the other backends would see the new set)
        graph = cycle_graph(6)
        pattern = RandomCyclicDestinationOnly(seed=9).build(graph, 0)
        sets = list(all_failure_sets(graph, max_failures=1))
        session = numpy_session()
        first = check_pattern_resilience(graph, pattern, 0, failure_sets=sets, session=session)
        sets.extend(all_failure_sets(graph, max_failures=2))
        second = check_pattern_resilience(graph, pattern, 0, failure_sets=sets, session=session)
        reference = check_pattern_resilience(
            graph, pattern, 0, failure_sets=sets, session=naive_session()
        )
        assert verdict_tuple(second) == verdict_tuple(reference)
        assert second.scenarios_checked != first.scenarios_checked

    def test_reconstructed_sets_round_trip(self):
        from repro.core.engine import EngineState
        from repro.core.engine.vectorized import reconstruct_failure_sets

        state = EngineState(cycle_graph(5))
        sets = [frozenset(), frozenset({(1, 0)}), frozenset({(0, 1), (2, 3)})]
        batch = MaskBatch.from_failure_sets(state.network, iter(sets))
        assert reconstruct_failure_sets(batch) == sets

    def test_labels_match_component_tracker(self):
        from repro.core.engine import EngineState

        graph = resolve_topology("two-rings")
        state = EngineState(graph)
        batch, exhaustive = vectorized.default_batch(state)
        assert exhaustive
        chunk = batch.chunks[0]
        labels = chunk.labels_for(state.network)
        for row in range(0, len(chunk), 37):
            expected = state.tracker.labels(chunk.mask_int(row))
            assert tuple(int(x) for x in labels[row]) == expected


class TestVectorizedPathIsTaken:
    def test_small_graph_sweep_actually_vectorizes(self, monkeypatch):
        calls = []
        original = vectorized._walk_delivered

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(vectorized, "_walk_delivered", spy)
        graph = cycle_graph(6)
        check_perfect_resilience_destination(
            graph, GreedyLowestNeighbor(), session=numpy_session()
        )
        assert calls  # the numpy backend did not silently fall back

    def test_wide_graph_takes_the_multiword_vectorized_path(self, monkeypatch):
        # > 64 links spill into multi-word masks — no scalar fallback
        calls = []
        original = vectorized._walk_delivered

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(vectorized, "_walk_delivered", spy)
        graph = nx.gnp_random_graph(13, 0.9, seed=3)
        assert graph.number_of_edges() > 64
        destinations = sorted(graph.nodes)[:1]
        fast = check_perfect_resilience_destination(
            graph, GreedyLowestNeighbor(), destinations=destinations, session=numpy_session()
        )
        assert calls  # the wide instance actually vectorized
        slow = check_perfect_resilience_destination(
            graph, GreedyLowestNeighbor(), destinations=destinations, session=naive_session()
        )
        assert verdict_tuple(fast) == verdict_tuple(slow)

    def test_generator_failure_sets_survive_the_fallback(self, monkeypatch):
        # force a post-materialization fallback and make sure the
        # one-shot iterator's contents still reach the scalar path
        monkeypatch.setattr(vectorized, "TABLE_BUDGET", 0)
        graph = cycle_graph(5)
        pattern = GreedyLowestNeighbor().build(graph, 0)
        generator = (f for f in all_failure_sets(graph, max_failures=2))
        fast = check_pattern_resilience(
            graph, pattern, 0, failure_sets=generator, session=numpy_session()
        )
        slow = check_pattern_resilience(
            graph,
            pattern,
            0,
            failure_sets=list(all_failure_sets(graph, max_failures=2)),
            session=naive_session(),
        )
        assert verdict_tuple(fast) == verdict_tuple(slow)

    def test_k_resilient_touring_generator_round_trip(self):
        graph = cycle_graph(6)
        fast = check_k_resilient_touring(
            graph, RandomPortCycles(seed=2), max_failures=2, session=numpy_session()
        )
        slow = check_k_resilient_touring(
            graph, RandomPortCycles(seed=2), max_failures=2, session=naive_session()
        )
        assert verdict_tuple(fast) == verdict_tuple(slow)

    def test_ideal_resilience_equivalence(self):
        graph = complete_graph(5)
        fast = check_ideal_resilience(graph, GreedyLowestNeighbor(), session=numpy_session())
        slow = check_ideal_resilience(graph, GreedyLowestNeighbor(), session=naive_session())
        assert verdict_tuple(fast) == verdict_tuple(slow)


class TestDisconnectedAndExotic:
    def test_two_rings_destination_and_touring(self):
        graph = resolve_topology("two-rings")
        fast = check_perfect_resilience_destination(
            graph, GreedyLowestNeighbor(), session=numpy_session()
        )
        slow = check_perfect_resilience_destination(
            graph, GreedyLowestNeighbor(), session=naive_session()
        )
        assert verdict_tuple(fast) == verdict_tuple(slow)
        fast = check_perfect_touring(graph, RandomPortCycles(seed=1), session=numpy_session())
        slow = check_perfect_touring(graph, RandomPortCycles(seed=1), session=naive_session())
        assert verdict_tuple(fast) == verdict_tuple(slow)

    def test_failing_pattern_counterexample_on_mixed_labels(self):
        graph = nx.Graph()
        graph.add_edges_from([(1, 2), (2, 10), (10, 1), (1, "x"), ("x", 2)])
        pattern = RandomCyclicDestinationOnly(seed=3).build(graph, 1)
        fast = check_pattern_resilience(graph, pattern, 1, session=numpy_session())
        slow = check_pattern_resilience(graph, pattern, 1, session=naive_session())
        assert verdict_tuple(fast) == verdict_tuple(slow)

    def test_sources_filter_counts_and_counterexamples(self):
        graph = cycle_graph(7)
        algorithm = RandomCyclicDestinationOnly(seed=11)
        pattern = algorithm.build(graph, 0)
        for sources in ([3], [1, 5], [0, 2, "ghost"]):
            fast = check_pattern_resilience(
                graph, pattern, 0, sources=sources, session=numpy_session()
            )
            slow = check_pattern_resilience(
                graph, pattern, 0, sources=sources, session=naive_session()
            )
            assert verdict_tuple(fast) == verdict_tuple(slow)


class TestTrafficLoadSweep:
    """A numpy session routes loads through the scalar TrafficEngine."""

    def test_load_sweep_equals_scalar_and_per_packet(self):
        from repro.failures import sample_failure_grid

        graph = topology("fattree").build(4)
        algorithm = scheme("arborescence").instantiate()
        grid = sample_failure_grid(graph, [0, 1, 2, 4], 3, seed=0)
        sets = [failures for size in sorted(grid) for failures in grid[size]]
        demands = all_to_one(graph, ("core", 0))
        scalar = TrafficEngine(graph, algorithm)
        engine = numpy_session().traffic_engine(graph, algorithm)
        batched = engine.load_sweep(demands, sets)
        assert len(batched) == len(sets)
        for failures, report in zip(sets, batched):
            assert report_tuple(report) == report_tuple(scalar.load(demands, failures))
            assert report_tuple(report) == report_tuple(
                per_packet_loads(graph, algorithm, demands, failures)
            )

    def test_session_traffic_engine_is_the_scalar_router(self):
        graph = topology("ring").build(6)
        algorithm = scheme("greedy").instantiate()
        engine = numpy_session().traffic_engine(graph, algorithm)
        assert type(engine) is TrafficEngine
        assert not hasattr(engine, "backend")
        with pytest.raises(TypeError, match="backend"):
            TrafficEngine(graph, algorithm, backend="numpy")

    def test_bad_demand_endpoints_raise_like_the_scalar_router(self):
        from repro.traffic.matrices import Demand

        graph = cycle_graph(5)
        engine = numpy_session().traffic_engine(graph, scheme("greedy").instantiate())
        with pytest.raises(ValueError, match="demand endpoint"):
            engine.load_sweep([Demand("ghost", 0, 1)], [frozenset()])


class TestMaskWidthBoundaries:
    """m = 63/64/65/128/129: every word-count boundary of the multi-word
    packing, bit-identical to the scalar engine — verdicts,
    counterexample order, and scenario counts all equal."""

    @staticmethod
    def boundary_sets(graph):
        from repro.graphs.edges import edge, edge_sort_key

        links = sorted((edge(u, v) for u, v in graph.edges), key=edge_sort_key)
        sets = [frozenset()] + [frozenset({link}) for link in links]
        half = len(links) // 2
        sets += [frozenset({links[i], links[i + half]}) for i in range(10)]
        return sets

    @pytest.mark.parametrize("m", [63, 64, 65, 128, 129])
    def test_destination_pattern_parity(self, m):
        graph = cycle_graph(m)
        assert graph.number_of_edges() == m
        pattern = RandomCyclicDestinationOnly(seed=m).build(graph, 0)
        sets = self.boundary_sets(graph)
        fast = check_pattern_resilience(
            graph, pattern, 0, failure_sets=sets, session=numpy_session()
        )
        slow = check_pattern_resilience(
            graph, pattern, 0, failure_sets=sets, session=ExperimentSession(backend="engine")
        )
        assert verdict_tuple(fast) == verdict_tuple(slow)

    @pytest.mark.parametrize("n", [65, 129])
    def test_touring_parity_past_64_nodes(self, n):
        # node bitsets also go multi-word: component coverage of the
        # two-phase touring walk must survive the word boundary
        graph = cycle_graph(n)
        sets = self.boundary_sets(graph)[: n + 6]
        fast = check_perfect_touring(
            graph, RandomPortCycles(seed=n), failure_sets=sets, session=numpy_session()
        )
        slow = check_perfect_touring(
            graph,
            RandomPortCycles(seed=n),
            failure_sets=sets,
            session=ExperimentSession(backend="engine"),
        )
        assert verdict_tuple(fast) == verdict_tuple(slow)


class TestFatTreeMultiWord:
    """fat-tree(8) (n=80, m=256): the ISSUE's flagship instance must ride
    the vectorized path end to end — zero fallback increments."""

    def test_resilience_zero_fallbacks_and_parity(self):
        from repro import obs

        graph = resolve_topology("fattree(8)")
        assert graph.number_of_edges() == 256
        destination = sorted(graph.nodes, key=repr)[0]
        telemetry = obs.Telemetry()
        with obs.installed(telemetry):
            fast = check_perfect_resilience_destination(
                graph,
                GreedyLowestNeighbor(),
                destinations=[destination],
                session=numpy_session(),
            )
        assert "repro_numpy_fallbacks_total" not in telemetry.registry.families()
        assert telemetry.registry.value("repro_numpy_chunks_total") > 0
        slow = check_perfect_resilience_destination(
            graph,
            GreedyLowestNeighbor(),
            destinations=[destination],
            session=ExperimentSession(backend="engine"),
        )
        assert verdict_tuple(fast) == verdict_tuple(slow)

    def test_load_sweep_parity_zero_fallbacks(self):
        from repro import obs
        from repro.failures import sample_failure_grid

        graph = resolve_topology("fattree(8)")
        algorithm = scheme("greedy").instantiate()
        grid = sample_failure_grid(graph, [0, 1, 2], 4, seed=0)
        sets = [failures for size in sorted(grid) for failures in grid[size]]
        demands = permutation(graph, seed=3)
        scalar = TrafficEngine(graph, algorithm)
        engine = numpy_session().traffic_engine(graph, algorithm)
        telemetry = obs.Telemetry()
        with obs.installed(telemetry):
            batched = engine.load_sweep(demands, sets)
        # loads never enter the numpy backend: no chunk walked, none refused
        families = telemetry.registry.families()
        assert "repro_numpy_fallbacks_total" not in families
        assert "repro_numpy_chunks_total" not in families
        for failures, report in zip(sets, batched):
            assert report_tuple(report) == report_tuple(scalar.load(demands, failures))


class TestFallbackAccounting:
    def test_fallback_counter_carries_the_reason(self, monkeypatch):
        from repro import obs

        monkeypatch.setattr(vectorized, "TABLE_BUDGET", 0)
        graph = cycle_graph(5)
        telemetry = obs.Telemetry()
        with obs.installed(telemetry):
            check_perfect_resilience_destination(
                graph, GreedyLowestNeighbor(), destinations=[0], session=numpy_session()
            )
        assert (
            telemetry.registry.value(
                "repro_numpy_fallbacks_total", site="pattern", reason="table_budget"
            )
            == 1
        )

    def test_recovered_iterator_is_packed_exactly_once(self, monkeypatch):
        # satellite: a consumed one-shot iterator is reconstructed once
        # and its packed batch pre-seeded into the state cache, so a
        # retry with the recovered list never re-walks batch packing
        from repro.core.engine import EngineState

        monkeypatch.setattr(vectorized, "TABLE_BUDGET", 0)
        calls = []
        original = MaskBatch.from_failure_sets.__func__

        def spy(cls, network, failure_sets):
            calls.append(1)
            return original(cls, network, failure_sets)

        monkeypatch.setattr(MaskBatch, "from_failure_sets", classmethod(spy))
        graph = cycle_graph(5)
        state = EngineState(graph)
        memo = state.pattern(GreedyLowestNeighbor(), 0)
        family = list(all_failure_sets(graph, max_failures=2))
        generator = (failures for failures in family)
        with pytest.raises(VectorizedUnsupported) as info:
            vectorized.pattern_sweep_numpy(state, memo, 0, failure_sets=generator)
        assert info.value.reason == "table_budget"
        recovered = info.value.failure_sets
        assert recovered == family
        assert len(calls) == 1
        with pytest.raises(VectorizedUnsupported):
            vectorized.pattern_sweep_numpy(state, memo, 0, failure_sets=recovered)
        assert len(calls) == 1  # cache hit: no second pack

    def test_r_tolerance_takes_no_numpy_path(self, monkeypatch):
        from repro import obs
        from repro.core.resilience import check_r_tolerance

        # a zero table budget would refuse any numpy walk with a fallback
        monkeypatch.setattr(vectorized, "TABLE_BUDGET", 0)
        graph = cycle_graph(5)
        telemetry = obs.Telemetry()
        with obs.installed(telemetry):
            fast = check_r_tolerance(
                graph, RandomCyclicPermutations(seed=1), 0, 2, r=1, session=numpy_session()
            )
        families = telemetry.registry.families()
        assert "repro_numpy_fallbacks_total" not in families
        assert "repro_numpy_chunks_total" not in families
        slow = check_r_tolerance(
            graph,
            RandomCyclicPermutations(seed=1),
            0,
            2,
            r=1,
            session=ExperimentSession(backend="naive"),
        )
        assert verdict_tuple(fast) == verdict_tuple(slow)


class TestGridParity:
    def test_quick_grid_numpy_equals_naive(self):
        model = RandomGridModel(sizes=(0, 1), samples=2, seed=0)
        kwargs = dict(
            topologies=["ring", "grid"],
            schemes=["arborescence", "distance2", "greedy"],
            failure_models=[model],
        )
        fast = run_grid(session=numpy_session(), **kwargs)
        slow = run_grid(session=ExperimentSession(backend="naive"), **kwargs)
        assert len(fast.records) == len(slow.records)
        for a, b in zip(fast.records, slow.records):
            assert (a.experiment, a.topology, a.scheme, a.failure_model, a.status) == (
                b.experiment, b.topology, b.scheme, b.failure_model, b.status,
            )
            assert set(a.metrics) == set(b.metrics)
            for key, value in a.metrics.items():
                if isinstance(value, float):
                    assert value == pytest.approx(b.metrics[key], rel=1e-9)
                else:
                    assert value == b.metrics[key]


class TestCliBackend:
    def test_experiments_quick_with_numpy_backend(self, capsys):
        from repro.cli import main

        assert main(["experiments", "--quick", "--backend", "numpy"]) == 0
        out = capsys.readouterr().out
        assert "records (JSON round-trip ok)" in out

    def test_missing_numpy_is_a_clean_cli_error(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setattr(vectorized, "np", None)
        assert main(["experiments", "--quick", "--backend", "numpy"]) == 2
        err = capsys.readouterr().err
        assert "numpy" in err and "backend" in err

    def test_missing_numpy_session_gating_error(self, monkeypatch):
        monkeypatch.setattr(vectorized, "np", None)
        with pytest.raises(RuntimeError, match="requires the optional numpy"):
            ExperimentSession(backend="numpy")
