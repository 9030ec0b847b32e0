"""Unit tests for the resilience checkers themselves."""

import pytest

from repro.core.algorithms import (
    Distance2Algorithm,
    GreedyLowestNeighbor,
    K5SourceRouting,
    RightHandTouring,
    TourToDestination,
)
from repro.core.resilience import (
    all_failure_sets,
    check_pattern_resilience,
    check_perfect_resilience_destination,
    check_perfect_resilience_source_destination,
    check_perfect_touring,
    check_r_tolerance,
    check_resilience,
    sampled_failure_sets,
)
from repro.graphs import construct
from repro.graphs.edges import failure_set


class TestFailureEnumeration:
    def test_all_failure_sets_count(self):
        g = construct.cycle_graph(4)
        assert sum(1 for _ in all_failure_sets(g)) == 16

    def test_size_cap(self):
        g = construct.cycle_graph(4)
        sets = list(all_failure_sets(g, max_failures=1))
        assert len(sets) == 5

    def test_sampled_includes_empty_and_singletons(self):
        g = construct.cycle_graph(5)
        sets = list(sampled_failure_sets(g, samples=3))
        assert frozenset() in sets
        singletons = [s for s in sets if len(s) == 1]
        assert len(singletons) >= 5


class TestPatternResilience:
    def test_positive_on_path(self):
        g = construct.path_graph(4)
        pattern = GreedyLowestNeighbor().build(g, 3)
        verdict = check_pattern_resilience(g, pattern, 3)
        assert verdict.resilient
        assert verdict.exhaustive

    def test_counterexample_reported(self):
        g = construct.complete_graph(5)
        pattern = GreedyLowestNeighbor().build(g, 4)
        verdict = check_pattern_resilience(g, pattern, 4)
        assert not verdict.resilient
        counter = verdict.counterexample
        assert counter is not None
        assert counter.destination == 4
        # re-simulate the counterexample: it must really fail
        from repro.core.simulator import route

        result = route(g, pattern, counter.source, counter.destination, counter.failures)
        assert not result.delivered

    def test_explicit_failure_sets(self):
        g = construct.complete_graph(4)
        pattern = GreedyLowestNeighbor().build(g, 3)
        verdict = check_pattern_resilience(
            g, pattern, 3, failure_sets=[frozenset(), failure_set((0, 3))]
        )
        assert verdict.scenarios_checked > 0


class TestSourceDestinationChecker:
    def test_k5_positive(self):
        verdict = check_perfect_resilience_source_destination(
            construct.complete_graph(4), K5SourceRouting()
        )
        assert verdict.resilient

    def test_restricted_pairs(self):
        verdict = check_perfect_resilience_source_destination(
            construct.complete_graph(4), K5SourceRouting(), pairs=[(0, 3)]
        )
        assert verdict.resilient


class TestDestinationChecker:
    def test_ring_positive(self):
        verdict = check_perfect_resilience_destination(
            construct.cycle_graph(5), TourToDestination()
        )
        assert verdict.resilient

    def test_greedy_fails_on_k5(self):
        verdict = check_perfect_resilience_destination(
            construct.complete_graph(5), GreedyLowestNeighbor()
        )
        assert not verdict.resilient


class TestRTolerance:
    def test_distance2_on_k5_r2(self):
        verdict = check_r_tolerance(construct.complete_graph(5), Distance2Algorithm(), 0, 4, r=2)
        assert verdict.resilient

    def test_distance2_fails_r1_on_k5(self):
        # distance-2 alone is NOT perfectly resilient (r=1 promise) on K5
        verdict = check_r_tolerance(construct.complete_graph(5), Distance2Algorithm(), 0, 4, r=1)
        assert not verdict.resilient

    def test_monotone_in_r(self):
        # r-tolerance implies r'-tolerance for r' > r (§II): the checker's
        # scenario set shrinks as r grows
        g = construct.complete_graph(5)
        small = check_r_tolerance(g, Distance2Algorithm(), 0, 4, r=2)
        large = check_r_tolerance(g, Distance2Algorithm(), 0, 4, r=3)
        assert small.scenarios_checked >= large.scenarios_checked
        assert large.resilient


class TestTouringChecker:
    def test_ring(self):
        verdict = check_perfect_touring(construct.cycle_graph(5), RightHandTouring())
        assert verdict.resilient

    def test_start_restriction(self):
        verdict = check_perfect_touring(
            construct.cycle_graph(4), RightHandTouring(), starts=[0]
        )
        assert verdict.resilient


class TestModelDispatch:
    @pytest.mark.parametrize(
        "graph, algorithm, checker",
        [
            (construct.cycle_graph(5), RightHandTouring(), "check_perfect_touring"),
            (
                construct.complete_graph(5),
                K5SourceRouting(),
                "check_perfect_resilience_source_destination",
            ),
            (
                construct.complete_graph(5),
                GreedyLowestNeighbor(),
                "check_perfect_resilience_destination",
            ),
        ],
    )
    def test_each_model_calls_its_named_checker(self, monkeypatch, graph, algorithm, checker):
        # the module-level name is what the dispatch calls, so a wrapper
        # bound there (a profiler's, a benchmark's) sees every call
        import repro.core.resilience as resilience

        named = getattr(resilience, checker)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return named(*args, **kwargs)

        monkeypatch.setattr(resilience, checker, counted)
        failure_sets = list(all_failure_sets(graph, max_failures=2))
        got = check_resilience(graph, algorithm, failure_sets=failure_sets)
        want = named(graph, algorithm, failure_sets=failure_sets)
        assert calls == [algorithm]
        assert (got.resilient, got.scenarios_checked, str(got.counterexample)) == (
            want.resilient, want.scenarios_checked, str(want.counterexample),
        )

    def test_not_an_algorithm_is_refused(self):
        with pytest.raises(TypeError, match="not a routing algorithm"):
            check_resilience(construct.cycle_graph(4), object())
