"""The ExperimentSession: state ownership, backends, session resolution."""

import inspect
import subprocess
import sys
import warnings

import networkx as nx
import pytest

from repro.core.algorithms import GreedyLowestNeighbor, RightHandTouring, TourToDestination
from repro.core.applications.broadcast import TouringBroadcast
from repro.core.engine import EngineState
from repro.core.resilience import (
    check_ideal_resilience,
    check_k_resilient_touring,
    check_pattern_resilience,
    check_perfect_resilience_destination,
    check_perfect_resilience_source_destination,
    check_perfect_touring,
    check_r_tolerance,
)
from repro.experiments import ExperimentSession, naive_session, resolve_session
from repro.graphs import cycle_graph, fan_graph


class TestStateOwnership:
    def test_state_is_cached_per_graph(self):
        session = ExperimentSession()
        graph = cycle_graph(6)
        assert session.state(graph) is session.state(graph)
        other = cycle_graph(6)
        assert session.state(other) is not session.state(graph)

    def test_mutated_graph_is_reindexed(self):
        session = ExperimentSession()
        graph = cycle_graph(6)
        before = session.state(graph)
        graph.add_edge(0, 3)
        after = session.state(graph)
        assert after is not before
        assert after.network.m == 7

    def test_cache_is_bounded(self):
        from repro.experiments.session import STATE_CACHE_LIMIT

        session = ExperimentSession()
        graphs = [cycle_graph(5) for _ in range(STATE_CACHE_LIMIT + 4)]
        for graph in graphs:
            session.state(graph)
        assert len(session._states) <= STATE_CACHE_LIMIT

    def test_eviction_is_strict_fifo_at_the_limit(self):
        from repro.experiments.session import STATE_CACHE_LIMIT

        session = ExperimentSession()
        graphs = [cycle_graph(5) for _ in range(STATE_CACHE_LIMIT)]
        states = [session.state(graph) for graph in graphs]
        extra = cycle_graph(5)
        session.state(extra)
        assert len(session._states) == STATE_CACHE_LIMIT
        # the oldest entry went; the second-oldest survived
        assert session.state(graphs[1]) is states[1]
        assert id(graphs[0]) not in session._states

    def test_mutation_reindex_at_capacity_does_not_shrink_the_cache(self):
        from repro.experiments.session import STATE_CACHE_LIMIT

        session = ExperimentSession()
        graphs = [cycle_graph(5) for _ in range(STATE_CACHE_LIMIT)]
        keep = [session.state(graph) for graph in graphs]
        victim = graphs[-1]
        victim.add_edge(0, 2)  # in-place mutation: same id, new fingerprint
        rebuilt = session.state(victim)
        assert rebuilt is not keep[-1]
        assert rebuilt.network.m == 6
        # the re-index replaced its own slot — no unrelated entry was
        # evicted and the cache did not shrink below the limit
        assert len(session._states) == STATE_CACHE_LIMIT
        for graph, state in zip(graphs[:-1], keep[:-1]):
            assert session.state(graph) is state

    def test_refreshed_keys_move_to_the_fifo_tail(self):
        from repro.experiments.session import STATE_CACHE_LIMIT

        session = ExperimentSession()
        graphs = [cycle_graph(5) for _ in range(STATE_CACHE_LIMIT)]
        states = [session.state(graph) for graph in graphs]
        hot = session.state(graphs[0])  # refresh the oldest entry
        assert hot is states[0]
        session.state(cycle_graph(5))  # force one eviction
        # the refreshed (hot) graph survived; the stale runner-up went
        assert session.state(graphs[0]) is states[0]
        assert id(graphs[1]) not in session._states

    def test_traffic_engine_cached_per_pair(self):
        session = ExperimentSession()
        graph = cycle_graph(6)
        algorithm = GreedyLowestNeighbor()
        engine = session.traffic_engine(graph, algorithm)
        assert session.traffic_engine(graph, algorithm) is engine
        assert engine.state is session.state(graph)
        assert session.traffic_engine(graph, GreedyLowestNeighbor()) is not engine

    def test_traffic_key_id_recycling_is_guarded(self):
        # the FIFO key is (id(graph), id(algorithm)); if a colliding key
        # ever appears (ids recycled after an eviction dropped the strong
        # references), the identity guards must rebuild, never serve the
        # poisoned entry
        session = ExperimentSession()
        graph = cycle_graph(6)
        algorithm = GreedyLowestNeighbor()
        key = (id(graph), id(algorithm))
        poison = session.traffic_engine(cycle_graph(6), GreedyLowestNeighbor())
        session._traffic.clear()
        session._traffic[key] = poison  # simulate a recycled-id collision
        engine = session.traffic_engine(graph, algorithm)
        assert engine is not poison
        assert engine.state.graph is graph
        assert engine.algorithm is algorithm
        # and the replacement landed in the same slot (no cache growth)
        assert session._traffic[key] is engine
        assert len(session._traffic) == 1

    def test_mutated_graph_rebuilds_traffic_engine_in_place(self):
        session = ExperimentSession()
        graph = cycle_graph(6)
        algorithm = GreedyLowestNeighbor()
        before = session.traffic_engine(graph, algorithm)
        graph.add_edge(0, 3)
        after = session.traffic_engine(graph, algorithm)
        assert after is not before
        assert after.state.network.m == 7
        assert len(session._traffic) == 1

    def test_naive_backend_caches_nothing(self):
        session = ExperimentSession(backend="naive")
        graph = cycle_graph(6)
        assert session.state(graph) is not session.state(graph)
        engine = session.traffic_engine(graph, GreedyLowestNeighbor())
        assert session.traffic_engine(graph, GreedyLowestNeighbor()) is not engine
        assert not session._states and not session._traffic

    def test_stats_and_repr_track_cache_traffic(self):
        session = ExperimentSession()
        graph = cycle_graph(6)
        session.state(graph)  # miss
        session.state(graph)  # hit
        graph.add_edge(0, 3)
        session.state(graph)  # miss (re-index after mutation)
        assert session.stats["state_misses"] == 2
        assert session.stats["state_hits"] == 1
        text = repr(session)
        assert "backend='engine'" in text
        assert "states=1" in text
        assert "state hits=1/misses=2/evictions=0" in text
        assert "traffic hits=0/misses=0/evictions=0" in text

    def test_stats_count_evictions(self):
        from repro.experiments.session import STATE_CACHE_LIMIT

        session = ExperimentSession()
        graphs = [cycle_graph(4) for _ in range(STATE_CACHE_LIMIT + 2)]
        for graph in graphs:
            session.state(graph)
        assert session.stats["state_evictions"] == 2
        assert session.stats["state_misses"] == len(graphs)

    def test_naive_backend_counts_nothing(self):
        session = naive_session()
        before = dict(session.stats)
        graph = cycle_graph(5)
        session.state(graph)
        session.state(graph)
        assert session.stats == before

    def test_invalid_backend(self):
        with pytest.raises(ValueError):
            ExperimentSession(backend="turbo")

    def test_numpy_backend_gating(self):
        from repro.core.engine.vectorized import NUMPY_GATING_ERROR, numpy_available

        if numpy_available():
            assert ExperimentSession(backend="numpy").use_engine
        else:  # pragma: no cover - exercised by the no-numpy CI job
            with pytest.raises(RuntimeError, match="requires the optional numpy"):
                ExperimentSession(backend="numpy")
            assert "numpy" in NUMPY_GATING_ERROR

    def test_only_numpy_sessions_import_numpy(self):
        pytest.importorskip("numpy")
        code = (
            "import sys, repro.cli\n"
            "assert 'numpy' not in sys.modules, 'import repro.cli loaded numpy'\n"
            "repro.cli.main(['traffic', 'ring(6)',\n"
            "                '--failure-model', 'random:sizes=0/1,samples=1'])\n"
            "assert 'numpy' not in sys.modules, 'an engine session loaded numpy'\n"
            "from repro.experiments import ExperimentSession\n"
            "ExperimentSession(backend='numpy')\n"
            "assert 'numpy' in sys.modules\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert completed.returncode == 0, completed.stderr


def count_builds(algorithm) -> list:
    """Wrap the instance's ``build``; the returned list records each call's unit."""
    calls = []
    build = algorithm.build

    def counted(graph, *unit):
        calls.append(unit)
        return build(graph, *unit)

    algorithm.build = counted
    return calls


class TestPatternCache:
    """``EngineState.pattern``: each pattern built once per graph."""

    def test_one_build_per_instance_and_unit(self):
        state = EngineState(cycle_graph(6))
        algorithm = GreedyLowestNeighbor()
        calls = count_builds(algorithm)
        memo = state.pattern(algorithm, 0)
        assert state.pattern(algorithm, 0) is memo
        assert state.pattern(algorithm, 1) is not memo
        assert state.pattern(GreedyLowestNeighbor(), 0) is not memo  # keyed per instance
        assert calls == [(0,), (1,)]
        assert (state.pattern_hits, state.pattern_misses, state.patterns_cached()) == (1, 3, 3)

    def test_fifo_over_algorithm_instances(self):
        from repro.core.engine.sweep import ALGORITHM_CACHE_LIMIT

        state = EngineState(cycle_graph(6))
        algorithms = [GreedyLowestNeighbor() for _ in range(ALGORITHM_CACHE_LIMIT + 1)]
        memos = [state.pattern(algorithm, 0) for algorithm in algorithms]
        assert state.patterns_cached() == ALGORITHM_CACHE_LIMIT
        assert state.pattern(algorithms[1], 0) is memos[1]
        assert state.pattern(algorithms[0], 0) is not memos[0]  # the oldest went

    def test_a_failed_build_caches_nothing(self):
        state = EngineState(cycle_graph(6))
        algorithm = GreedyLowestNeighbor()
        build = algorithm.build
        algorithm.build = lambda graph, destination: 1 / 0
        with pytest.raises(ZeroDivisionError):
            state.pattern(algorithm, 0)
        algorithm.build = build
        assert state.pattern(algorithm, 0).pattern is not None
        assert state.patterns_cached() == 1

    def test_checker_calls_share_a_session_pattern_cache(self):
        graph = cycle_graph(6)
        algorithm = GreedyLowestNeighbor()
        calls = count_builds(algorithm)
        session = ExperimentSession()
        for _ in range(2):
            assert check_perfect_resilience_destination(graph, algorithm, session=session)
        assert len(calls) == 6
        assert session.pattern_stats() == {"patterns": 6, "hits": 6, "misses": 6}
        # the naive reference builds per call and caches nothing
        check_perfect_resilience_destination(graph, algorithm, session=naive_session())
        assert len(calls) == 12
        assert naive_session().pattern_stats() == {"patterns": 0, "hits": 0, "misses": 0}


class TestBackends:
    def test_engine_and_naive_agree(self):
        graph = fan_graph(7)
        algorithm = TourToDestination()
        fast = check_perfect_resilience_destination(
            graph, algorithm, session=ExperimentSession(backend="engine")
        )
        slow = check_perfect_resilience_destination(
            graph, algorithm, session=ExperimentSession(backend="naive")
        )
        assert fast.resilient == slow.resilient
        assert fast.scenarios_checked == slow.scenarios_checked
        assert fast.exhaustive == slow.exhaustive

    def test_shared_session_reuses_state_across_checkers(self):
        session = ExperimentSession()
        graph = fan_graph(6)
        state = session.state(graph)
        verdict = check_perfect_touring(graph, RightHandTouring(), session=session)
        assert verdict.resilient
        assert session.state(graph) is state  # same state served the sweep

    def test_broadcast_accepts_session(self):
        session = ExperimentSession()
        graph = fan_graph(6)
        broadcast = TouringBroadcast(RightHandTouring(), session=session)
        result = broadcast.run(graph, source=1)
        naive = TouringBroadcast(RightHandTouring()).run(
            graph, source=1, session=naive_session()
        )
        assert result.informed == naive.informed
        assert result.completed == naive.completed
        assert result.walk == naive.walk


class TestResolveSession:
    def test_default_is_shared_engine_session(self):
        first = resolve_session()
        second = resolve_session()
        assert first is second
        assert first.use_engine

    def test_explicit_session_passes_through(self):
        session = ExperimentSession(backend="naive")
        assert resolve_session(session) is session

    def test_default_emits_no_warning(self):
        graph = fan_graph(6)
        pattern = TourToDestination().build(graph, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            verdict = check_pattern_resilience(graph, pattern, 0)
        assert verdict.resilient

    def test_use_engine_keyword_is_removed(self):
        # session= is the one way to pick a backend: every former
        # use_engine= entry point now rejects the keyword outright
        entry_points = [
            resolve_session,
            check_pattern_resilience,
            check_perfect_resilience_source_destination,
            check_perfect_resilience_destination,
            check_r_tolerance,
            check_perfect_touring,
            check_ideal_resilience,
            check_k_resilient_touring,
            TouringBroadcast.run,
            TouringBroadcast.verify,
        ]
        for function in entry_points:
            assert "use_engine" not in inspect.signature(function).parameters, function
        graph = fan_graph(6)
        pattern = TourToDestination().build(graph, 0)
        with pytest.raises(TypeError):
            resolve_session(None, use_engine=True)
        with pytest.raises(TypeError):
            check_pattern_resilience(graph, pattern, 0, use_engine=False)
        with pytest.raises(TypeError):
            TouringBroadcast(RightHandTouring()).run(graph, source=1, use_engine=False)
