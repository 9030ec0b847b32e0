"""The ``repro.failures`` subsystem: models, spec grammar, estimators.

Pins the refactor's two hard promises — the historical random grid is
bit-identical under the new :class:`~repro.failures.RandomGridModel`
(committed fixture store + BENCH re-merge), and the shared spec grammar
is the one error surface for CLI, serve and ``run_grid`` — plus the
estimator math (Wilson vs the exact binomial), sampler determinism
(including ``PYTHONHASHSEED`` independence), CI bracketing of exact
ground truth, and any-time budget cuts.
"""

import itertools
import json
import math
import pathlib
import random

import pytest

from repro import obs
from repro.experiments import (
    ExperimentRecord,
    ExperimentSession,
    ResultStore,
    resolve_topology,
    run_grid,
    scheme,
)
from repro.failures import (
    MODEL_FAMILIES,
    ExhaustiveModel,
    FailureModel,
    IIDModel,
    MaskEvaluator,
    RandomGridModel,
    RegionalModel,
    SRLGModel,
    estimate_congestion,
    estimate_resilience,
    exact_binomial_interval,
    mean_interval,
    parse_failure_model,
    sample_failure_grid,
    spec_grammar,
    wilson_interval,
)
from repro.failures.models import canonical_links
from repro.graphs.edges import edge
from repro.runtime import Budget
from repro.serve import QueryClient, QueryService, Request
from repro.serve.service import QueryError

FIXTURE = pathlib.Path(__file__).resolve().parent / "fixtures" / "run_grid_random_model.json"


# ---------------------------------------------------------------------------
# Estimator math: Wilson vs the exact (Clopper-Pearson) binomial interval.
# ---------------------------------------------------------------------------


class TestIntervals:
    def test_zero_trials_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        assert exact_binomial_interval(0, 0) == (0.0, 1.0)

    def test_bad_counts_raise(self):
        for successes, trials in ((-1, 5), (6, 5), (0, -1)):
            with pytest.raises(ValueError, match="bad counts"):
                wilson_interval(successes, trials)
            with pytest.raises(ValueError, match="bad counts"):
                exact_binomial_interval(successes, trials)

    def test_exact_all_successes_closed_form(self):
        # for s == n the Clopper-Pearson lower bound solves
        # P[X >= n] = p^n = alpha/2, i.e. p = (alpha/2)^(1/n)
        for trials in (1, 5, 20, 100):
            low, high = exact_binomial_interval(trials, trials)
            assert high == 1.0
            assert low == pytest.approx((0.025) ** (1.0 / trials), abs=1e-9)

    def test_exact_zero_successes_closed_form(self):
        # symmetric closed form: upper solves (1-p)^n = alpha/2
        for trials in (1, 5, 20, 100):
            low, high = exact_binomial_interval(0, trials)
            assert low == 0.0
            assert high == pytest.approx(1.0 - (0.025) ** (1.0 / trials), abs=1e-9)

    def test_wilson_symmetric_at_half(self):
        low, high = wilson_interval(5, 10)
        assert low + high == pytest.approx(1.0, abs=1e-12)

    def test_wilson_inside_exact_interval(self):
        # Wilson is the shorter interval: on small closed-form cases it
        # sits inside the conservative exact bound
        for successes, trials in ((0, 10), (1, 10), (3, 10), (5, 10), (9, 10), (10, 10), (7, 50)):
            w_low, w_high = wilson_interval(successes, trials)
            e_low, e_high = exact_binomial_interval(successes, trials)
            assert w_low >= e_low - 1e-9
            assert w_high <= e_high + 1e-9

    def test_wilson_covers_point_estimate(self):
        for successes, trials in ((0, 7), (2, 9), (9, 9)):
            low, high = wilson_interval(successes, trials)
            assert low - 1e-12 <= successes / trials <= high + 1e-12
            assert 0.0 <= low <= high <= 1.0

    def test_mean_interval_known_case(self):
        values = [1.0, 2.0, 3.0]
        mean, low, high = mean_interval(sum(values), sum(v * v for v in values), len(values))
        assert mean == pytest.approx(2.0)
        half = 1.959963984540054 * math.sqrt(1.0 / 3.0)  # sample variance is 1
        assert low == pytest.approx(2.0 - half)
        assert high == pytest.approx(2.0 + half)

    def test_mean_interval_degenerate_counts(self):
        assert mean_interval(0.0, 0.0, 0) == (0.0, 0.0, 0.0)
        assert mean_interval(4.0, 16.0, 1) == (4.0, 4.0, 4.0)


# ---------------------------------------------------------------------------
# The spec grammar: single source of truth, exact error messages.
# ---------------------------------------------------------------------------


class TestSpecGrammar:
    def test_bare_family_uses_defaults(self):
        assert parse_failure_model("random") == RandomGridModel()
        assert parse_failure_model("iid") == IIDModel()

    def test_full_spec(self):
        model = parse_failure_model("iid:p=0.01,samples=500,seed=3")
        assert model == IIDModel(p=0.01, samples=500, seed=3)

    def test_sizes_grammar(self):
        assert parse_failure_model("random:sizes=0/1/2").sizes == (0, 1, 2)
        assert parse_failure_model("random:sizes=auto").sizes is None

    def test_label_round_trips_every_family(self):
        models = [
            RandomGridModel(sizes=(0, 1, 2), samples=7, seed=5),
            RandomGridModel(),
            ExhaustiveModel(k=3),
            IIDModel(p=0.125, samples=50, seed=9),
            SRLGModel(groups=3, p=0.2, samples=40, seed=1),
            RegionalModel(radius=2, centers=2, samples=30, seed=4),
        ]
        for model in models:
            assert parse_failure_model(model.label) == model

    def test_whitespace_tolerated(self):
        assert parse_failure_model(" iid: p=0.5 , samples=10 ") == IIDModel(p=0.5, samples=10)

    def test_error_messages(self):
        cases = [
            ("", "failure-model spec must be a non-empty string"),
            ("martian:x=1", "unknown failure model 'martian'; known models: "
                            "exhaustive, iid, random, regional, srlg"),
            ("iid:p", "invalid failure-model argument 'p': expected key=value"),
            ("iid:q=1", "unknown argument 'q' for failure model 'iid'; known: "
                        "p, samples, seed"),
            ("iid:p=oops", "invalid p 'oops': expected a number"),
            ("iid:samples=many", "invalid samples 'many': expected an integer"),
            ("random:sizes=0/x", "invalid sizes '0/x': expected slash-separated "
                                 "integers, e.g. sizes=0/1/2"),
        ]
        for spec, message in cases:
            with pytest.raises(ValueError) as excinfo:
                parse_failure_model(spec)
            assert message in str(excinfo.value), spec

    def test_grammar_summary_names_every_family(self):
        summary = spec_grammar()
        for family in ("random", "exhaustive", "iid", "srlg", "regional"):
            assert family in summary

    def test_model_param_beside_removed_keys_is_refused(self):
        # an old client's sizes must not silently get another grid
        params = {"topology": "ring(8)", "scheme": "greedy", "model": "iid:p=0.1",
                  "sizes": [1], "samples": 3}
        with pytest.raises(QueryError, match="verdict does not take 'samples', 'sizes'"):
            QueryService().verdict(params)

    def test_model_param_must_be_a_string(self):
        with pytest.raises(QueryError, match="spec must be a non-empty string, got 7"):
            QueryService().verdict({"topology": "ring(8)", "scheme": "greedy", "model": 7})

    @pytest.mark.parametrize("extra", [{}, {"model": None}], ids=["absent", "null"])
    def test_absent_model_param_is_the_random_family_default(self, extra):
        params = dict({"topology": "ring(8)", "scheme": "greedy"}, **extra)
        record, _ = QueryService().verdict(params)
        assert record.failure_model == parse_failure_model("random").label
        assert record.failure_model == "random(sizes=auto,samples=10,seed=0)"

    def test_service_errors_are_the_grammar_errors(self):
        with pytest.raises(QueryError, match="invalid sizes '0/x': expected slash-separated"):
            QueryService().verdict(
                {"topology": "ring(8)", "scheme": "greedy", "model": "random:sizes=0/x"}
            )


# ---------------------------------------------------------------------------
# Models: determinism, structure, backwards compatibility.
# ---------------------------------------------------------------------------


class TestModels:
    def test_failure_model_names_only_the_base_class(self):
        import repro
        import repro.experiments

        assert not hasattr(repro, "FailureModel")
        assert not hasattr(repro.experiments, "FailureModel")
        assert isinstance(IIDModel(p=0.1), FailureModel)

    def test_random_grid_label_is_bit_identical_to_history(self):
        assert RandomGridModel().label == "random(sizes=auto,samples=10,seed=0)"
        assert (
            RandomGridModel(sizes=(0, 1, 2), samples=3, seed=0).label
            == "random(sizes=0/1/2,samples=3,seed=0)"
        )

    def test_random_grid_equals_the_shared_sampler(self):
        graph = resolve_topology("ring(8)")
        model = RandomGridModel(sizes=(0, 1, 2), samples=5, seed=3)
        assert model.grid(graph) == sample_failure_grid(graph, [0, 1, 2], 5, 3)

    def test_exhaustive_counts(self):
        graph = resolve_topology("ring(6)")  # m = 6
        grid = ExhaustiveModel(k=2).grid(graph)
        assert {size: len(sets) for size, sets in grid.items()} == {0: 1, 1: 6, 2: 15}
        assert grid[0] == [frozenset()]

    def test_exhaustive_caps_at_link_count(self):
        graph = resolve_topology("ring(4)")
        grid = ExhaustiveModel(k=99).grid(graph)
        assert max(grid) == 4

    def test_sampled_streams_are_seed_deterministic(self):
        graph = resolve_topology("grid(3,3)")
        for model in (
            IIDModel(p=0.2, samples=5, seed=7),
            SRLGModel(groups=3, p=0.3, samples=5, seed=7),
            RegionalModel(radius=1, centers=2, samples=5, seed=7),
        ):
            first = list(itertools.islice(model.sample(graph), 10))
            second = list(itertools.islice(model.sample(graph), 10))
            assert first == second

    def test_iid_draws_are_subsets_of_the_links(self):
        graph = resolve_topology("ring(6)")
        links = set(canonical_links(graph))
        for failures in itertools.islice(IIDModel(p=0.5, seed=0).sample(graph), 20):
            assert failures <= links

    def test_srlg_partition_covers_links_disjointly(self):
        graph = resolve_topology("grid(3,3)")
        model = SRLGModel(groups=4, seed=2)
        buckets = model.partition(graph)
        assert len(buckets) == 4
        flat = [link for bucket in buckets for link in bucket]
        assert sorted(flat, key=repr) == sorted(canonical_links(graph), key=repr)
        assert len(flat) == len(set(flat))

    def test_srlg_samples_are_unions_of_groups(self):
        graph = resolve_topology("grid(3,3)")
        model = SRLGModel(groups=4, p=0.5, seed=2)
        buckets = [frozenset(bucket) for bucket in model.partition(graph)]
        for failures in itertools.islice(model.sample(graph), 20):
            rebuilt = frozenset().union(
                *[bucket for bucket in buckets if bucket <= failures]
            ) if failures else frozenset()
            assert rebuilt == failures

    def test_regional_radius_one_is_a_node_outage(self):
        graph = resolve_topology("ring(6)")
        incidents = {
            node: frozenset(edge(node, neighbour) for neighbour in graph[node])
            for node in graph
        }
        for failures in itertools.islice(
            RegionalModel(radius=1, centers=1, seed=0).sample(graph), 10
        ):
            assert failures in incidents.values()

    def test_sampled_grid_materializes_exactly_samples_sets(self):
        graph = resolve_topology("ring(8)")
        model = IIDModel(p=0.3, samples=25, seed=1)
        grid = model.grid(graph)
        assert sum(len(sets) for sets in grid.values()) == 25
        assert list(grid) == sorted(grid)

    def test_grid_models_do_not_stream(self):
        graph = resolve_topology("ring(4)")
        with pytest.raises(NotImplementedError, match="not a sampled model"):
            next(RandomGridModel().sample(graph))

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="p must be in"):
            IIDModel(p=1.5)
        with pytest.raises(ValueError, match="samples must be >= 1"):
            IIDModel(samples=0)
        with pytest.raises(ValueError, match="groups must be >= 1"):
            SRLGModel(groups=0)
        with pytest.raises(ValueError, match="radius must be >= 1"):
            RegionalModel(radius=0)
        with pytest.raises(ValueError, match="k must be >= 0"):
            ExhaustiveModel(k=-1)

    def test_explicit_rng_overrides_the_seed(self):
        graph = resolve_topology("ring(6)")
        model = IIDModel(p=0.5, seed=0)
        a = list(itertools.islice(model.sample(graph, rng=random.Random(42)), 5))
        b = list(itertools.islice(model.sample(graph, rng=random.Random(42)), 5))
        assert a == b


class TestHashSeedIndependence:
    """Sampler draws must not depend on ``PYTHONHASHSEED``.

    String-labelled graphs are the leak vector (set/dict iteration
    order); the models canonicalize links and nodes before any seeded
    draw, pinned here by subprocess runs under different hash seeds.
    """

    STRING_EDGES = [
        ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"),
        ("a", "c"), ("b", "d"), ("c", "e"), ("d", "a"),
    ]

    _SCRIPT = """
import hashlib, itertools, json, sys
import networkx as nx
from repro.failures import IIDModel, RegionalModel, SRLGModel

edges = json.loads(sys.argv[1])
graph = nx.Graph(edges)
draws = []
for model in (
    IIDModel(p=0.3, samples=5, seed=0),
    SRLGModel(groups=3, p=0.4, samples=5, seed=0),
    RegionalModel(radius=1, centers=1, samples=5, seed=0),
):
    for failures in itertools.islice(model.sample(graph), 8):
        draws.append(sorted(sorted(map(str, link)) for link in failures))
print(hashlib.sha256(json.dumps(draws).encode()).hexdigest())
"""

    def _digest(self, hash_seed):
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

    def test_draws_are_hash_seed_independent(self):
        digests = {self._digest(seed) for seed in (0, 1)}
        assert len(digests) == 1, f"sampler depends on PYTHONHASHSEED: {digests}"


# ---------------------------------------------------------------------------
# Estimators: brackets, budgets, telemetry.
# ---------------------------------------------------------------------------


class TestEstimateResilience:
    def _exact_truth(self, graph, algorithm, p):
        """P[delivered] by enumerating every failure subset (small m)."""
        evaluator = MaskEvaluator(graph, algorithm)
        links = canonical_links(graph)
        truth = 0.0
        for size in range(len(links) + 1):
            for combo in itertools.combinations(links, size):
                ok, _ = evaluator.delivered(frozenset(combo))
                if ok:
                    truth += p**size * (1.0 - p) ** (len(links) - size)
        return truth

    def test_ci_brackets_exact_ground_truth(self):
        # distance2 on a 6-ring under iid failures sits mid-range
        # (~0.27), so the bracket is a real statistical statement
        graph = resolve_topology("ring(6)")
        algorithm = scheme("distance2").instantiate()
        truth = self._exact_truth(graph, algorithm, p=0.3)
        assert 0.05 < truth < 0.95
        estimate = estimate_resilience(
            graph, algorithm, IIDModel(p=0.3, samples=300, seed=2)
        )
        assert estimate.exhaustive
        assert estimate.samples == 300
        assert estimate.ci_low <= truth <= estimate.ci_high
        assert estimate.note  # a failing scenario leaves a counterexample

    def test_perfectly_resilient_scheme_estimates_one(self):
        graph = resolve_topology("ring(6)")
        estimate = estimate_resilience(
            graph, scheme("greedy").instantiate(), IIDModel(p=0.3, samples=100, seed=0)
        )
        assert estimate.estimate == 1.0
        assert estimate.ci_high == 1.0
        assert estimate.metrics()["resilient"] is True
        assert estimate.note == ""

    def test_budget_cut_flags_not_exhaustive(self):
        graph = resolve_topology("ring(6)")
        budget = Budget(units=7)
        estimate = estimate_resilience(
            graph,
            scheme("greedy").instantiate(),
            IIDModel(p=0.2, samples=100, seed=0),
            deadline=budget,
        )
        assert estimate.samples == 7
        assert not estimate.exhaustive
        assert estimate.metrics()["exhaustive"] is False
        assert estimate.metrics()["planned_samples"] == 100

    def test_expired_deadline_builds_no_pattern(self):
        """Patterns are fetched as the walk reaches each destination, so an
        estimate cut before its first draw builds nothing."""
        from repro.core.model import DestinationAlgorithm
        from repro.experiments import ExperimentSession
        from repro.runtime import Deadline

        class CountingBuilds(DestinationAlgorithm):
            def __init__(self):
                self.inner = scheme("arborescence").instantiate()
                self.builds = []

            def build(self, graph, destination):
                self.builds.append(destination)
                return self.inner.build(graph, destination)

        graph = resolve_topology("ring(6)")
        model = IIDModel(p=0.2, samples=30, seed=0)
        for deadline in (Deadline(0.0), Budget(units=0)):
            algorithm = CountingBuilds()
            estimate = estimate_resilience(
                graph, algorithm, model, session=ExperimentSession(), deadline=deadline
            )
            assert estimate.samples == 0 and not estimate.exhaustive
            assert algorithm.builds == []
        # an uncut estimate builds each destination's pattern once
        algorithm = CountingBuilds()
        estimate_resilience(graph, algorithm, model, session=ExperimentSession())
        assert sorted(algorithm.builds) == sorted(graph.nodes)

    def test_series_checkpoints_accumulate(self):
        graph = resolve_topology("ring(6)")
        estimate = estimate_resilience(
            graph, scheme("greedy").instantiate(), IIDModel(p=0.2, samples=40, seed=0)
        )
        assert [point["samples"] for point in estimate.series] == [
            4, 8, 12, 16, 20, 24, 28, 32, 36, 40
        ]
        assert estimate.series[-1]["estimate"] == estimate.estimate

    def test_samples_counter_is_exported(self):
        graph = resolve_topology("ring(6)")
        with obs.installed(obs.Telemetry()) as telemetry:
            estimate_resilience(
                graph, scheme("greedy").instantiate(), IIDModel(p=0.2, samples=12, seed=0)
            )
            value = telemetry.registry.value("repro_failure_samples_total", model="iid")
        assert value == 12

    def test_naive_session_matches_engine_session(self):
        """The whole estimate, note and series included, on a graph whose
        node insertion order differs from sorted order: the engine walks
        destinations in the checkers' (graph) order."""
        import networkx as nx

        from repro.core.resilience import check_pattern_resilience
        from repro.experiments import naive_session

        base = resolve_topology("grid(3,3)")
        nodes = list(base.nodes)
        random.Random(1).shuffle(nodes)
        shuffled = nx.Graph()
        shuffled.add_nodes_from(nodes)
        shuffled.add_edges_from(base.edges)
        assert list(shuffled.nodes) != sorted(shuffled.nodes)
        model = IIDModel(p=0.3, samples=60, seed=5)
        for graph, name in ((resolve_topology("ring(6)"), "distance2"), (shuffled, "arborescence")):
            algorithm = scheme(name).instantiate()
            fast = estimate_resilience(graph, algorithm, model)
            slow = estimate_resilience(graph, algorithm, model, session=naive_session())
            assert fast == slow

        def naive_delivered(graph, algorithm, failures):
            for destination in graph.nodes:
                verdict = check_pattern_resilience(
                    graph, algorithm.build(graph, destination), destination,
                    failure_sets=[failures], session=naive_session(),
                )
                if not verdict.resilient:
                    return False, str(verdict.counterexample)
            return True, ""

        # masks naming a link outside the graph take the kernel's naive branch
        algorithm = scheme("arborescence").instantiate()
        evaluator = MaskEvaluator(shuffled, algorithm)
        failing = frozenset({(0, 3), (1, 2), (2, 5), (3, 4), (4, 7)})
        for failures in (failing, failing | {(0, 99)}, frozenset({(0, 99)})):
            assert evaluator.delivered(failures) == naive_delivered(shuffled, algorithm, failures)


class TestEstimateCongestion:
    def test_estimates_and_brackets(self):
        from repro.traffic.matrices import build_named_matrix

        graph = resolve_topology("ring(8)")
        demands, _ = build_named_matrix(graph, "permutation", seed=0)
        estimate, error = estimate_congestion(
            graph,
            scheme("greedy").instantiate(),
            demands,
            IIDModel(p=0.1, samples=50, seed=0),
        )
        assert error is None
        assert estimate.samples == 50
        assert estimate.exhaustive
        assert estimate.max_load_ci_low <= estimate.mean_max_load <= estimate.max_load_ci_high
        assert 0.0 <= estimate.delivered_ci_low <= estimate.delivered_fraction
        assert estimate.delivered_fraction <= estimate.delivered_ci_high <= 1.0
        assert estimate.metrics()["sampled"] is True
        assert estimate.stretch_metrics()["mean_stretch"] >= 1.0

    def test_preflight_failure_reports_reason(self):
        from repro.traffic.matrices import build_named_matrix

        graph = resolve_topology("grid(3,3)")  # not outerplanar
        demands, _ = build_named_matrix(graph, "permutation", seed=0)
        estimate, error = estimate_congestion(
            graph,
            scheme("right-hand").instantiate(),
            demands,
            IIDModel(p=0.1, samples=5, seed=0),
        )
        assert estimate is None
        assert "not outerplanar" in error


# ---------------------------------------------------------------------------
# Differential pins: the refactor changed nothing it promised not to.
# ---------------------------------------------------------------------------


class TestDifferentialCompat:
    def test_run_grid_reproduces_the_committed_fixture(self, tmp_path):
        """The exact pre-refactor grid, byte for byte.

        ``tests/fixtures/run_grid_random_model.json`` was generated by
        the pre-``repro.failures`` ``run_grid`` (runtime_seconds
        normalized to 0.0 — the only nondeterministic field).
        """
        result = run_grid(
            topologies=["ring(8)", "grid(3,3)"],
            schemes=["arborescence", "greedy", "tour"],
            failure_models=[RandomGridModel(sizes=(0, 1, 2), samples=3, seed=0)],
            matrix="permutation",
            matrix_seed=0,
        )
        for record in result.records:
            record.runtime_seconds = 0.0
        path = tmp_path / "store.json"
        ResultStore(path).merge(result.records)
        assert path.read_bytes() == FIXTURE.read_bytes()

    def test_spec_string_resolves_to_the_identical_grid(self, tmp_path):
        """``failure_models=["random:..."]`` is the same cell, same bytes."""
        result = run_grid(
            topologies=["ring(8)"],
            schemes=["greedy"],
            failure_models=["random:sizes=0/1/2,samples=3,seed=0"],
            metrics=("resilience",),
            matrix="permutation",
            matrix_seed=0,
        )
        twin = run_grid(
            topologies=["ring(8)"],
            schemes=["greedy"],
            failure_models=[RandomGridModel(sizes=(0, 1, 2), samples=3, seed=0)],
            metrics=("resilience",),
            matrix="permutation",
            matrix_seed=0,
        )
        for record in result.records + twin.records:
            record.runtime_seconds = 0.0
        assert [r.to_dict() for r in result.records] == [r.to_dict() for r in twin.records]

    def test_committed_store_records_re_merge_unchanged(self, tmp_path):
        """Merging a committed store's records back in is a no-op.

        The store's identity index keys on the record's failure-model
        label; if the refactor had changed any label, the re-merge
        would append instead of collapse.
        """
        document = json.loads(FIXTURE.read_text())
        records = [ExperimentRecord.from_dict(entry) for entry in document["records"]]
        assert len(records) == 24
        path = tmp_path / "store.json"
        path.write_text(FIXTURE.read_text())
        store = ResultStore(path)
        before = path.read_bytes()
        store.merge(records)
        assert path.read_bytes() == before

    def test_unknown_failure_model_type_raises(self):
        with pytest.raises(TypeError, match="not a failure model or spec string"):
            run_grid(topologies=["ring(4)"], schemes=["greedy"], failure_models=[42])


# ---------------------------------------------------------------------------
# Sampled cells through run_grid.
# ---------------------------------------------------------------------------


class TestSampledGrid:
    def test_sampled_cell_emits_estimate_records(self):
        result = run_grid(
            topologies=["ring(8)"],
            schemes=["greedy"],
            failure_models=["iid:p=0.05,samples=40,seed=0"],
            metrics=("resilience", "congestion", "stretch"),
            matrix="permutation",
            matrix_seed=0,
        )
        by_experiment = {record.experiment: record for record in result.records}
        assert set(by_experiment) == {"resilience", "congestion", "stretch"}
        resilience = by_experiment["resilience"]
        assert resilience.metrics["sampled"] is True
        assert resilience.metrics["exhaustive"] is True
        assert resilience.metrics["ci_low"] <= resilience.metrics["estimate"]
        assert resilience.metrics["estimate"] <= resilience.metrics["ci_high"]
        assert resilience.failure_model == "iid(p=0.05,samples=40,seed=0)"
        assert resilience.series
        congestion = by_experiment["congestion"]
        assert congestion.metrics["samples"] == 40
        assert "max_load_ci_low" in congestion.metrics

    def test_budget_cut_grid_flags_partial_estimate(self):
        # 1 unit per cell + 1 per sample: 10 units < 1 + 40 planned
        result = run_grid(
            topologies=["ring(8)"],
            schemes=["greedy"],
            failure_models=["iid:p=0.05,samples=40,seed=0"],
            metrics=("resilience",),
            deadline=Budget(units=10),
        )
        [record] = result.records
        assert record.metrics["exhaustive"] is False
        assert record.metrics["samples"] < 40

    def test_budget_cut_last_cell_is_partial_and_not_stored(self, tmp_path):
        # the cut falls inside the grid's only (so last) computed cell
        store = ResultStore(tmp_path / "store.json")
        result = run_grid(
            topologies=["ring(8)"],
            schemes=["greedy"],
            failure_models=["iid:p=0.05,samples=40,seed=0"],
            metrics=("resilience",),
            deadline=Budget(units=10),
            store=store,
        )
        [record] = result.records
        assert record.metrics["samples"] == 10
        assert not result.exhaustive
        assert store.load_records() == []

    @pytest.mark.parametrize("processes", [1, 2])
    def test_budget_cut_cell_is_not_journaled_and_resumes_clean(self, tmp_path, processes):
        """A cut estimate is reported, never journaled: the resumed run
        recomputes it and equals an uninterrupted one.  In the fan-out
        the cut happens in a worker, whose budget charges the parent
        never sees."""
        journal = tmp_path / "journal.jsonl"
        kwargs = dict(
            topologies=["ring(8)"],
            schemes=["greedy", "distance2"],
            failure_models=["iid:p=0.05,samples=50,seed=0"],
            metrics=("resilience",),
        )
        cut = run_grid(
            session=ExperimentSession(processes=processes),
            deadline=Budget(units=10),
            resume=journal,
            **kwargs,
        )
        assert cut.records[0].scheme == "greedy"
        assert cut.records[0].metrics["samples"] == 10
        assert not cut.exhaustive
        resumed = run_grid(resume=journal, **kwargs)
        clean = run_grid(**kwargs)
        assert resumed.resumed_cells == 0
        assert [r.to_dict() | {"runtime_seconds": 0} for r in resumed.records] == [
            r.to_dict() | {"runtime_seconds": 0} for r in clean.records
        ]

    def test_sampled_records_round_trip_the_store(self, tmp_path):
        path = tmp_path / "store.json"
        result = run_grid(
            topologies=["ring(8)"],
            schemes=["greedy"],
            failure_models=["srlg:groups=3,p=0.2,samples=20,seed=0"],
            metrics=("resilience",),
            store=ResultStore(path),
        )
        reloaded = ResultStore(path).load_records()
        assert [r.to_dict() for r in reloaded] == [r.to_dict() for r in result.records]


# ---------------------------------------------------------------------------
# Serve and CLI surfaces share the one grammar.
# ---------------------------------------------------------------------------


class TestServeFailureModels:
    def _service(self, store=None):
        from repro.serve import QueryService

        return QueryService(store=store)

    def _request(self, op, params, id="r1", budget_seconds=None):
        from repro.serve.protocol import Request

        return Request(id=id, op=op, params=params, budget_seconds=budget_seconds)

    def test_sampled_verdict_returns_estimate_with_ci(self):
        response = self._service().execute(
            self._request(
                "verdict",
                {
                    "topology": "ring(8)",
                    "scheme": "greedy",
                    "model": "iid:p=0.02,samples=500,seed=0",
                },
            )
        )
        assert response["ok"]
        verdict = response["result"]["verdict"]
        assert verdict["sampled"] is True
        assert verdict["samples"] == 500
        assert verdict["planned_samples"] == 500
        assert verdict["ci_low"] <= verdict["estimate"] <= verdict["ci_high"]
        assert verdict["exhaustive"] is True
        assert not response.get("partial")

    def test_model_spec_and_label_agree_on_grids(self):
        service = self._service()
        records = [
            service.execute(
                self._request("verdict", {"topology": "ring(8)", "scheme": "greedy",
                                          "model": model}, id=model)
            )["result"]["record"]
            for model in ("random:sizes=0/1/2,samples=3,seed=0",
                          "random(sizes=0/1/2,samples=3,seed=0)")
        ]
        for record in records:
            record["runtime_seconds"] = 0.0
        assert records[0] == records[1]

    @pytest.mark.parametrize("key", ["sizes", "samples", "seed"])
    @pytest.mark.parametrize("op", ["verdict", "load", "grid"])
    def test_removed_keys_get_an_error_envelope(self, op, key):
        if op == "grid":
            params = {"topologies": ["ring(8)"], "schemes": ["greedy"]}
        else:
            params = {"topology": "ring(8)", "scheme": "greedy"}
        response = self._service().execute(self._request(op, dict(params, **{key: 1})))
        assert not response["ok"]
        assert response["error"]["type"] == "QueryError"
        assert f"{op} does not take {key!r}" in response["error"]["message"]

    def test_sampled_answer_is_cached_and_replayed(self, tmp_path):
        from repro.experiments import ResultStore

        store = ResultStore(tmp_path / "answers.json")
        service = self._service(store=store)
        params = {
            "topology": "ring(8)",
            "scheme": "greedy",
            "model": "iid:p=0.05,samples=50,seed=0",
        }
        first = service.execute(self._request("verdict", params))
        second = service.execute(self._request("verdict", params, id="r2"))
        assert not first.get("cached")
        assert second["cached"]
        assert second["result"]["verdict"] == first["result"]["verdict"]

    def test_budget_cut_sampled_verdict_is_partial_and_uncached(self, tmp_path):
        from repro.experiments import ResultStore

        store = ResultStore(tmp_path / "answers.json")
        service = self._service(store=store)
        params = {
            "topology": "ring(8)",
            "scheme": "greedy",
            "model": "iid:p=0.05,samples=100000,seed=0",
        }
        response = self._service(store=store).execute(
            self._request("verdict", params, budget_seconds=1e-9)
        )
        assert response["ok"]
        assert response["partial"]
        assert response["result"]["verdict"]["exhaustive"] is False
        assert store.lookup(
            ("resilience", "ring(8)", "greedy", "iid(p=0.05,samples=100000,seed=0)", "", "")
        ) is None

    def test_error_messages_surface_verbatim(self):
        service = self._service()
        cases = [
            ({"model": "martian:x=1"}, "unknown failure model 'martian'"),
            ({"model": "iid:p=oops"}, "invalid p 'oops': expected a number"),
            ({"model": 7}, "failure-model spec must be a non-empty string, got 7"),
            ({"sizes": "bogus"}, "verdict does not take 'sizes'"),
            ({"samples": "ten"}, "verdict does not take 'samples'"),
        ]
        for extra, message in cases:
            response = service.execute(
                self._request(
                    "verdict", dict({"topology": "ring(8)", "scheme": "greedy"}, **extra)
                )
            )
            assert not response["ok"]
            assert response["error"]["type"] == "QueryError"
            assert message in response["error"]["message"]

    def test_load_accepts_a_sampled_model(self):
        response = self._service().execute(
            self._request(
                "load",
                {
                    "topology": "ring(8)",
                    "scheme": "greedy",
                    "model": "iid:p=0.1,samples=10,seed=0",
                },
            )
        )
        assert response["ok"]
        record = response["result"]["record"]
        assert record["failure_model"] == "iid(p=0.1,samples=10,seed=0)"
        assert record["metrics"]["failure_sets"] == 10

    def test_grid_op_accepts_a_model_spec(self):
        response = self._service().execute(
            self._request(
                "grid",
                {
                    "topologies": ["ring(8)"],
                    "schemes": ["greedy"],
                    "metrics": ["resilience"],
                    "model": "iid:p=0.05,samples=20,seed=0",
                },
            )
        )
        assert response["ok"]
        [record] = response["result"]["records"]
        assert record["metrics"]["sampled"] is True
        assert record["metrics"]["samples"] == 20


class TestFailureModelCLI:
    def _run(self, *args):
        from repro.cli import main

        return main(list(args))

    def test_experiments_quick_honors_failure_model(self, capsys):
        assert (
            self._run(
                "experiments", "--quick", "--failure-model", "iid:p=0.05,samples=100,seed=0"
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "iid(p=0.05,samples=100,seed=0)" in out
        assert "records (JSON round-trip ok)" in out
        assert "estimate=" in out

    def test_experiments_rejects_bad_spec_with_grammar(self, capsys):
        assert self._run("experiments", "--quick", "--failure-model", "martian:x=1") == 2
        err = capsys.readouterr().err
        assert "unknown failure model 'martian'" in err
        assert "spec grammar:" in err

    def test_traffic_failure_model_pins_the_grid(self, capsys):
        assert (
            self._run(
                "traffic", "ring", "--algorithm", "greedy",
                "--failure-model", "exhaustive:k=1",
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "congestion sweep" in out

    def test_traffic_rejects_bad_spec(self, capsys):
        assert self._run("traffic", "ring", "--failure-model", "iid:p=oops") == 2
        assert "invalid --failure-model" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# One vocabulary: a model instance, its spec string or its label.
# ---------------------------------------------------------------------------

#: one spec per registered family (a new family must add its own)
FAMILY_SPECS = {
    "random": "random:sizes=0/1/2,samples=3,seed=0",
    "exhaustive": "exhaustive:k=1",
    "iid": "iid:p=0.05,samples=40,seed=0",
    "srlg": "srlg:groups=3,p=0.2,samples=20,seed=0",
    "regional": "regional:radius=1,centers=1,samples=20,seed=0",
}

REMOVED_KEYWORDS = (
    [(op, key) for op in ("verdict", "load", "grid") for key in ("sizes", "samples", "seed")]
    + [("compare_congestion", key) for key in ("sizes", "samples", "seed", "failure_grid")]
    + [("congestion_vs_failures", key) for key in ("sizes", "samples", "seed")]
    + [("preflight_congestion_curve", "samples")]
    + [("ScenarioGrid", key) for key in ("max_failures", "samples", "seed")]
    + [("default_failure_sets", key) for key in ("max_failures", "samples", "seed")]
    + [("sweep_pattern_resilience", "default_params"), ("default_batch", "default_params")]
)


class TestOneVocabulary:
    @pytest.mark.parametrize("target, keyword", REMOVED_KEYWORDS)
    def test_removed_keywords_raise(self, target, keyword):
        from repro.core.engine import EngineState, vectorized
        from repro.core.engine.sweep import ScenarioGrid, sweep_pattern_resilience
        from repro.core.resilience import default_failure_sets
        from repro.traffic import (
            TrafficEngine,
            compare_congestion,
            congestion_vs_failures,
            permutation,
            preflight_congestion_curve,
        )

        graph = resolve_topology("ring(8)")
        algorithm = scheme("greedy").instantiate()
        demands = permutation(graph, seed=0)
        grid = {0: [frozenset()]}
        state = EngineState(graph)
        client = QueryClient()
        calls = {
            "verdict": lambda **kw: client.verdict("ring(8)", "greedy", **kw),
            "load": lambda **kw: client.load("ring(8)", "greedy", **kw),
            "grid": lambda **kw: client.grid(["ring(8)"], **kw),
            "compare_congestion": lambda **kw: compare_congestion(graph, demands, **kw),
            "congestion_vs_failures": lambda **kw: congestion_vs_failures(
                graph, algorithm, demands, grid, **kw
            ),
            "preflight_congestion_curve": lambda **kw: preflight_congestion_curve(
                TrafficEngine(graph, algorithm), algorithm, demands, grid, **kw
            ),
            "ScenarioGrid": lambda **kw: ScenarioGrid(**kw),
            "default_failure_sets": lambda **kw: default_failure_sets(graph, **kw),
            "sweep_pattern_resilience": lambda **kw: sweep_pattern_resilience(
                state, state.pattern(algorithm, 0), 0, **kw
            ),
            "default_batch": lambda **kw: vectorized.default_batch(state, **kw),
        }
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
            calls[target](**{keyword: 1})

    def test_second_vocabulary_names_are_gone(self):
        import repro.core.resilience as resilience
        import repro.failures as failures
        import repro.traffic as traffic
        from repro.traffic import CongestionCurve

        assert not hasattr(traffic, "sample_failure_grid")
        assert not hasattr(traffic, "default_sizes")
        assert not hasattr(failures, "model_from_params")
        assert not hasattr(resilience, "DEFAULT_FAILURE_PARAMS")
        assert "samples_per_size" not in CongestionCurve.__dataclass_fields__

    @pytest.mark.parametrize("family", sorted(MODEL_FAMILIES))
    def test_spec_label_and_instance_name_one_model(self, family, tmp_path):
        """run_grid records agree however the model is named, and the
        service answers a verdict by spec from the store they wrote."""
        spec = FAMILY_SPECS[family]
        model = parse_failure_model(spec)
        store = ResultStore(tmp_path / "store.json")
        runs = []
        for named in (spec, model.label, model):
            result = run_grid(
                ["ring(8)"], ["greedy"], failure_models=[named],
                store=store if named is model else None,
            )
            runs.append([dict(record.to_dict(), runtime_seconds=0.0) for record in result.records])
        assert runs[0] == runs[1] == runs[2]
        reply = QueryService(store=ResultStore(store.path)).execute(
            Request(id="v", op="verdict",
                    params={"topology": "ring(8)", "scheme": "greedy", "model": spec})
        )
        assert reply["cached"] is True
        (stored,) = [r for r in store.load_records() if r.experiment == "resilience"]
        assert reply["result"]["record"] == stored.to_dict()
