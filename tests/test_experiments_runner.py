"""run_grid, ExperimentRecord serialization, and the result store."""

import json

import pytest

from repro.core.engine.vectorized import numpy_available
from repro.experiments import (
    ExperimentRecord,
    ExperimentSession,
    ResultStore,
    list_schemes,
    records_round_trip,
    resolve_topology,
    run_grid,
    scheme,
)
from repro.failures import RandomGridModel
from repro.runtime import CellJournal
from repro.traffic import compare_congestion, permutation

FAST_BACKENDS = ["engine"] + (["numpy"] if numpy_available() else [])


class TestGridVsCompareCongestion:
    """Acceptance: run_grid reproduces compare_congestion exactly."""

    SIZES = (0, 1, 2)
    SAMPLES = 3
    SEED = 0

    @pytest.fixture(scope="class")
    def comparison(self):
        graph = resolve_topology("grid(3, 3)")
        demands = permutation(graph, seed=1)
        return compare_congestion(
            graph,
            demands,
            failure_model=RandomGridModel(sizes=self.SIZES, samples=self.SAMPLES, seed=self.SEED),
        )

    @pytest.fixture(scope="class")
    def grid_records(self):
        names = [spec.name for spec in list_schemes(tag="congestion-default")]
        result = run_grid(
            ["grid(3, 3)"],
            names,
            failure_models=[
                RandomGridModel(sizes=self.SIZES, samples=self.SAMPLES, seed=self.SEED)
            ],
            metrics=("congestion",),
            matrix="permutation",
            matrix_seed=1,
            session=ExperimentSession(),
        )
        return result

    def test_identical_numbers_per_scheme_and_size(self, comparison, grid_records):
        by_algorithm = {curve.algorithm: curve for curve in comparison.curves}
        checked = 0
        for record in grid_records.select("congestion"):
            if record.status != "ok":
                continue
            algorithm_name = scheme(record.scheme).factory.name
            curve = by_algorithm[algorithm_name]
            assert len(record.series) == len(curve.points)
            for row, point in zip(record.series, curve.points):
                assert row["failures"] == point.failures
                assert row["scenarios"] == point.scenarios
                assert row["mean_max_load"] == point.mean_max_load
                assert row["worst_max_load"] == point.worst_max_load
                assert row["mean_p99_load"] == point.mean_p99_load
                assert row["delivered_fraction"] == point.delivered_fraction
                assert row["mean_stretch"] == point.mean_stretch
                checked += 1
        assert checked >= 3 * len(comparison.curves)  # every size of every curve

    def test_same_schemes_skipped(self, comparison, grid_records):
        harness_skipped = {name for name, _ in comparison.skipped}
        grid_skipped = {
            scheme(record.scheme).factory.name
            for record in grid_records.select("congestion")
            if record.status != "ok"
        }
        # schemes the runner refused by predicate never reach the harness
        applicability_skipped = {
            scheme(name).factory.name for _, name, _ in grid_records.skipped
        }
        assert harness_skipped == grid_skipped | applicability_skipped


class TestRunGrid:
    def test_inapplicable_scheme_yields_skip_record(self):
        result = run_grid(
            ["petersen"],
            ["tour"],
            failure_models=[RandomGridModel(sizes=(0,), samples=1)],
            metrics=("congestion",),
        )
        assert not result.select("congestion")
        (record,) = result.records
        assert record.experiment == "applicability"
        assert record.status == "skipped"
        assert "outerplanar" in record.note
        assert result.skipped and result.skipped[0][1] == "tour"

    def test_resilience_metric_matches_checker(self):
        from repro.core.resilience import check_perfect_resilience_destination

        graph = resolve_topology("ring")
        model = RandomGridModel(sizes=(0, 1, 2), samples=3, seed=5)
        grid = model.grid(graph)
        flat = [failures for size in sorted(grid) for failures in grid[size]]
        expected = check_perfect_resilience_destination(
            graph, scheme("tour").instantiate(), failure_sets=flat
        )
        result = run_grid(
            [("ring", graph)],
            ["tour"],
            failure_models=[model],
            metrics=("resilience",),
        )
        (record,) = result.select("resilience")
        assert record.metrics["resilient"] == expected.resilient
        assert record.metrics["scenarios_checked"] == expected.scenarios_checked

    def test_mixed_label_counterexamples_are_noted(self):
        # a failure set holding (0, 1) and (0, 'x') does not sort natively
        graph = resolve_topology("ring(6)")
        graph.add_edges_from([("x", 0), ("x", 1)])
        result = run_grid(
            [("ring+x", graph)],
            ["arborescence", "distance2"],
            failure_models=["exhaustive:k=3"],
            metrics=("resilience",),
        )
        assert [(record.scheme, record.status, record.note) for record in result.records] == [
            (name, "ok", "loop for s=1, t=0, |F|=2: [(0, 1), (0, 'x')]")
            for name in ("arborescence", "distance2")
        ]

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_naive_backend_congestion_matches_engine(self, backend):
        """Grid and sampled cells of one scheme share one instance: its
        patterns and decision tables serve the resilience sweep, the
        traffic router, the estimator and both cells, and every record
        still equals the naive session's."""
        from repro.experiments import naive_session

        kwargs = dict(
            failure_models=[
                RandomGridModel(sizes=(0, 1, 2), samples=2, seed=4),
                "iid:p=0.1,samples=20,seed=0",
            ],
            metrics=("resilience", "congestion", "stretch"),
            matrix="all-to-one",
        )
        session = ExperimentSession(backend=backend)
        fast = run_grid(["ring"], ["greedy", "arborescence"], session=session, **kwargs)
        slow = run_grid(
            ["ring"], ["greedy", "arborescence"], session=naive_session(), **kwargs
        )
        assert len(fast.records) == len(slow.records) == 12
        for a, b in zip(fast.records, slow.records):
            assert a.to_dict() | {"runtime_seconds": 0} == b.to_dict() | {"runtime_seconds": 0}
        # one build per (scheme, destination), every later use a cache hit
        nodes = resolve_topology("ring").number_of_nodes()
        patterns = session.pattern_stats()
        assert patterns["misses"] == patterns["patterns"] == 2 * nodes
        assert patterns["hits"] > 0

    def test_each_pattern_is_built_once_per_graph(self, monkeypatch):
        from repro.core.algorithms import arborescence_routing

        calls = []
        pack = arborescence_routing.arc_disjoint_in_arborescences

        def counted(graph, root, **kwargs):
            calls.append(root)
            return pack(graph, root, **kwargs)

        monkeypatch.setattr(arborescence_routing, "arc_disjoint_in_arborescences", counted)
        result = run_grid(
            ["fattree(4)"],
            ["arborescence"],
            failure_models=["random:samples=10,seed=0", "iid:p=0.05,samples=200,seed=0"],
            session=ExperimentSession(),
        )
        assert not result.errors
        assert sorted(calls) == sorted(resolve_topology("fattree(4)").nodes)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metrics"):
            run_grid(["ring"], ["greedy"], metrics=("latency",))

    def test_runtime_recorded(self):
        result = run_grid(
            ["ring"], ["greedy"], failure_models=[RandomGridModel(sizes=(0,), samples=1)]
        )
        assert all(record.runtime_seconds >= 0.0 for record in result.records)
        assert result.table()  # renders without crashing


class TestRecords:
    def test_json_round_trip(self):
        record = ExperimentRecord(
            experiment="congestion",
            topology="ring",
            scheme="greedy",
            failure_model="random(sizes=0/1,samples=2,seed=0)",
            metrics={"worst_max_load": 4, "delivered_fraction": 0.5},
            series=[{"failures": 0, "mean_max_load": 2.0}],
            params={"matrix": "permutation"},
            runtime_seconds=0.25,
        )
        assert ExperimentRecord.from_json(record.to_json()) == record
        assert records_round_trip([record])

    def test_non_scalar_metric_rejected(self):
        with pytest.raises(TypeError, match="JSON scalar"):
            ExperimentRecord(
                experiment="x", topology="t", scheme="s", metrics={"bad": [1, 2]}
            )

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown record fields"):
            ExperimentRecord.from_dict({"experiment": "x", "topology": "t", "scheme": "s", "wat": 1})


class TestResultStore:
    def _record(self, scheme_name, value, matrix="permutation"):
        return ExperimentRecord(
            experiment="congestion",
            topology="ring",
            scheme=scheme_name,
            failure_model="fm",
            metrics={"worst_max_load": value},
            params={"matrix": matrix},
        )

    def test_merge_replaces_same_key_keeps_others(self, tmp_path):
        store = ResultStore(tmp_path / "results.json")
        store.merge([self._record("greedy", 4), self._record("tour", 3)])
        store.merge([self._record("greedy", 9)])  # newer run, same identity
        records = {record.scheme: record for record in store.load_records()}
        assert records["greedy"].metrics["worst_max_load"] == 9
        assert records["tour"].metrics["worst_max_load"] == 3

    def test_matrix_is_part_of_identity(self, tmp_path):
        store = ResultStore(tmp_path / "results.json")
        store.merge([self._record("greedy", 4, "permutation")])
        store.merge([self._record("greedy", 7, "all-to-all")])
        assert len(store.load_records()) == 2

    def test_raw_sections_survive_record_merges(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text(json.dumps({"records": [], "gadget": {"speedup": 10.0}}))
        store = ResultStore(path)
        store.merge([self._record("greedy", 4)])
        # another writer adds its own top-level section by hand
        document = json.loads(path.read_text())
        document["congestion"] = {"workloads": {}}
        path.write_text(json.dumps(document))
        store.merge([self._record("tour", 3)])
        document = json.loads(path.read_text())
        assert document["gadget"] == {"speedup": 10.0}
        assert document["congestion"] == {"workloads": {}}
        assert len(document["records"]) == 2

    @pytest.mark.parametrize("lines", [1, 2])
    def test_journal_is_not_a_store(self, tmp_path, lines):
        """A cell journal passed as the store used to be overwritten
        whole; a one-line journal is one JSON object, but no store."""
        path = tmp_path / "journal.jsonl"
        journal = CellJournal(path)
        for key in "ab"[:lines]:
            journal.append(key, 1)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="journal.jsonl"):
            ResultStore(path).merge([self._record("greedy", 4)])
        assert path.read_bytes() == before

    def test_truncated_store_is_refused(self, tmp_path):
        """A truncated store used to lose every record on the next merge."""
        path = tmp_path / "results.json"
        ResultStore(path).merge([self._record(name, 1) for name in ("greedy", "tour", "arb")])
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        before = path.read_bytes()
        store = ResultStore(path)
        with pytest.raises(ValueError, match="results.json"):
            store.merge([self._record("greedy", 4)])
        with pytest.raises(ValueError, match="results.json"):
            store.lookup(self._record("greedy", 4).key())
        assert path.read_bytes() == before

    def test_blank_file_is_an_empty_store(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text("")
        assert ResultStore(path).merge([self._record("greedy", 4)]) == [self._record("greedy", 4)]

    def test_csv_export(self, tmp_path):
        store = ResultStore(tmp_path / "results.json")
        store.merge([self._record("greedy", 4), self._record("tour", 3)])
        csv_path = tmp_path / "results.csv"
        assert store.write_csv(csv_path) == 2
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 3
        assert "metric:worst_max_load" in lines[0]
        assert "param:matrix" in lines[0]


#: a two-cell grid: its journal has two lines, its store many
SMALL_GRID = [
    "experiments", "--topologies", "ring", "--schemes", "greedy,distance2",
    "--failure-model", "random:sizes=0,samples=1", "--metrics", "resilience",
]


class TestExperimentsCli:
    def test_quick_smoke_round_trips(self, capsys):
        from repro.cli import main

        assert main(["experiments", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "JSON round-trip ok" in out
        assert "resilience" in out and "congestion" in out

    def test_merge_line_counts_what_the_store_gained(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "r.json"
        assert main(SMALL_GRID + ["--out", str(store)]) == 0
        stored = len(ResultStore(store).load_records())
        assert stored > 0
        assert f"merged {stored} records into {store}" in capsys.readouterr().out

    def test_cut_cell_is_reported_but_not_stored(self, tmp_path, capsys, monkeypatch):
        """A deadline-cut estimate stays in the table; the CLI says it
        was not stored and counts only what the store received."""
        import repro.runtime
        from repro.cli import main
        from repro.runtime import Budget

        # a unit budget cuts the first cell's estimate at its 10th sample
        monkeypatch.setattr(repro.runtime, "Deadline", lambda seconds: Budget(10))
        store, journal = tmp_path / "s.json", tmp_path / "j.jsonl"
        args = [
            "experiments", "--topologies", "ring", "--schemes", "greedy,distance2",
            "--metrics", "resilience", "--failure-model", "iid:p=0.05,samples=20000,seed=0",
            "--deadline", "60", "--out", str(store), "--resume", str(journal),
        ]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "(cut)" in captured.out
        assert "1 records (JSON round-trip ok)" in captured.out
        assert f"merged 0 records into {store}" in captured.out
        assert "[not stored] resilience of greedy on ring" in captured.err
        assert ResultStore(store).load_records() == []
        assert len(CellJournal(journal)) == 0

    def test_list_registries(self, capsys):
        from repro.cli import main

        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        assert "registered schemes" in out
        assert "arborescence" in out and "fattree" in out

    def test_resume_on_a_store_exits_2_untouched(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "r.json"
        assert main(SMALL_GRID + ["--out", str(store)]) == 0
        before = store.read_bytes()
        capsys.readouterr()
        assert main(SMALL_GRID + ["--resume", str(store)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(store) in err
        assert store.read_bytes() == before

    @pytest.mark.parametrize("schemes", ["greedy", "greedy,distance2"])
    def test_out_on_a_journal_exits_2_untouched(self, tmp_path, capsys, schemes):
        from repro.cli import main

        journal = tmp_path / "j.jsonl"
        grid = SMALL_GRID[:4] + [schemes] + SMALL_GRID[5:]
        assert main(grid + ["--resume", str(journal)]) == 0
        before = journal.read_bytes()
        assert before.count(b"\n") == len(schemes.split(","))  # one line per cell
        capsys.readouterr()
        assert main(grid + ["--out", str(journal)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(journal) in err
        assert journal.read_bytes() == before

    def test_mix_ups_exit_2_as_processes(self, tmp_path):
        """The exit status a shell sees for each mix-up."""
        import os
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH="src")

        def repro(*args):
            return subprocess.run(
                [sys.executable, "-m", "repro", *SMALL_GRID, *args],
                capture_output=True, text=True, env=env, cwd=root, timeout=120,
            ).returncode

        store, journal = tmp_path / "r.json", tmp_path / "j.jsonl"
        assert repro("--out", str(store), "--resume", str(journal)) == 0
        before = store.read_bytes(), journal.read_bytes()
        assert repro("--resume", str(store)) == 2
        assert repro("--out", str(journal)) == 2
        assert (store.read_bytes(), journal.read_bytes()) == before

    def test_same_file_for_out_and_resume_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "both.json"
        assert main(SMALL_GRID + ["--out", str(path), "--resume", str(path)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not path.exists()

    def test_store_and_csv(self, tmp_path, capsys):
        from repro.cli import main

        out_json = tmp_path / "records.json"
        out_csv = tmp_path / "records.csv"
        code = main(
            [
                "experiments",
                "--topologies", "ring",
                "--schemes", "greedy",
                "--failure-model", "random:sizes=0/1,samples=2",
                "--metrics", "congestion",
                "--out", str(out_json),
                "--csv", str(out_csv),
            ]
        )
        assert code == 0
        assert ResultStore(out_json).load_records()
        assert out_csv.read_text().count("\n") >= 2
