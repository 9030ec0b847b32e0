"""The fault-tolerance runtime: every recovery path actually recovers.

Covers deadlines/budgets, the cell journal and atomic writes, the
deterministic fault-injection plans, the crash-recovering
``parallel_map``, and the end-to-end guarantees: a worker crash never
changes a sweep verdict, a killed ``run_grid`` resumes to a
byte-identical result store, and a torn write never corrupts the store.
"""

import json
import time

import networkx as nx
import pytest

import repro.core.engine as engine
import repro.core.engine.sweep as sweep
import repro.experiments.runner as runner
from repro import obs
from repro.core.algorithms import ArborescenceRouting
from repro.core.engine.sweep import EngineState, ScenarioGrid, parallel_map, sweep_resilience
from repro.core.resilience import (
    check_perfect_resilience_destination,
    check_perfect_resilience_source_destination,
)
from repro.experiments import (
    ExperimentRecord,
    ExperimentSession,
    ResultStore,
    run_grid,
    scheme,
)
from repro.failures import RandomGridModel
from repro.runtime import (
    Budget,
    CellJournal,
    Deadline,
    FaultPlan,
    FaultSpec,
    GridKill,
    InjectedFault,
    TornWrite,
    active_plan,
    atomic_write_text,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestDeadline:
    def test_never_expires_without_limit(self):
        clock = FakeClock()
        deadline = Deadline(clock=clock)
        clock.now = 1e9
        assert not deadline.expired()
        assert deadline.remaining() is None

    def test_expires_and_latches(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert not deadline.expired()
        assert deadline.remaining() == 2.0
        clock.now = 2.0
        assert deadline.expired()
        clock.now = 0.0  # a latched deadline never un-expires
        assert deadline.expired()

    def test_manual_expire(self):
        deadline = Deadline()
        deadline.expire()
        assert deadline.expired()

    def test_charge_is_expiry_check(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        assert deadline.charge()
        clock.now = 1.0
        assert not deadline.charge()

    def test_negative_seconds_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)


class TestBudget:
    def test_unit_budget(self):
        budget = Budget(2)
        assert budget.charge()
        assert not budget.charge()  # second charge spends the last unit
        assert budget.expired()
        assert budget.remaining_units() == 0

    def test_combined_time_and_units(self):
        clock = FakeClock()
        budget = Budget(100, seconds=5.0, clock=clock)
        assert budget.charge()
        clock.now = 5.0
        assert budget.expired()

    def test_negative_units_rejected(self):
        with pytest.raises(ValueError):
            Budget(-1)


class TestCellJournal:
    def test_append_and_replay(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CellJournal(path)
        journal.append("a", {"x": 1})
        journal.append("b", [1, 2])
        replay = CellJournal(path)
        assert len(replay) == 2
        assert "a" in replay and "b" in replay
        assert replay.payload("a") == {"x": 1}
        assert replay.payload("b") == [1, 2]

    def test_torn_tail_is_truncated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CellJournal(path)
        journal.append("a", 1)
        journal.append("b", 2)
        with open(path, "a") as handle:
            handle.write('{"key": "c", "payl')  # the writer died mid-line
        replay = CellJournal(path)
        assert len(replay) == 2
        assert "c" not in replay
        # the torn bytes are gone: the next append produces a clean file
        replay.append("c", 3)
        assert CellJournal(path).payload("c") == 3

    def test_ts_rides_outside_the_payload(self, tmp_path):
        """The wall-clock stamp never leaks into replayed payloads."""
        import json

        path = tmp_path / "journal.jsonl"
        journal = CellJournal(path)
        journal.append("a", {"x": 1})
        line = json.loads(path.read_text().splitlines()[0])
        assert set(line) == {"key", "payload", "ts"}
        assert CellJournal(path).payload("a") == {"x": 1}

    def test_staleness_reflects_newest_entry(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CellJournal(path)
        assert journal.last_ts is None
        assert journal.staleness_seconds() is None
        journal.append("a", 1)
        journal.append("b", 2)
        replay = CellJournal(path)
        assert replay.last_ts == journal.last_ts
        assert replay.staleness_seconds(now=replay.last_ts + 30) == 30
        # clock skew never yields a negative age
        assert replay.staleness_seconds(now=replay.last_ts - 5) == 0.0

    def test_pre_ts_journals_still_load(self, tmp_path):
        import json

        path = tmp_path / "journal.jsonl"
        path.write_text(json.dumps({"key": "old", "payload": 7}) + "\n")
        journal = CellJournal(path)
        assert journal.payload("old") == 7
        assert journal.last_ts is None

    def test_corrupt_line_stops_replay(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CellJournal(path)
        journal.append("a", 1)
        with open(path, "a") as handle:
            handle.write("not json at all\n")
        replay = CellJournal(path)
        assert len(replay) == 1

    def test_bad_line_before_the_last_raises_untouched(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        CellJournal(path).append("a", 1)
        with open(path, "a") as handle:
            handle.write("not json at all\n")
            handle.write('{"key": "b", "payload": 2}\n')
        before = path.read_bytes()
        with pytest.raises(ValueError, match="line 2"):
            CellJournal(path)
        assert path.read_bytes() == before

    def test_result_store_is_not_a_journal(self, tmp_path):
        """A store passed as the journal used to be truncated to nothing."""
        path = tmp_path / "results.json"
        ResultStore(path).merge(
            [ExperimentRecord(experiment="resilience", topology="ring", scheme="greedy")]
        )
        before = path.read_bytes()
        with pytest.raises(ValueError, match="results.json"):
            CellJournal(path)
        assert path.read_bytes() == before

    def test_missing_file_is_empty(self, tmp_path):
        journal = CellJournal(tmp_path / "missing.jsonl")
        assert len(journal) == 0


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text() == "two"
        assert list(tmp_path.iterdir()) == [path]  # no temp litter

    def test_torn_write_fault_never_touches_target(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_text(path, "intact")
        plan = FaultPlan([FaultSpec("torn-write")])
        with plan.installed():
            with pytest.raises(TornWrite):
                atomic_write_text(path, "replacement that dies halfway")
        assert path.read_text() == "intact"

    def test_result_store_survives_torn_write(self, tmp_path):
        path = tmp_path / "results.json"
        store = ResultStore(path)
        a, b = (
            ExperimentRecord(experiment="resilience", topology=name, scheme="greedy")
            for name in ("a", "b")
        )
        store.merge([a])
        plan = FaultPlan([FaultSpec("torn-write")])
        with plan.installed():
            with pytest.raises(TornWrite):
                store.merge([b])
        # the file keeps the old document, and the instance that failed
        # to write sees exactly the file: b was never stored
        for view in (store, ResultStore(path)):
            assert [record.topology for record in view.load_records()] == ["a"]
            assert view.lookup(b.key()) is None
            assert view.lookup(a.key()) == a


class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse(
            "worker-crash:at=0+2,attempts=all;cell-error:rate=0.5;"
            "slow-chunk:seconds=0.01;grid-kill:at=3",
            seed=7,
        )
        kinds = [spec.kind for spec in plan.specs]
        assert kinds == ["worker-crash", "cell-error", "slow-chunk", "grid-kill"]
        assert plan.specs[0].at == (0, 2)
        assert plan.specs[0].attempts is None
        assert plan.specs[1].rate == 0.5
        assert plan.specs[2].seconds == 0.01
        assert plan.seed == 7

    @pytest.mark.parametrize(
        "text",
        ["", "unknown-kind:at=0", "cell-error:bogus=1", "cell-error:rate=2.0"],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            FaultPlan.parse(text)

    def test_at_and_attempt_selection(self):
        spec = FaultSpec("worker-crash", at=(1, 3))
        assert not spec.triggers(0, 0, 0)
        assert spec.triggers(0, 1, 0)
        assert not spec.triggers(0, 1, 1)  # default: first attempt only
        assert FaultSpec("worker-crash", at=(1,), attempts=None).triggers(0, 1, 5)

    def test_rate_is_seed_deterministic(self):
        spec = FaultSpec("cell-error", rate=0.5, attempts=None)
        pattern = [spec.triggers(0, index, 0) for index in range(64)]
        assert pattern == [spec.triggers(0, index, 0) for index in range(64)]
        assert any(pattern) and not all(pattern)

    def test_visit_counter_for_indexless_sites(self):
        plan = FaultPlan([FaultSpec("torn-write", at=(1,))])
        assert plan.fire("store-write") is None  # visit 0
        assert plan.fire("store-write") is not None  # visit 1
        assert plan.fire("store-write") is None  # visit 2

    def test_installed_restores_previous(self):
        assert active_plan() is None
        plan = FaultPlan([FaultSpec("cell-error")])
        with plan.installed():
            assert active_plan() is plan
        assert active_plan() is None


class TestParallelMap:
    def test_matches_serial(self):
        items = list(range(23))
        assert parallel_map(lambda x: x * x, items, 4) == [x * x for x in items]

    def test_worker_crash_salvages_completed_chunks(self):
        items = list(range(10))
        plan = FaultPlan.parse("worker-crash:at=0")
        with plan.installed():
            out = parallel_map(lambda x: x + 1, items, 4)
        assert out == [x + 1 for x in items]

    def test_poisoned_item_falls_back_to_serial(self):
        # crashes the worker on every attempt: retries exhaust, the
        # serial pass completes the map (injected faults only fire in
        # forked workers, so the serial pass is clean)
        items = list(range(6))
        plan = FaultPlan.parse("worker-crash:at=2,attempts=all")
        with plan.installed():
            out = parallel_map(lambda x: x * 3, items, 3)
        assert out == [x * 3 for x in items]

    def test_slow_chunk_timeout_recovers(self):
        items = list(range(6))
        plan = FaultPlan.parse("slow-chunk:at=0,seconds=30")
        start = time.monotonic()
        with plan.installed():
            out = parallel_map(lambda x: x, items, 3, timeout=0.2)
        assert out == items
        assert time.monotonic() - start < 10  # never waited out the sleep

    def test_function_exception_propagates(self):
        def boom(x):
            if x == 2:
                raise ValueError("boom")
            return x

        with pytest.raises(ValueError, match="boom"):
            parallel_map(boom, list(range(5)), 3)


class TestOneFanOut:
    """Grid cells are the only parallel unit: sweeps and checkers run in
    process whatever the session's ``processes``."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda graph: sweep_resilience(graph, ArborescenceRouting(), processes=2),
            lambda graph: check_perfect_resilience_destination(
                graph, ArborescenceRouting(), processes=2
            ),
            lambda graph: check_perfect_resilience_source_destination(
                graph, scheme("distance2").instantiate(), processes=2
            ),
            lambda graph: parallel_map(len, [graph, graph], 2, initializer=None),
            lambda graph: parallel_map(len, [graph, graph], 2, retries=1),
            lambda graph: parallel_map(len, [graph, graph], 2, backoff=0.0),
            lambda graph: run_grid([("c4", graph)], ["greedy"], processes=2),
        ],
        ids=[
            "sweep_resilience",
            "destination",
            "source_destination",
            "parallel_map",
            "parallel_map_retries",
            "parallel_map_backoff",
            "run_grid_processes",
        ],
    )
    def test_removed_fanout_keywords_raise(self, call):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            call(nx.cycle_graph(4))

    def test_worker_warm_is_not_exported(self):
        assert not hasattr(sweep, "worker_warm")
        assert not hasattr(engine, "worker_warm")
        assert "worker_warm" not in engine.__all__

    def test_processes_session_verdict_forks_nothing(self, monkeypatch):
        from repro.serve import QueryService, Request

        calls = []
        fan_out = sweep.parallel_map

        def counted(*args, **kwargs):
            calls.append(args)
            return fan_out(*args, **kwargs)

        monkeypatch.setattr(sweep, "parallel_map", counted)
        params = {
            "topology": "ring(8)",
            "scheme": "distance2",
            "model": "iid:p=0.2,samples=40,seed=0",
        }
        replies = [
            QueryService(session=session).execute(Request(id="v", op="verdict", params=params))
            for session in (ExperimentSession(processes=2), ExperimentSession())
        ]
        assert calls == []
        forked, serial = (reply["result"]["record"] for reply in replies)
        assert forked["metrics"] == serial["metrics"]
        assert forked["metrics"]["samples"] == 40
        assert forked["series"] == serial["series"]


class TestSweepRecovery:
    """A worker crash in the cell fan-out never changes a verdict, and a
    deadline cuts a sweep between whole units."""

    @pytest.fixture(scope="class")
    def case(self):
        # a triangle: the default family is every failure set of its
        # three links, and both schemes deliver under all of them
        graph = nx.cycle_graph(3)
        grid = ScenarioGrid()
        clean = sweep_resilience(graph, ArborescenceRouting(), grid)
        return graph, grid, clean

    @staticmethod
    def _cells(graph, **kwargs):
        result = run_grid(
            [("cycle(3)", graph)],
            ["arborescence", "distance2"],
            failure_models=["exhaustive:k=3"],
            metrics=("resilience",),
            **kwargs,
        )
        return [record.to_dict() for record in result.records]

    def test_clean_cell_fanout_matches_serial(self, case, frozen_clock):
        graph, _, clean = case
        serial = self._cells(graph)
        assert self._cells(graph, session=ExperimentSession(processes=2)) == serial
        arborescence = serial[0]["metrics"]
        assert arborescence["resilient"] == clean.resilient
        assert arborescence["scenarios_checked"] == clean.scenarios_checked

    def test_crashed_cell_worker_leaves_records_identical(self, case, frozen_clock):
        graph, _, _ = case
        serial = self._cells(graph)
        telemetry = obs.Telemetry()
        with obs.installed(telemetry), FaultPlan.parse("worker-crash:at=0").installed():
            crashed = self._cells(graph, session=ExperimentSession(processes=2))
        assert crashed == serial
        assert telemetry.registry.value("repro_faults_fired_total", kind="worker-crash") == 1

    def test_deadline_cuts_cleanly(self, case):
        graph, grid, clean = case
        cut = sweep_resilience(graph, ArborescenceRouting(), grid, deadline=Budget(2))
        assert cut.resilient
        assert not cut.exhaustive
        # completed units are whole: the cut checked exactly what an
        # uncut sweep over the first two destinations checks
        first_two = ScenarioGrid(destinations=list(graph.nodes)[:2])
        prefix = sweep_resilience(graph, ArborescenceRouting(), first_two)
        assert 0 < prefix.scenarios_checked < clean.scenarios_checked
        assert cut.scenarios_checked == prefix.scenarios_checked

    def test_expired_deadline_runs_nothing(self, case):
        graph, grid, _ = case
        state = EngineState(graph)
        result = sweep_resilience(
            graph, ArborescenceRouting(), grid, state=state, deadline=Deadline(0.0)
        )
        assert result.scenarios_checked == 0
        assert not result.exhaustive
        assert state.patterns_cached() == 0  # not even a pattern was built

    def test_pair_sweep_deadline_cuts_cleanly(self, case):
        graph, grid, _ = case
        algorithm = scheme("distance2").instantiate()
        uncut = sweep_resilience(graph, algorithm, grid)
        assert uncut.resilient and uncut.exhaustive
        cut = sweep_resilience(graph, algorithm, grid, deadline=Budget(3))
        assert cut.resilient
        assert not cut.exhaustive
        # the first three (source, destination) units in grid order, whole
        pairs = [(s, t) for t in graph.nodes for s in graph.nodes if s != t][:3]
        prefix = sweep_resilience(graph, algorithm, ScenarioGrid(pairs=pairs))
        assert 0 < prefix.scenarios_checked < uncut.scenarios_checked
        assert cut.scenarios_checked == prefix.scenarios_checked


GRID_KWARGS = dict(
    topologies=["ring"],
    schemes=["arborescence", "greedy"],
    failure_models=[RandomGridModel(sizes=(0, 1), samples=2, seed=0)],
    metrics=("resilience", "congestion", "stretch", "table_space"),
    matrix="permutation",
    matrix_seed=0,
)


@pytest.fixture()
def frozen_clock(monkeypatch):
    """Pin record runtimes so resumed and clean runs are byte-comparable."""
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)


class TestGridRecovery:
    def test_kill_and_resume_is_byte_identical(self, tmp_path, frozen_clock):
        clean_store = ResultStore(tmp_path / "clean.json")
        run_grid(session=ExperimentSession(), store=clean_store, **GRID_KWARGS)

        chaos_store = ResultStore(tmp_path / "chaos.json")
        journal_path = tmp_path / "journal.jsonl"
        plan = FaultPlan.parse("grid-kill:at=1")
        with plan.installed():
            with pytest.raises(GridKill):
                run_grid(
                    session=ExperimentSession(),
                    store=chaos_store,
                    resume=journal_path,
                    **GRID_KWARGS,
                )
        # the kill happened mid-grid: cell 0 journaled, store unwritten
        assert len(CellJournal(journal_path)) == 1
        assert not chaos_store.path.exists()

        resumed = run_grid(
            session=ExperimentSession(),
            store=chaos_store,
            resume=journal_path,
            **GRID_KWARGS,
        )
        assert resumed.resumed_cells == 1
        assert chaos_store.path.read_bytes() == clean_store.path.read_bytes()

    def test_resume_skips_all_completed_cells(self, tmp_path, frozen_clock):
        journal_path = tmp_path / "journal.jsonl"
        first = run_grid(session=ExperimentSession(), resume=journal_path, **GRID_KWARGS)
        assert first.resumed_cells == 0
        second = run_grid(session=ExperimentSession(), resume=journal_path, **GRID_KWARGS)
        assert second.resumed_cells == 2
        assert [r.to_dict() for r in second.records] == [r.to_dict() for r in first.records]

    def test_cell_error_becomes_typed_record(self):
        plan = FaultPlan.parse("cell-error:at=0")
        with plan.installed():
            result = run_grid(session=ExperimentSession(), **GRID_KWARGS)
        errors = result.errors
        assert len(errors) == 1
        assert errors[0].status == "error"
        assert errors[0].experiment == "error"
        assert InjectedFault.__name__ in errors[0].note
        assert "InjectedFault" in errors[0].params["traceback"]
        # the grid kept going: the second scheme's cell is complete
        assert any(r.status == "ok" and r.scheme == "greedy" for r in result.records)

    def test_errored_cells_are_journaled_and_replayed(self, tmp_path, frozen_clock):
        journal_path = tmp_path / "journal.jsonl"
        plan = FaultPlan.parse("cell-error:at=0")
        with plan.installed():
            first = run_grid(session=ExperimentSession(), resume=journal_path, **GRID_KWARGS)
        assert len(first.errors) == 1
        replay = run_grid(session=ExperimentSession(), resume=journal_path, **GRID_KWARGS)
        assert replay.resumed_cells == 2
        assert [r.to_dict() for r in replay.records] == [r.to_dict() for r in first.records]

    def test_deadline_stops_between_cells(self):
        result = run_grid(session=ExperimentSession(), deadline=Budget(1), **GRID_KWARGS)
        assert not result.exhaustive
        # exactly the first cell's records are present
        assert {record.scheme for record in result.records} == {"arborescence"}

    def test_session_deadline_keyword_is_removed(self):
        # one knob: the grid's deadline is run_grid(deadline=)
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            ExperimentSession(deadline=Budget(1))

    def test_expired_deadline_yields_empty_grid(self):
        result = run_grid(session=ExperimentSession(), deadline=Deadline(0.0), **GRID_KWARGS)
        assert result.records == []
        assert not result.exhaustive


class TestParallelGrid:
    """``run_grid`` on a ``processes>1`` session: warm-worker fan-out
    whose stitched output is byte-identical to a serial run."""

    def test_parallel_records_equal_serial(self, frozen_clock):
        serial = run_grid(session=ExperimentSession(), **GRID_KWARGS)
        par = run_grid(session=ExperimentSession(processes=2), **GRID_KWARGS)
        assert [r.to_dict() for r in par.records] == [r.to_dict() for r in serial.records]
        assert par.exhaustive and par.skipped == serial.skipped

    def test_parallel_store_is_byte_identical(self, tmp_path, frozen_clock):
        serial_store = ResultStore(tmp_path / "serial.json")
        parallel_store = ResultStore(tmp_path / "parallel.json")
        run_grid(session=ExperimentSession(), store=serial_store, **GRID_KWARGS)
        run_grid(session=ExperimentSession(processes=2), store=parallel_store, **GRID_KWARGS)
        assert serial_store.path.read_bytes() == parallel_store.path.read_bytes()

    def test_parent_decided_cell_error_fires_in_parallel_grid(self):
        # per-cell fault decisions belong to the parent process: it
        # decides them and builds the error record in place of the
        # worker's output
        plan = FaultPlan.parse("cell-error:at=0")
        with plan.installed():
            result = run_grid(session=ExperimentSession(processes=2), **GRID_KWARGS)
        assert len(result.errors) == 1
        assert result.errors[0].scheme == "arborescence"
        assert any(r.status == "ok" and r.scheme == "greedy" for r in result.records)

    def test_worker_crash_fires_in_the_cell_fanout(self, frozen_clock):
        kwargs = dict(GRID_KWARGS, metrics=("table_space",))
        spec = "worker-crash:at=0;cell-error:at=1"
        with FaultPlan.parse(spec).installed():
            serial = run_grid(session=ExperimentSession(), **kwargs)
        telemetry = obs.Telemetry()
        with obs.installed(telemetry), FaultPlan.parse(spec).installed():
            parallel = run_grid(session=ExperimentSession(processes=2), **kwargs)
        assert telemetry.registry.value("repro_faults_fired_total", kind="worker-crash") == 1
        assert telemetry.registry.value("repro_faults_fired_total", kind="cell-error") == 1
        assert [r.to_dict() for r in parallel.records] == [r.to_dict() for r in serial.records]
        assert [r.scheme for r in serial.errors] == ["greedy"]

    def test_parallel_replays_a_serial_journal(self, tmp_path, frozen_clock):
        journal_path = tmp_path / "journal.jsonl"
        first = run_grid(session=ExperimentSession(), resume=journal_path, **GRID_KWARGS)
        replay = run_grid(
            session=ExperimentSession(processes=2), resume=journal_path, **GRID_KWARGS
        )
        assert replay.resumed_cells == 2
        assert [r.to_dict() for r in replay.records] == [r.to_dict() for r in first.records]

    def test_serial_replays_a_parallel_journal(self, tmp_path, frozen_clock):
        journal_path = tmp_path / "journal.jsonl"
        first = run_grid(
            session=ExperimentSession(processes=2), resume=journal_path, **GRID_KWARGS
        )
        replay = run_grid(session=ExperimentSession(), resume=journal_path, **GRID_KWARGS)
        assert replay.resumed_cells == 2
        assert [r.to_dict() for r in replay.records] == [r.to_dict() for r in first.records]

    def test_budget_truncates_the_stitched_grid(self):
        result = run_grid(
            session=ExperimentSession(processes=2), deadline=Budget(1), **GRID_KWARGS
        )
        assert not result.exhaustive
        assert {record.scheme for record in result.records} == {"arborescence"}

    def test_deadline_ends_a_wedged_cell_worker(self, tmp_path):
        # a worker checks the deadline only as it starts a cell: past the
        # deadline and a grace the fan-out abandons the wedged worker, and
        # its cell counts as not started, so the grid stops before it
        journal_path = tmp_path / "journal.jsonl"
        store = ResultStore(tmp_path / "store.json")
        kwargs = dict(GRID_KWARGS, schemes=["arborescence", "greedy", "distance2"])
        start = time.monotonic()
        with FaultPlan.parse("slow-chunk:at=1,seconds=30").installed():
            result = run_grid(
                session=ExperimentSession(processes=2), deadline=Deadline(1),
                resume=journal_path, store=store, **kwargs,
            )
        assert time.monotonic() - start < 10  # never waited out the sleep
        assert not result.exhaustive
        # the slowed cell is greedy's: published, journaled and stored nowhere
        assert {record.scheme for record in result.records} == {"arborescence"}
        assert {record.scheme for record in store.load_records()} == {"arborescence"}
        assert len(CellJournal(journal_path)) == 1

    def test_progress_heartbeat_fires_per_cell(self):
        beats = []
        run_grid(
            session=ExperimentSession(processes=2), progress=beats.append, **GRID_KWARGS
        )
        assert len(beats) == 2
        assert beats[-1]["done"] == 2 and beats[-1]["total"] == 2

    @staticmethod
    def _outcome(result):
        return (
            [record.to_dict() for record in result.records],
            result.skipped,
            result.exhaustive,
            result.resumed_cells,
        )

    def test_expired_deadline_stops_before_replayed_cells(self, tmp_path, frozen_clock):
        # a journaled cell is still a cell: the deadline is checked before it
        journal_path = tmp_path / "journal.jsonl"
        run_grid(session=ExperimentSession(), resume=journal_path, **GRID_KWARGS)
        serial = run_grid(
            session=ExperimentSession(), resume=journal_path, deadline=Deadline(0.0),
            **GRID_KWARGS,
        )
        parallel = run_grid(
            session=ExperimentSession(processes=2), resume=journal_path,
            deadline=Deadline(0.0), **GRID_KWARGS,
        )
        assert self._outcome(parallel) == self._outcome(serial)
        assert serial.records == [] and not serial.exhaustive

    def test_spent_budget_keeps_trailing_skip_records(self, frozen_clock):
        # skip records are not cells: a budget spent by the last computed
        # cell still publishes the inapplicable scheme after it
        kwargs = dict(GRID_KWARGS, topologies=["complete(6)"], schemes=["greedy", "tour"])
        serial = run_grid(session=ExperimentSession(), deadline=Budget(1), **kwargs)
        parallel = run_grid(
            session=ExperimentSession(processes=2), deadline=Budget(1), **kwargs
        )
        assert self._outcome(parallel) == self._outcome(serial)
        assert serial.exhaustive
        assert [r.scheme for r in serial.records if r.status == "skipped"] == ["tour"]

    def test_wall_clock_expiry_keeps_the_finished_cells(
        self, tmp_path, frozen_clock, monkeypatch
    ):
        # the wall clock runs out while the workers run: every cell a
        # worker finished is still published and journaled, so rerunning
        # with the journal always makes progress
        full = run_grid(session=ExperimentSession(), **GRID_KWARGS)
        marker = tmp_path / "expired"
        run_cell = runner._run_cell

        def run_cell_then_expire(*args, **kwargs):
            records = run_cell(*args, **kwargs)
            # only the first cell expires the clock: were the second cell
            # to expire it, its worker could finish before the first
            # cell's worker reads the clock, and then nothing is published
            if args[3].name == "arborescence":
                marker.touch()  # a file: the clock reads the same in every worker
            return records

        monkeypatch.setattr(runner, "_run_cell", run_cell_then_expire)
        deadline = Deadline(1.0, clock=lambda: 2.0 if marker.exists() else 0.0)
        journal_path = tmp_path / "journal.jsonl"
        cut = run_grid(
            session=ExperimentSession(processes=2), resume=journal_path, deadline=deadline,
            **GRID_KWARGS,
        )
        published = [record.to_dict() for record in cut.records]
        # the first cell always finishes; the second only if its worker
        # started it before the first finished
        assert "arborescence" in {record.scheme for record in cut.records}
        assert published == [record.to_dict() for record in full.records][: len(published)]
        finished = {record["scheme"] for record in published}
        assert len(CellJournal(journal_path)) == len(finished)
        assert cut.exhaustive == (finished == {"arborescence", "greedy"})
        rerun = run_grid(session=ExperimentSession(), resume=journal_path, **GRID_KWARGS)
        assert rerun.resumed_cells == len(finished)
        assert [record.to_dict() for record in rerun.records] == [
            record.to_dict() for record in full.records
        ]

    def test_a_cell_finishing_late_does_not_extend_the_hang_bound(self, tmp_path):
        # cell 0 lands just before the deadline while cell 1 is wedged:
        # the pool is still abandoned a grace past the deadline, not a
        # whole deadline after cell 0's result
        journal_path = tmp_path / "journal.jsonl"
        store = ResultStore(tmp_path / "store.json")
        kwargs = dict(GRID_KWARGS, schemes=["arborescence", "greedy", "distance2", "tour"])
        plan = FaultPlan.parse("slow-chunk:at=0,seconds=2.8;slow-chunk:at=1,seconds=60")
        start = time.monotonic()
        with plan.installed():
            result = run_grid(
                session=ExperimentSession(processes=2), deadline=Deadline(3),
                resume=journal_path, store=store, **kwargs,
            )
        assert time.monotonic() - start < 5.5
        assert not result.exhaustive
        # the wedged cell is greedy's: journaled and stored nowhere
        assert "greedy" not in {record.scheme for record in store.load_records()}
        journaled = journal_path.read_text().splitlines() if journal_path.exists() else []
        assert not any(json.loads(line)["key"].startswith("ring|greedy|") for line in journaled)


class TestLoadSweepDeadline:
    @pytest.mark.parametrize("backend", ["engine", "naive", "numpy"])
    def test_partial_prefix_matches_full_run(self, backend):
        from repro.experiments import resolve_topology, scheme
        from repro.failures import sample_failure_grid
        from repro.traffic import permutation

        if backend == "numpy":
            pytest.importorskip("numpy")
        graph = resolve_topology("grid(3, 3)")
        algorithm = scheme("arborescence").instantiate()
        demands = permutation(graph, seed=1)
        grid = sample_failure_grid(graph, [0, 1, 2], 2, seed=0)
        failure_sets = [failures for size in sorted(grid) for failures in grid[size]]
        engine = ExperimentSession(backend=backend).traffic_engine(graph, algorithm)
        full = engine.load_sweep(demands, failure_sets)
        partial = engine.load_sweep(demands, failure_sets, deadline=Budget(3))
        assert len(partial) == 3
        for cut, complete in zip(partial, full):
            assert cut.loads == complete.loads
        assert engine.load_sweep(demands, failure_sets, deadline=Deadline(0.0)) == []
