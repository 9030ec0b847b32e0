"""The telemetry layer: metrics registry, span traces, stats reports,
and the hard guarantee that telemetry never changes experiment output."""

import json

import pytest

from repro import obs
from repro.core.algorithms import ArborescenceRouting
from repro.core.engine.sweep import parallel_map
from repro.experiments import (
    ExperimentSession,
    run_grid,
)
from repro.failures import RandomGridModel, sample_failure_grid
from repro.graphs.construct import fat_tree
from repro.obs import (
    MetricsRegistry,
    Telemetry,
    TraceError,
    TraceWriter,
    diff_snapshots,
    read_trace,
    validate_trace,
)
from repro.obs.stats import render_metrics_report, render_trace_report, sniff_kind
from repro.traffic import TrafficEngine, permutation


class TestMetricsRegistry:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        registry.count("walks_total", kind="route")
        registry.count("walks_total", 2, kind="route")
        registry.count("walks_total", kind="tour")
        assert registry.value("walks_total", kind="route") == 3
        assert registry.value("walks_total", kind="tour") == 1
        assert registry.value("walks_total", kind="covers") == 0

    def test_counters_only_go_up(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.count("walks_total", -1)

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.count("x_total")
        with pytest.raises(ValueError):
            registry.set_gauge("x_total", 3)

    def test_gauge_max_keeps_high_water_mark(self):
        registry = MetricsRegistry()
        registry.gauge_max("table_entries_max", 10)
        registry.gauge_max("table_entries_max", 4)
        registry.gauge_max("table_entries_max", 17)
        assert registry.value("table_entries_max") == 17

    def test_snapshot_is_canonical(self):
        """Two registries fed the same events in different orders
        serialize byte-identically — the merge workflow's foundation."""
        a, b = MetricsRegistry(), MetricsRegistry()
        a.count("w_total", kind="route")
        a.count("w_total", kind="tour")
        a.observe("s_seconds", 0.2)
        b.observe("s_seconds", 0.2)
        b.count("w_total", kind="tour")
        b.count("w_total", kind="route")
        assert json.dumps(a.snapshot(), sort_keys=True) == json.dumps(
            b.snapshot(), sort_keys=True
        )

    def test_merge_adds_counters_and_histograms_maxes_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.count("w_total", 2)
        b.count("w_total", 3)
        a.gauge_max("hwm", 10)
        b.gauge_max("hwm", 7)
        a.observe("d_seconds", 0.002)
        b.observe("d_seconds", 0.2)
        a.merge(b.snapshot())
        assert a.value("w_total") == 5
        assert a.value("hwm") == 10
        state = a._families["d_seconds"].samples[()]
        assert state[2] == 2  # observation count
        assert state[1] == pytest.approx(0.202)

    def test_diff_drops_unchanged_and_subtracts(self):
        registry = MetricsRegistry()
        registry.count("before_total", 5)
        before = registry.snapshot()
        registry.count("after_total", 2)
        registry.count("before_total", 0)  # touched but unchanged
        delta = diff_snapshots(before, registry.snapshot())
        assert "before_total" not in delta["families"]
        assert delta["families"]["after_total"]["samples"][0]["value"] == 2

    def test_worker_delta_round_trip(self):
        """snapshot -> work -> diff -> merge equals doing the work locally."""
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.count("w_total", 1)
        worker.count("w_total", 1)  # forked state matches the parent
        entry = worker.snapshot()
        worker.count("w_total", 4)
        worker.observe("d_seconds", 0.01)
        parent.merge(diff_snapshots(entry, worker.snapshot()))
        assert parent.value("w_total") == 5

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.count("w_total", 2, help="walks", kind="route")
        registry.observe("d_seconds", 0.003, help="durations")
        text = registry.render_prometheus()
        assert "# HELP w_total walks" in text
        assert "# TYPE w_total counter" in text
        assert 'w_total{kind="route"} 2' in text
        assert 'd_seconds_bucket{le="0.005"} 1' in text
        assert 'd_seconds_bucket{le="+Inf"} 1' in text
        assert "d_seconds_count 1" in text

    def test_snapshot_file_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.count("w_total", 3, kind="route")
        path = tmp_path / "metrics.json"
        registry.write_snapshot(path)
        other = MetricsRegistry()
        other.merge(obs.load_snapshot(path))
        assert other.value("w_total", kind="route") == 3


class TestTraceWriter:
    def test_nested_spans_validate(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path) as trace:
            with trace.span("outer", cells=2):
                with trace.span("inner"):
                    trace.point("fault_fired", kind="cell-error")
        events = validate_trace(path)
        kinds = [event["event"] for event in events]
        assert kinds == ["start", "start", "point", "end", "end"]
        inner_start = events[1]
        assert inner_start["parent"] == events[0]["span"]
        assert events[2]["parent"] == inner_start["span"]
        assert events[3]["dur"] >= 0

    def test_close_ends_dangling_spans(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace = TraceWriter(path)
        trace.start("never_ended")
        trace.close()
        assert validate_trace(path)[-1]["event"] == "end"

    def test_exception_in_span_recorded(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path) as trace:
            with pytest.raises(RuntimeError):
                with trace.span("doomed"):
                    raise RuntimeError("boom")
        end = validate_trace(path)[-1]
        assert end["attrs"]["error"] == "RuntimeError"

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path) as trace:
            with trace.span("whole"):
                pass
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "start", "span": 99')  # no newline
        assert len(read_trace(path)) == 2
        assert len(validate_trace(path)) == 2

    def test_forked_child_never_writes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace = TraceWriter(path)
        trace._pid = trace._pid + 1  # simulate being a forked child
        trace.start("child_span")
        trace.end()
        trace.close()
        assert read_trace(path) == []

    def test_unbalanced_trace_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps(
                {"event": "start", "span": 1, "parent": None, "name": "x", "t": 0.0, "attrs": {}}
            )
            + "\n"
        )
        with pytest.raises(TraceError):
            validate_trace(path)

    def test_bad_parent_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        lines = [
            {"event": "start", "span": 1, "parent": None, "name": "a", "t": 0.0, "attrs": {}},
            {"event": "start", "span": 2, "parent": 7, "name": "b", "t": 0.1, "attrs": {}},
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(TraceError):
            validate_trace(path)


class TestActivation:
    def test_off_by_default(self):
        assert obs.active() is None

    def test_installed_nests_and_restores(self):
        outer, inner = Telemetry(), Telemetry()
        with obs.installed(outer):
            assert obs.active() is outer
            with obs.installed(inner):
                assert obs.active() is inner
            assert obs.active() is outer
        assert obs.active() is None

    def test_module_span_and_point_are_noops_when_off(self):
        with obs.span("nothing"):
            obs.point("nothing_happened")

    def test_telemetry_without_trace_spans_are_noops(self):
        telemetry = Telemetry()
        with obs.installed(telemetry):
            with obs.span("no_trace_configured"):
                obs.point("still_fine")
        assert telemetry.registry is not None
        assert telemetry.trace is None


class TestStatsReports:
    def test_trace_report_aggregates_self_time(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path) as trace:
            with trace.span("cell"):
                with trace.span("sweep"):
                    pass
                trace.point("fault_fired")
        report = render_trace_report(path)
        assert "cell" in report and "sweep" in report
        assert "fault_fired" in report
        assert sniff_kind(path) == "trace"

    def test_metrics_report_derives_hit_rates(self, tmp_path):
        registry = MetricsRegistry()
        registry.count("repro_engine_memo_hits_total", 3)
        registry.count("repro_engine_memo_misses_total", 1)
        path = tmp_path / "metrics.json"
        registry.write_snapshot(path)
        assert sniff_kind(path) == "metrics"
        report = render_metrics_report(path)
        assert "memo table: 75.0% hit rate" in report


def _grid_kwargs():
    return dict(
        schemes=["distance2", "greedy"],
        failure_models=[RandomGridModel(sizes=(0, 1), samples=2, seed=0)],
        matrix="permutation",
        matrix_seed=0,
    )


def _normalized(records):
    """Record dicts with wall-clock noise zeroed — the byte-identity view."""
    out = []
    for record in records:
        data = record.to_dict()
        data["runtime_seconds"] = 0.0
        out.append(data)
    return json.dumps(out, sort_keys=True)


class TestTelemetryNeverChangesResults:
    """The tentpole's hard constraint: telemetry on == telemetry off."""

    def test_grid_output_byte_identical_with_telemetry_on(self, tmp_path):
        plain = run_grid(["ring"], session=ExperimentSession(), **_grid_kwargs())
        telemetry = Telemetry(trace_path=tmp_path / "t.jsonl")
        with obs.installed(telemetry):
            traced = run_grid(["ring"], session=ExperimentSession(), **_grid_kwargs())
        telemetry.close()
        assert _normalized(plain.records) == _normalized(traced.records)
        # and the trace is schema-valid, with the expected span levels
        names = {event["name"] for event in validate_trace(tmp_path / "t.jsonl")}
        assert "grid_cell" in names
        assert "sweep_resilience" in names
        # records never carry telemetry (the field is for sidecar writers)
        assert all(record.telemetry == {} for record in traced.records)

    def test_load_sweep_reports_identical_with_telemetry_on(self):
        graph = fat_tree(4)
        demands = permutation(graph, seed=1)
        grid = sample_failure_grid(graph, [0, 2], 3, seed=0)
        sets = [failures for size in sorted(grid) for failures in grid[size]]
        plain = TrafficEngine(graph, ArborescenceRouting()).load_sweep(demands, sets)
        telemetry = Telemetry()
        with obs.installed(telemetry):
            traced = TrafficEngine(graph, ArborescenceRouting()).load_sweep(demands, sets)
        assert traced == plain
        assert telemetry.registry.value("repro_traffic_load_reports_total") == len(sets)

    def test_worker_merged_counters_equal_serial(self):
        """parallel_map workers ship registry deltas that merge to the
        exact counters a serial run produces."""

        def task(n):
            telemetry = obs.active()
            telemetry.count("task_units_total", n)
            telemetry.observe("task_seconds", 0.01 * n)
            return n * n

        items = list(range(1, 9))
        serial_telemetry = Telemetry()
        with obs.installed(serial_telemetry):
            serial_out = parallel_map(task, items, processes=1)
        forked_telemetry = Telemetry()
        with obs.installed(forked_telemetry):
            forked_out = parallel_map(task, items, processes=3)
        assert sorted(serial_out) == sorted(forked_out)
        serial, forked = serial_telemetry.registry, forked_telemetry.registry
        assert serial.value("task_units_total") == sum(items)
        assert forked.value("task_units_total") == sum(items)
        serial_hist = serial._families["task_seconds"].samples[()]
        forked_hist = forked._families["task_seconds"].samples[()]
        assert serial_hist[0] == forked_hist[0]  # identical bucket counts
        assert serial_hist[2] == forked_hist[2] == len(items)


class TestProgressHeartbeat:
    def test_heartbeat_reports_done_total_and_errors(self):
        beats = []
        result = run_grid(
            ["ring"],
            session=ExperimentSession(),
            progress=beats.append,
            **_grid_kwargs(),
        )
        # ring x (distance2, greedy) x one failure model = 2 cells
        computed = 2
        assert result.resumed_cells == 0 and not result.skipped
        assert len(beats) == computed
        assert [beat["done"] for beat in beats] == list(range(1, computed + 1))
        assert beats[-1]["done"] == beats[-1]["total"] == computed
        assert beats[-1]["errors"] == len(result.errors)
        assert beats[-1]["eta"] == pytest.approx(0.0)
        assert beats[-1]["elapsed"] > 0

    def test_heartbeat_never_touches_records(self):
        plain = run_grid(["ring"], session=ExperimentSession(), **_grid_kwargs())
        beaten = run_grid(
            ["ring"], session=ExperimentSession(), progress=lambda info: None, **_grid_kwargs()
        )
        assert _normalized(plain.records) == _normalized(beaten.records)
