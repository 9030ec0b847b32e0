"""The ``python -m repro`` command-line interface."""

import subprocess
import sys

import pytest

from repro.cli import main


def run_cli(*args):
    return main(list(args))


class TestClassify:
    def test_netrail(self, capsys):
        assert run_cli("classify", "netrail", "--budget", "50000") == 0
        out = capsys.readouterr().out
        assert "sometimes" in out

    def test_ring(self, capsys):
        assert run_cli("classify", "ring") == 0
        assert "possible" in capsys.readouterr().out

    def test_edge_list_file(self, tmp_path, capsys):
        path = tmp_path / "net.txt"
        path.write_text("# comment\n0 1\n1 2\n2 0\n")
        assert run_cli("classify", str(path)) == 0
        assert "outerplanar" in capsys.readouterr().out


class TestRoute:
    def test_k5_with_failures(self, capsys):
        assert run_cli("route", "k5", "0", "4", "--fail", "0-4", "1-4") == 0
        out = capsys.readouterr().out
        assert "delivered" in out

    def test_wheel_destination_routing(self, capsys):
        assert run_cli("route", "wheel", "1", "0") == 0
        assert "delivered" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "graph, source, destination, role",
        [
            ("ring(6)", "0", "99", "destination"),
            ("grid(3,3)", "0", "99", "destination"),
            ("ring(6)", "99", "3", "source"),
        ],
    )
    def test_node_outside_the_graph_exits_2(self, capsys, graph, source, destination, role):
        assert run_cli("route", graph, source, destination) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{role} 99 is not a node of {graph}\n"

    @pytest.mark.parametrize("link", ["01", "0-1-2", "-1"])
    def test_malformed_fail_link_exits_2(self, capsys, link):
        assert run_cli("route", "ring(6)", "0", "3", "--fail", link) == 2
        assert capsys.readouterr().err == f"invalid --fail: link {link!r} is not of the form u-v\n"

    def test_link_outside_the_graph_keeps_naive_semantics(self, capsys):
        assert run_cli("route", "ring(6)", "0", "3", "--fail", "0-9") == 0
        assert "delivered" in capsys.readouterr().out


class TestAttack:
    def test_k7(self, capsys):
        assert run_cli("attack", "k7", "k7") == 0
        out = capsys.readouterr().out
        assert "witness" in out

    def test_k44(self, capsys):
        assert run_cli("attack", "k44", "k44") == 0
        assert "witness" in capsys.readouterr().out

    def test_too_small_graph_reports(self, capsys):
        assert run_cli("attack", "rtolerance", "k7", "--r", "1") == 2
        assert "cannot attack" in capsys.readouterr().err


class TestTour:
    def test_fan(self, capsys):
        assert run_cli("tour", "fan", "--fail", "0-3") == 0
        assert "toured forever" in capsys.readouterr().out

    def test_k5_hamiltonian(self, capsys):
        assert run_cli("tour", "k5") == 0
        assert "Hamiltonian" in capsys.readouterr().out

    @pytest.mark.parametrize("link", ["01", "0-1-2"])
    def test_malformed_fail_link_exits_2(self, capsys, link):
        assert run_cli("tour", "ring(6)", "--fail", link) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid --fail: link {link!r} is not of the form u-v\n"

    def test_link_outside_the_graph_keeps_naive_semantics(self, capsys):
        assert run_cli("tour", "ring(6)", "--fail", "0-9") == 0
        assert "toured forever: [0, 1, 2, 3, 4, 5]" in capsys.readouterr().out


class TestZoo:
    def test_small_slice(self, capsys):
        assert run_cli("zoo", "--stride", "40", "--budget", "1000") == 0
        assert "Fig. 7" in capsys.readouterr().out


def test_module_entry_point():
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "classify", "ring"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0
    assert "possible" in completed.stdout


class TestTraffic:
    def test_fat_tree_sweep_end_to_end(self, capsys):
        assert run_cli("traffic", "fattree", "--failure-model", "random:sizes=0/2,samples=3") == 0
        out = capsys.readouterr().out
        assert "congestion sweep" in out
        assert "arborescence" in out
        assert "mean max load" in out

    def test_single_algorithm_with_attack(self, capsys):
        code = run_cli(
            "traffic", "ring", "--matrix", "all-to-one", "--algorithm", "greedy",
            "--failure-model", "random:sizes=0/1,samples=2", "--attack", "1",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "worst-case load attack" in out

    def test_attack_reuses_the_swept_patterns(self, monkeypatch, capsys):
        from repro.core.algorithms import arborescence_routing
        from repro.experiments import resolve_topology

        calls = []
        pack = arborescence_routing.arc_disjoint_in_arborescences

        def counted(graph, root, **kwargs):
            calls.append(root)
            return pack(graph, root, **kwargs)

        monkeypatch.setattr(arborescence_routing, "arc_disjoint_in_arborescences", counted)
        code = run_cli(
            "traffic", "grid(3,3)", "--algorithm", "arborescence",
            "--failure-model", "random:samples=2", "--attack", "1",
        )
        assert code == 0
        assert "worst-case load attack" in capsys.readouterr().out
        # one packing per destination, shared by the sweep and the attack
        assert sorted(calls) == sorted(resolve_topology("grid(3,3)").nodes)

    def test_has_no_backend_option(self, capsys):
        # loads run on the default engine session; the option is gone
        with pytest.raises(SystemExit) as info:
            run_cli("traffic", "ring(6)", "--backend", "numpy")
        assert info.value.code == 2
        assert "--backend" in capsys.readouterr().err
        with pytest.raises(SystemExit) as info:
            run_cli("traffic", "--help")
        assert info.value.code == 0
        assert "--backend" not in capsys.readouterr().out

    def test_unsupported_algorithm_reports(self, capsys):
        # fat-tree is not outerplanar, so the Cor-5 tour cannot build
        assert run_cli(
            "traffic", "fattree", "--algorithm", "tour", "--failure-model", "random:samples=2"
        ) == 2
        assert "cannot run" in capsys.readouterr().err

    def test_matrix_choices(self, capsys):
        for matrix in ("hotspot", "gravity", "all-to-all"):
            assert run_cli(
                "traffic", "hypercube", "--matrix", matrix, "--algorithm", "arborescence",
                "--failure-model", "random:sizes=0/1,samples=2",
            ) == 0
            assert "congestion sweep" in capsys.readouterr().out


@pytest.mark.parametrize("flag", [("--sizes", "0,1"), ("--samples", "2")], ids=["sizes", "samples"])
@pytest.mark.parametrize(
    "command",
    [("experiments",), ("traffic", "ring"), ("query", "verdict")],
    ids=["experiments", "traffic", "query"],
)
def test_removed_failure_flags_exit_2(command, flag, capsys):
    # a failure model is named only by --failure-model (or the default)
    with pytest.raises(SystemExit) as info:
        run_cli(*command, *flag)
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


class TestTelemetryCli:
    ARGS = (
        "experiments", "--topologies", "ring", "--schemes", "greedy",
        "--failure-model", "random:sizes=0/1,samples=2",
    )

    def test_trace_metrics_and_progress(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        code = run_cli(*self.ARGS, "--trace", str(trace), "--metrics", "--progress")
        assert code == 0
        captured = capsys.readouterr()
        assert "repro_grid_cells_total" in captured.out
        assert 'repro_engine_walks_total{kind="covers"}' in captured.out
        assert "[grid] 1/1 cells, 0 errors" in captured.err
        from repro.obs import validate_trace

        names = {event["name"] for event in validate_trace(trace)}
        assert "grid_cell" in names

    def test_stats_renders_trace_and_snapshot(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        snapshot = tmp_path / "m.json"
        assert run_cli(
            *self.ARGS, "--trace", str(trace), "--metrics-out", str(snapshot)
        ) == 0
        capsys.readouterr()
        assert run_cli("stats", str(trace)) == 0
        assert "grid_cell" in capsys.readouterr().out
        assert run_cli("stats", str(trace), "--validate") == 0
        assert "valid trace" in capsys.readouterr().out
        assert run_cli("stats", str(snapshot)) == 0
        assert "repro_grid_cells_total" in capsys.readouterr().out

    def test_stats_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"event": "end", "span": 1, "name": "x", "t": 0.0, "attrs": {}}\n')
        assert run_cli("stats", str(bad)) != 0
        assert capsys.readouterr().err

    def test_resume_reports_staleness(self, tmp_path, capsys):
        journal = tmp_path / "cells.jsonl"
        assert run_cli(*self.ARGS, "--resume", str(journal)) == 0
        capsys.readouterr()
        assert run_cli(*self.ARGS, "--resume", str(journal)) == 0
        captured = capsys.readouterr()
        assert "resuming from" in captured.err
        assert "journaled cells, newest" in captured.err
        assert "resumed 1 cells" in captured.out
