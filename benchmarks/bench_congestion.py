"""Congestion benchmark: batched multi-flow router vs per-packet routing.

The traffic subsystem's pitch is that routing a whole matrix through a
static pattern costs one functional-graph pass per failure mask instead
of one simulated walk per flow.  This benchmark measures that on the
2021 congestion paper's setting — ``fat_tree(4)`` under incast
(all-to-one) and permutation matrices across a sampled failure grid —
and verifies, per scenario, that both routers report *identical* link
loads (the benchmark doubles as a large differential test).

Results merge into ``BENCH_engine.json`` under the ``congestion`` key
(the engine-speedup benchmark owns the other keys).  Runnable
standalone::

    PYTHONPATH=src python benchmarks/bench_congestion.py [--quick]
"""

from __future__ import annotations

import os
import time

from bench_engine_speedup import BENCH_JSON, bench_store

from repro.analysis import simple_table
from repro.experiments import ExperimentRecord, FailureModel, scheme, topology
from repro.traffic import (
    TrafficEngine,
    all_to_one,
    per_packet_loads,
    permutation,
    sample_failure_grid,
)

#: the batched router must never be slower than per-packet routing
MIN_SPEEDUP = 1.0


def run_benchmark(quick: bool = False, deadline_seconds: float | None = None) -> dict:
    # resolved via the topology registry — no private family switch here
    graph = topology("fattree").build(4)
    sink = ("core", 0)
    matrices = {
        "all-to-one(core0)": all_to_one(graph, sink),
        "permutation": permutation(graph, seed=1),
    }
    sizes = [0, 2] if quick else [0, 1, 2, 4, 8]
    samples = 3 if quick else 25
    grid = sample_failure_grid(graph, sizes, samples, seed=0)
    scenario_sets = [failures for size in sorted(grid) for failures in grid[size]]

    from repro.runtime import Deadline

    deadline = Deadline(deadline_seconds) if deadline_seconds is not None else None
    partial = False
    algorithm = scheme("arborescence").instantiate()
    workloads = {}
    for name, demands in matrices.items():
        engine = TrafficEngine(graph, algorithm)
        start = time.perf_counter()
        # load_sweep is exactly the per-failure-set engine.load loop,
        # plus the clean deadline cut between sets
        batched = engine.load_sweep(demands, scenario_sets, deadline=deadline)
        batched_seconds = time.perf_counter() - start
        # a deadline cut yields a prefix; compare routers on what ran
        covered = scenario_sets[: len(batched)]
        if len(covered) < len(scenario_sets):
            partial = True
        if not covered:
            workloads[name] = {"partial": True, "scenarios": 0}
            continue
        # telemetry-on rerun of the batched sweep: identical loads, and
        # the overhead ratio is tracked in BENCH_engine.json
        from repro import obs

        telemetry = obs.Telemetry()  # metrics registry, no trace file
        with obs.installed(telemetry):
            start = time.perf_counter()
            instrumented = TrafficEngine(graph, algorithm).load_sweep(demands, covered)
            telemetry_seconds = time.perf_counter() - start
        for fast, slow in zip(instrumented, batched):
            assert fast.loads == slow.loads, "telemetry changed batched loads"
        assert telemetry.registry.value("repro_traffic_load_reports_total") == len(covered)
        start = time.perf_counter()
        naive = [
            per_packet_loads(graph, algorithm, demands, failures)
            for failures in covered
        ]
        per_packet_seconds = time.perf_counter() - start
        for fast, slow in zip(batched, naive):
            assert fast.loads == slow.loads, "batched router diverged from per-packet loads"
        workloads[name] = {
            "demands": len(demands),
            "scenarios": len(covered),
            "flows_routed": len(demands) * len(covered),
            "per_packet_seconds": per_packet_seconds,
            "batched_seconds": batched_seconds,
            "speedup": per_packet_seconds / batched_seconds,
            "telemetry_seconds": telemetry_seconds,
            "telemetry_overhead": telemetry_seconds / batched_seconds,
            "worst_max_load": max(report.max_load for report in batched),
            "min_delivered_fraction": min(report.delivered_fraction for report in batched),
        }
        if len(covered) < len(scenario_sets):
            workloads[name]["partial"] = True
    results = {
        "benchmark": "congestion",
        "graph": "fattree(4)",
        "algorithm": algorithm.name,
        "cpu_count": os.cpu_count(),
        "thresholds": {"min_speedup": MIN_SPEEDUP},
        "workloads": workloads,
    }
    if partial:
        results["partial"] = True
    if not quick and partial:
        # deadline-cut numbers are not comparable across runs: report
        # them, but never merge them over the tracked full-run results
        print("deadline cut the sweep: partial results, skipping BENCH merge")
    if not quick and not partial:
        store = bench_store()
        store.merge_raw({"congestion": results})
        store.merge(
            [
                ExperimentRecord(
                    experiment="bench_congestion",
                    topology="fattree(4)",
                    scheme="arborescence",
                    # shared label source: merge identity must match grid records
                    failure_model=FailureModel(sizes=tuple(sizes), samples=samples, seed=0).label,
                    metrics={
                        "speedup": data["speedup"],
                        "per_packet_seconds": data["per_packet_seconds"],
                        "batched_seconds": data["batched_seconds"],
                        "telemetry_seconds": data["telemetry_seconds"],
                        "telemetry_overhead": data["telemetry_overhead"],
                        "flows_routed": data["flows_routed"],
                        "worst_max_load": data["worst_max_load"],
                    },
                    params={"matrix": name},
                    runtime_seconds=data["per_packet_seconds"] + data["batched_seconds"],
                )
                for name, data in workloads.items()
            ]
        )
    return results


def format_report(results: dict) -> str:
    rows = [
        [
            name,
            data.get("flows_routed", "-"),
            f"{data['per_packet_seconds']:.2f}" if "per_packet_seconds" in data else "-",
            f"{data['batched_seconds']:.2f}" if "batched_seconds" in data else "-",
            f"{data['speedup']:.1f}x" if "speedup" in data else "-",
            data.get("worst_max_load", "-"),
        ]
        for name, data in results["workloads"].items()
    ]
    return (
        f"Congestion: batched multi-flow router vs per-packet walks on {results['graph']}\n"
        f"(algorithm: {results['algorithm']}; loads verified identical per scenario)\n"
        + simple_table(
            ["matrix", "flows", "per-packet s", "batched s", "speedup", "worst max load"],
            rows,
        )
    )


def test_congestion_speedup(report):
    results = run_benchmark()
    report("congestion", format_report(results))
    for name, data in results["workloads"].items():
        assert data["speedup"] >= MIN_SPEEDUP, (name, data)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: fewer scenarios, no BENCH_engine.json write",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop the sweep cleanly after this many seconds; partial "
        "results are reported but never merged into BENCH_engine.json",
    )
    cli_args = parser.parse_args()
    results = run_benchmark(quick=cli_args.quick, deadline_seconds=cli_args.deadline)
    print(format_report(results))
    if not cli_args.quick and not results.get("partial"):
        print(f"machine-readable results: {BENCH_JSON}")
