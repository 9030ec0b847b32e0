"""The repository's benchmark: four workloads through public entry points.

    python3 perfbench/run.py --workload grid-mixed --seed 0 --seconds 25 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics, measured with tracing off; ``--trace 1`` prints the per-layer
metrics of separate traced runs (see README.md beside this file).  Every
output is checked against a reference; the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The lines before it give the provenance and every metric with its unit
and sample count.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import (
    GRID_WORKLOADS,
    SRC,
    WORKLOADS,
    provenance,
    reference_path,
)

#: end-to-end metrics: (name, unit); every workload reports all of them
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
)

#: per-layer metrics: (name, unit, better); zero where a workload does
#: not reach the layer
PER_LAYER = (
    ("registry.resolve_s", "s", "lower"),
    ("algorithms.build_calls", "count", "lower"),
    ("algorithms.build_s", "s", "lower"),
    ("algorithms.builds_per_pattern", "ratio", "lower"),
    ("arborescences.pack_calls", "count", "lower"),
    ("arborescences.pack_s", "s", "lower"),
    ("arborescences.pack_share", "share", "lower"),
    ("connectivity.edge_connectivity_calls", "count", "lower"),
    ("connectivity.edge_connectivity_s", "s", "lower"),
    ("session.state_misses", "count", "lower"),
    ("session.traffic_hits", "count", "higher"),
    ("session.traffic_misses", "count", "lower"),
    ("engine.index_s", "s", "lower"),
    ("engine.sweep_calls", "count", "lower"),
    ("engine.sweep_s", "s", "lower"),
    ("engine.walks", "count", "lower"),
    ("engine.walk_steps", "count", "lower"),
    ("engine.memo_hit_ratio", "ratio", "higher"),
    ("engine.table_entries_max", "count", "lower"),
    ("resilience.check_calls", "count", "lower"),
    ("resilience.check_s", "s", "lower"),
    ("vectorized.chunks", "count", "lower"),
    ("vectorized.masks", "count", "lower"),
    ("vectorized.table_entries", "count", "lower"),
    ("vectorized.lane_steps", "count", "lower"),
    ("vectorized.fallbacks", "count", "lower"),
    ("traffic.load_sweep_calls", "count", "lower"),
    ("traffic.load_sweep_s", "s", "lower"),
    ("traffic.load_sweep_share", "share", "lower"),
    ("traffic.load_reports", "count", "lower"),
    ("estimate.resilience_s", "s", "lower"),
    ("estimate.congestion_s", "s", "lower"),
    ("estimate.samples", "count", "lower"),
    ("results.merge_calls", "count", "lower"),
    ("results.merge_s", "s", "lower"),
    ("results.merge_share", "share", "lower"),
    ("journal.appends", "count", "lower"),
    ("journal.append_s", "s", "lower"),
    ("runner.cell_s", "s", "lower"),
    ("runner.self_s", "s", "lower"),
    ("serve.compute_ms", "ms", "lower"),
    ("serve.overhead_ms", "ms", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.store_hit_ratio", "ratio", "higher"),
    ("serve.mask_memo_hit_ratio", "ratio", "higher"),
    ("client.import_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def _missing_program(workload: str) -> str | None:
    """Why the program under test cannot run here, or ``None``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no package source at {SRC / 'repro'}"
    name = GRID_WORKLOADS[workload]["reference"] if workload in GRID_WORKLOADS else workload
    if not reference_path(name).is_file():
        return f"missing pinned reference for {name}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = _missing_program(args.workload)
    if problem is not None:
        print(f"perfbench: cannot run: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    if args.workload in GRID_WORKLOADS:
        import grids

        result = grids.measure(args.workload, args.seed, args.seconds, trace)
    else:
        import serve_mix

        result = serve_mix.measure(args.seed, args.seconds, trace)

    if trace:
        values = {name: result["layers"].get(name, 0.0) for name, _, _ in PER_LAYER}
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = result["metrics"]
        units = dict(END_TO_END)
    correct = result["failed"] == 0 and all(
        value for value in result["checks"].values() if isinstance(value, bool)
    )
    report = {
        "provenance": provenance(args.workload, args.seed, trace),
        "input_seed": result["input_seed"],
        "samples": result["samples"],
        "failed_share": result["failed"] / result["attempted"],
        "checks": result["checks"],
        "details": result["details"],
    }
    print("result " + json.dumps(report, sort_keys=True))
    for name, value in values.items():
        print(f"  {args.workload:18} {name:38} {value:14.6g} {units[name]}")
    print(f"  {args.workload:18} {'failed_share':38} {report['failed_share']:14.6g} share")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
