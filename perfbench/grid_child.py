"""One cold grid run in a fresh interpreter, as ``repro experiments`` pays it.

    python3 perfbench/grid_child.py WORKLOAD INPUT_SEED WORK_DIR [--trace]
        [--backend naive] [--setup-only]

Imports the package, resolves topologies and parses failure models (the
set-up the parent times, up to the monotonic instant ``run_grid`` is
entered), then runs ``run_grid`` with a ``ResultStore`` and a resume
journal in ``WORK_DIR``.  Prints one JSON line: the entry instant, the
``run_grid`` wall time, peak RSS, and per cell its record digest and
latency.  ``--trace`` installs the layer wrappers and an
``obs.Telemetry`` first and adds the per-layer metrics; ``--setup-only``
prints the entry instant and exits before ``run_grid``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from common import GRID_WORKLOADS, digest, group_cells  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(GRID_WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("work_dir")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--backend", default=None, help="override (reference runs)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    spec = GRID_WORKLOADS[args.workload]

    clock = None
    if args.trace:
        import layers

        clock = layers.install()
    from repro import obs
    from repro.experiments import ExperimentSession, ResultStore, registry
    from repro.failures import parse_failure_model

    # attribute lookups at call time: these are the wrapped layers when traced
    topologies = [(name, registry.resolve_topology(name)) for name in spec["topologies"]]
    models = [parse_failure_model(m.format(seed=args.seed)) for m in spec["models"]]
    session = ExperimentSession(backend=args.backend or spec["backend"])
    work = pathlib.Path(args.work_dir)
    store = ResultStore(work / "store.json")
    journal = work / "journal.jsonl"
    telemetry = obs.Telemetry() if args.trace else None

    import repro.experiments as experiments

    entered = time.monotonic()
    if args.setup_only:
        print(json.dumps({"entered": entered}))
        return 0
    start = time.perf_counter()
    with obs.installed(telemetry) if telemetry is not None else contextlib.nullcontext():
        result = experiments.run_grid(
            topologies, spec["schemes"], failure_models=models, matrix_seed=args.seed,
            session=session, store=store, resume=journal,
        )
    wall = time.perf_counter() - start

    cells = {}
    for key, records in group_cells([r.to_dict() for r in result.records]).items():
        computed = [r for r in records if r["status"] != "skipped"]
        # records compare without their wall-clock field
        timeless = [dict(r, runtime_seconds=0.0) for r in records]
        cells[key] = {
            "digest": digest(timeless),
            # for cells whose reference pins every field but the notes
            "note_free_digest": digest([dict(r, note="") for r in timeless]),
            "errors": sum(r["status"] == "error" for r in records),
            "seconds": sum(r["runtime_seconds"] for r in computed) if computed else None,
        }
    out = {
        "entered": entered,
        "wall_s": wall,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cells": cells,
    }
    if clock is not None:
        import layers

        out["layers"] = layers.layer_metrics(
            clock, telemetry.registry.snapshot(), dict(session.stats)
        )
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
