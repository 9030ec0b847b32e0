"""The three ``run_grid`` workloads: cold child processes, checked cells.

Each sample is one fresh interpreter (``grid_child.py``), so no
process-global cache carries work from one sample to the next.  The
parent times set-up as spawn -> ``run_grid`` entry and checks every
cell's record digest against the pinned reference in
``reference-<workload>.json``.  Set-up-only children, which exit at
``run_grid`` entry, add set-up samples.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from statistics import median

from common import (
    BENCH_DIR,
    SETUP_SHARE,
    child_env,
    collect,
    load_reference,
    make_work_dir,
    percentile,
    remove_work_dir,
)
from layers import traced_summary

#: a cold child may not take longer than this (seconds)
CHILD_TIMEOUT = 150


def run_child(
    workload: str,
    seed: int,
    trace: bool = False,
    backend: str | None = None,
    timeout: float | None = CHILD_TIMEOUT,
    setup_only: bool = False,
) -> dict:
    """One cold child; adds ``setup_s`` (spawn -> run_grid entry)."""
    work = make_work_dir()
    command = [sys.executable, str(BENCH_DIR / "grid_child.py"), workload, str(seed), str(work)]
    if trace:
        command.append("--trace")
    if backend is not None:
        command += ["--backend", backend]
    if setup_only:
        command.append("--setup-only")
    try:
        spawned = time.monotonic()
        done = subprocess.run(
            command,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"{workload} child exited {done.returncode}:\n{done.stderr[-2000:]}"
            )
        out = json.loads(done.stdout.strip().splitlines()[-1])
    finally:
        remove_work_dir(work)
    out["setup_s"] = out["entered"] - spawned
    return out


def check_cells(out: dict, reference: dict[str, str], note_free: list[str]) -> tuple[int, int]:
    """(cells attempted, cells failed) of one child against the reference."""
    extra = set(out["cells"]) - set(reference)
    wrong = 0
    for key, want in reference.items():
        cell = out["cells"].get(key)
        field = "note_free_digest" if key in note_free else "digest"
        wrong += cell is None or bool(cell["errors"]) or cell[field] != want
    return len(reference) + len(extra), wrong + len(extra)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run cold children for ``seconds``; returns metrics and checks."""
    pinned, reference, note_free = load_reference(workload, seed)
    # untraced samples fill the run, or half of it when traced ones follow;
    # a fifth of that goes to set-up-only starts
    budget = seconds / 2 if trace else seconds
    samples = collect(
        budget * (1 - SETUP_SHARE),
        lambda _: run_child(workload, pinned),
        lambda out: out["setup_s"] + out["wall_s"],
    )
    starts = collect(
        budget * SETUP_SHARE,
        lambda _: run_child(workload, pinned, setup_only=True),
        lambda out: out["setup_s"],
    )
    checked = [check_cells(out, reference, note_free) for out in samples]

    # every sample does the same work, and a shared host only ever slows
    # it down: times are the fastest of the run's samples (a cell's
    # latency its fastest, the percentiles over cells)
    per_cell: dict[str, list[float]] = {}
    for out in samples:
        for key, cell in out["cells"].items():
            if cell["seconds"] is not None:
                per_cell.setdefault(key, []).append(cell["seconds"] * 1000.0)
    cell_ms = [min(times) for times in per_cell.values()]
    setups = [s["setup_s"] for s in samples + starts]
    result = {
        "input_seed": pinned,
        "samples": len(samples),
        "attempted": sum(a for a, _ in checked),
        "failed": sum(f for _, f in checked),
        "metrics": {
            "setup_s": min(setups),
            "wall_s": min(s["wall_s"] for s in samples),
            "peak_rss_mb": median([s["rss_mb"] for s in samples]),
            "op_p50_ms": median(cell_ms),
            "op_p95_ms": percentile(cell_ms, 0.95),
        },
        "details": {
            "cells_per_sample": len(reference),
            "op_samples": len(cell_ms),
            "setup_samples": len(setups),
            "wall_s_samples": [s["wall_s"] for s in samples],
            "setup_s_samples": setups,
        },
        "checks": {},
    }
    if trace:
        traced = [run_child(workload, pinned, trace=True) for _ in range(2)]
        for attempted, failed in (check_cells(out, reference, note_free) for out in traced):
            result["attempted"] += attempted
            result["failed"] += failed
        first, second = (out["layers"] for out in traced)
        layers, mismatched = traced_summary(first, second, traced[0]["wall_s"])
        result["checks"]["count_determinism"] = not mismatched
        result["checks"]["count_mismatches"] = mismatched
        untraced = median(result["details"]["wall_s_samples"])
        layers["trace.overhead"] = traced[0]["wall_s"] / untraced
        result["layers"] = layers
    return result
