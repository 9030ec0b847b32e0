"""Record the pinned references in ``reference-<workload>.json``.

    python3 perfbench/pin.py grid-mixed [--seeds 0-15]
    python3 perfbench/pin.py grid-arborescence [--seeds 0-3]
    python3 perfbench/pin.py serve-mix [--seeds 0-15]

Every reference is checked against the naive backend when it is
recorded, and a benchmark ``--seed`` selects one of the recorded input
seeds, so only naive-checked inputs are ever run.

* Grids: each seed runs once on the naive backend (the reference
  hop-by-hop paths; ~30 s per seed for ``grid-mixed``, ~13 minutes for
  ``grid-arborescence`` on a 2-core host) and once on the workload's
  backend, and every cell's record digest is pinned.  Where the two
  differ only in the records' ``note`` (the first counterexample a
  sampled estimate reports), the cell is listed under ``note_free`` and
  pinned without notes, so neither answer counts as a failure; any other
  difference stops the recording.
* ``serve-mix``: the request sequence is answered by an in-process
  ``QueryService`` and every answer is compared with the offline naive
  reference (naive resilience checkers for verdicts, ``per_packet_loads``
  for loads) before its digest is pinned.

Seeds are merged into an existing reference file, which is re-read
before each write, so several recordings may run side by side.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import GRID_WORKLOADS, INPUT_SEEDS, SRC, digest, reference_path

sys.path.insert(0, str(SRC))


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def _cells(workload: str, seed: int, backend: str) -> dict[str, dict]:
    from grids import run_child

    # naive arborescence runs take ~13 minutes: no child timeout here
    out = run_child(workload, seed, backend=backend, timeout=None)
    errors = [key for key, cell in out["cells"].items() if cell["errors"]]
    if errors:
        raise SystemExit(f"{workload} seed {seed} ({backend}): error cells {errors}")
    return out["cells"]


def pin_grid(workload: str, seed: int) -> tuple[dict[str, str], list[str]]:
    """(cell digests, cells pinned without notes) at one input seed."""
    naive = _cells(workload, seed, "naive")
    tested = _cells(workload, seed, GRID_WORKLOADS[workload]["backend"])
    if set(naive) != set(tested):
        raise SystemExit(f"{workload} seed {seed}: cell sets differ from naive")
    pinned, note_free = {}, []
    for key, cell in sorted(naive.items()):
        if tested[key]["digest"] == cell["digest"]:
            pinned[key] = cell["digest"]
        elif tested[key]["note_free_digest"] == cell["note_free_digest"]:
            pinned[key] = cell["note_free_digest"]
            note_free.append(key)
        else:
            raise SystemExit(f"{workload} seed {seed}: {key} differs from naive")
    return pinned, note_free


def naive_answer(op: str, params: dict):
    """The offline naive answer a serve reply's payload must equal."""
    from repro.core.model import DestinationAlgorithm
    from repro.core.resilience import (
        check_perfect_resilience_destination,
        check_perfect_resilience_source_destination,
    )
    from repro.experiments import naive_session
    from repro.experiments.registry import resolve_topology, scheme
    from repro.serve.protocol import failure_sets_from_json
    from repro.serve.service import serialize_report
    from repro.traffic.load import per_packet_loads
    from repro.traffic.matrices import build_named_matrix

    graph = resolve_topology(params["topology"])
    algorithm = scheme(params["scheme"]).instantiate()
    sets = failure_sets_from_json(params["failure_sets"])
    if op == "load":
        demands, _ = build_named_matrix(graph, params["matrix"], seed=params["matrix_seed"])
        return [
            serialize_report(per_packet_loads(graph, algorithm, demands, failures), failures)
            for failures in sets
        ]
    destination = params["destination"]
    if isinstance(algorithm, DestinationAlgorithm):
        verdict = check_perfect_resilience_destination(
            graph, algorithm, destinations=[destination], failure_sets=sets,
            session=naive_session(),
        )
    else:
        pairs = [(source, destination) for source in graph.nodes if source != destination]
        verdict = check_perfect_resilience_source_destination(
            graph, algorithm, pairs=pairs, failure_sets=sets, session=naive_session()
        )
    return {
        "resilient": verdict.resilient,
        "scenarios_checked": verdict.scenarios_checked,
        "exhaustive": verdict.exhaustive,
        "counterexample": str(verdict.counterexample) if verdict.counterexample else None,
    }


def pin_serve(seed: int) -> dict[str, list[str]]:
    """Answer digests per request phase at one input seed."""
    import serve_mix

    inputs = serve_mix.make_inputs(seed)
    answers = serve_mix.replay(inputs)["answers"]
    pinned = {}
    for phase, requests in serve_mix.phases(inputs).items():
        for index, ((op, params), answer) in enumerate(zip(requests, answers[phase])):
            got = answer["verdict"] if op == "verdict" else answer["reports"]
            if got != naive_answer(op, params):
                raise SystemExit(f"serve-mix seed {seed}: {phase}[{index}] differs from naive")
        pinned[phase] = [digest(answer) for answer in answers[phase]]
    return pinned


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=["grid-mixed", "grid-arborescence", "serve-mix"])
    parser.add_argument("--seeds", default=f"0-{INPUT_SEEDS - 1}")
    args = parser.parse_args()

    path = reference_path(args.workload)
    for seed in parse_seeds(args.seeds):
        if args.workload == "serve-mix":
            answers, note_free = pin_serve(seed), None
        else:
            answers, note_free = pin_grid(args.workload, seed)
        entry = (
            json.loads(path.read_text())
            if path.exists()
            else {"workload": args.workload, "reference_backend": "naive", "cells": {}}
        )
        entry["cells"][str(seed)] = answers
        entry["cells"] = dict(sorted(entry["cells"].items(), key=lambda kv: int(kv[0])))
        if note_free:
            entry.setdefault("note_free", {})[str(seed)] = note_free
        path.write_text(json.dumps(entry, indent=1) + "\n")
        print(f"{args.workload} seed {seed}: pinned, note-free cells {note_free or []}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
