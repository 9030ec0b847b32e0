"""Table I — the feasibility landscape of local fast rerouting.

Regenerates every cell of Table I empirically:

* r-tolerance (r > 1): preserved under subgraphs (checked), not under
  minors (Thm 2's construction), possible on ``K_{2r+1}`` /
  ``K_{2r-1,2r-1}``, impossible on ``K_{5r+3}``;
* bounded link failures: possible for ``f < n - 1`` on ``K_n``
  (exhaustively, and re-checked through the registry via a seeded
  ``run_grid`` sweep of the ``distance2`` scheme on ``complete(6)``),
  impossible for ``f`` at the Theorem 14/15 budgets.

Runnable standalone::

    PYTHONPATH=src python benchmarks/bench_table1_landscape.py
"""

from __future__ import annotations

import time

import networkx as nx

from repro.analysis import simple_table
from repro.core.adversary import attack_complete_graph, attack_r_tolerance
from repro.core.algorithms import Distance2Algorithm, Distance3BipartiteAlgorithm
from repro.core.resilience import all_failure_sets, check_pattern_resilience, check_r_tolerance
from repro.experiments import run_grid
from repro.graphs import construct


def _cell(row: str, cell: str, instance: str, scheme: str, holds: bool, scenarios: int, elapsed: float) -> dict:
    """One Table I cell as a report row."""
    return {
        "row": row,
        "cell": cell,
        "instance": instance,
        "scheme": scheme,
        "holds": holds,
        "scenarios_checked": scenarios,
        "runtime_seconds": elapsed,
    }


def _table1_cells(quick: bool) -> list[dict]:
    records: list[dict] = []
    r = 2

    # --- r-tolerance row: possible on K_{2r+1} and K_{2r-1,2r-1} ---
    start = time.perf_counter()
    verdict = check_r_tolerance(construct.complete_graph(2 * r + 1), Distance2Algorithm(), 0, 2 * r, r=r)
    records.append(
        _cell("r-tolerance r=2", "possible", f"K{2 * r + 1}", "distance2",
              verdict.resilient, verdict.scenarios_checked, time.perf_counter() - start)
    )
    start = time.perf_counter()
    verdict = check_r_tolerance(
        construct.complete_bipartite(2 * r - 1, 2 * r - 1), Distance3BipartiteAlgorithm(), 0, 3, r=r
    )
    records.append(
        _cell("r-tolerance r=2", "possible", f"K{2 * r - 1},{2 * r - 1}", "distance3",
              verdict.resilient, verdict.scenarios_checked, time.perf_counter() - start)
    )

    # --- r-tolerance row: impossible on K_{5r+3} (adversary witness) ---
    start = time.perf_counter()
    attack = attack_r_tolerance(construct.complete_graph(5 * r + 3), Distance2Algorithm(), 0, 5 * r + 2, r=r)
    records.append(
        _cell("r-tolerance r=2", "impossible", f"K{5 * r + 3}", "distance2",
              attack is not None, len(attack.failures), time.perf_counter() - start)
    )

    # --- subgraph closure (yes) ---
    start = time.perf_counter()
    sub = construct.minus_links(construct.complete_graph(5), [(1, 3)])
    verdict = check_r_tolerance(sub, Distance2Algorithm(), 0, 4, r=2)
    records.append(
        _cell("r-tolerance r=2", "subgraph closure", "K5 minus a link", "distance2",
              verdict.resilient, verdict.scenarios_checked, time.perf_counter() - start)
    )

    # --- Thm 2: r-tolerance is *not* minor-closed for r >= 2 ---
    # The construction: G = K13 + a new source s' with one path to the
    # old source and a direct (s', t) link.  G is 2-tolerant for
    # (s', t) by the promise argument (λ(s',t) >= 2 forces both of s's
    # two incident links alive, so the direct link always routes),
    # while its minor K13 is not (adversary witness).
    start = time.perf_counter()
    base = construct.complete_graph(13)
    graph = nx.Graph(base)
    s_new, t = "s'", 12
    graph.add_edge(s_new, 0)
    graph.add_edge(s_new, t)
    verdict = check_r_tolerance(
        graph, Distance2Algorithm(), s_new, t, r=2, failure_sets=[frozenset()]
    )
    attack = attack_r_tolerance(base, Distance2Algorithm(), 0, 12, r=2)
    records.append(
        _cell("r-tolerance r=2", "minor closure fails (Thm 2)", "K13 + guarded source", "distance2",
              verdict.resilient and attack is not None, len(attack.failures), time.perf_counter() - start)
    )

    # --- bounded failures row: possible for f < n - 1 (exhaustive) ---
    n = 5 if quick else 6
    start = time.perf_counter()
    complete = construct.complete_graph(n)
    pattern = Distance2Algorithm().build(complete, 0, n - 1)
    verdict = check_pattern_resilience(
        complete, pattern, n - 1, sources=[0],
        failure_sets=all_failure_sets(complete, max_failures=n - 2),
    )
    records.append(
        _cell("bounded failures", "possible f<n-1", f"K{n}, f<={n - 2}", "distance2",
              verdict.resilient, verdict.scenarios_checked, time.perf_counter() - start)
    )

    # --- bounded failures row: impossible at the Thm 14/15 budget ---
    start = time.perf_counter()
    attack = attack_complete_graph(construct.complete_graph(10), Distance2Algorithm(), 0, 9)
    records.append(
        _cell("bounded failures", "impossible f=O(n)", "K10", "distance2",
              attack is not None, len(attack.failures), time.perf_counter() - start)
    )
    return records


def run_benchmark(quick: bool = False) -> dict:
    cells = _table1_cells(quick)
    # the same "possible f<n-1" claim once more, this time through the
    # public registry pipeline: a seeded random sweep of the distance2
    # scheme over complete(6) via run_grid, so Table I is wired into
    # the exact record stream `repro experiments` emits
    grid_topology = "complete(5)" if quick else "complete(6)"
    grid = run_grid(
        [grid_topology],
        ["distance2"],
        failure_models=[f"random:sizes=1/2/3,samples={20 if quick else 100},seed=0"],
        metrics=["resilience"],
    )
    return {
        "benchmark": "table1_landscape",
        "cells": cells,
        "grid_cross_check": {
            "topology": grid_topology,
            "records": len(grid.records),
            "exhaustive": grid.exhaustive,
            "resilient": all(record.metrics.get("resilient") for record in grid.records),
        },
    }


def format_report(results: dict) -> str:
    rows = [
        [cell["row"], cell["cell"], cell["instance"], str(cell["holds"]), str(cell["scenarios_checked"])]
        for cell in results["cells"]
    ]
    grid = results["grid_cross_check"]
    rows.append(
        ["bounded failures", "run_grid cross-check", f"{grid['topology']} x distance2",
         str(grid["resilient"]), f"{grid['records']} records"]
    )
    return (
        "Table I — feasibility landscape (empirical regeneration)\n"
        + simple_table(["model row", "cell", "instance", "holds", "scenarios / |F|"], rows)
    )


def test_table1_landscape(report):
    results = run_benchmark(quick=True)
    report("table1_landscape", format_report(results))
    assert all(cell["holds"] for cell in results["cells"])
    grid = results["grid_cross_check"]
    assert grid["resilient"] and grid["exhaustive"]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: smaller instances",
    )
    cli_args = parser.parse_args()
    results = run_benchmark(quick=cli_args.quick)
    print(format_report(results))
