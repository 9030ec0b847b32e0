"""The *other* price of locality: congestion under simultaneous reroutes.

The DSN'22 paper prices locality in resilience and stretch; the
congestion line of work (Bankhamer, Elsässer, Schmid 2020/2021) asks
what happens to *link load* when many flows hit failures at once and
every switch reroutes with purely local rules.  This study reproduces
that setting on the 2021 paper's fabric of choice:

1. a ``fat_tree(4)`` carries a permutation matrix while random link
   failures grow — the comparison harness races the repo's algorithms
   (arborescence baseline, distance-2/3 exploration, naive greedy) on
   identical scenario grids;
2. an incast (all-to-one) matrix shows how failures concentrate load on
   the survivors around the sink;
3. a greedy adversary searches for the few failures that inflate the
   worst link load the most — the congestion analogue of the paper's
   resilience adversaries;
4. a ``hypercube(3)`` rerun shows the effect of a richer path diversity.

Run:  python examples/congestion_study.py
"""

from repro.experiments import resolve_topology, scheme
from repro.failures import RandomGridModel
from repro.traffic import (
    all_to_one,
    compare_congestion,
    congestion_table,
    greedy_congestion_attack,
    permutation,
)


def main() -> None:
    # topologies and schemes are resolved by registry name — the same
    # names the CLI and `repro.experiments.run_grid` use
    fabric = resolve_topology("fattree(4)")
    arborescence = scheme("arborescence")
    print(
        f"fat_tree(4): {fabric.number_of_nodes()} switches, "
        f"{fabric.number_of_edges()} links"
    )

    # --- 1. permutation traffic vs growing random failures -------------
    demands = permutation(fabric, seed=1)
    result = compare_congestion(
        fabric,
        demands,
        failure_model=RandomGridModel(sizes=(0, 1, 2, 4), samples=5),
        graph_name="fat_tree(4)",
        matrix_name="permutation",
    )
    print("\npermutation matrix, identical failure grids per algorithm:")
    print(congestion_table(result.curves))
    for name, reason in result.skipped:
        print(f"  (skipped {name}: {reason})")

    # --- 2. incast: everyone sends to one core switch -------------------
    sink = ("core", 0)
    incast = all_to_one(fabric, sink)
    result = compare_congestion(
        fabric,
        incast,
        algorithms=[arborescence.instantiate()],
        failure_model=RandomGridModel(sizes=(0, 2, 4, 8), samples=5),
        graph_name="fat_tree(4)",
        matrix_name=f"all-to-one({sink})",
    )
    print(f"\nincast into {sink}: load concentrates as failures grow:")
    print(congestion_table(result.curves))

    # --- 3. adversarial: which failures hurt the most? ------------------
    attack = greedy_congestion_attack(fabric, arborescence.instantiate(), incast, max_failures=4)
    print(
        f"\ngreedy worst-case load attack (connectivity preserved): "
        f"|F| = {attack.size} inflates max link load "
        f"{attack.baseline_max_load} -> {attack.max_load} ({attack.amplification:.2f}x)"
    )
    for u, v in sorted(attack.failures, key=repr):
        print(f"  fail {u}-{v}")

    # --- 4. the same story on a hypercube ------------------------------
    cube = resolve_topology("hypercube(3)")
    result = compare_congestion(
        cube,
        permutation(cube, seed=1),
        failure_model=RandomGridModel(sizes=(0, 1, 2, 4), samples=5),
        graph_name="hypercube(3)",
        matrix_name="permutation",
    )
    print(f"\nhypercube(3) ({cube.number_of_nodes()} nodes, {cube.number_of_edges()} links):")
    print(congestion_table(result.curves))


if __name__ == "__main__":
    main()
