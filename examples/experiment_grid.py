"""The unified experiment API: registries -> session -> grid -> records.

The paper is a *comparison*: how much resilience, stretch, table space
and congestion does each static local rerouting scheme give up for
locality?  This study runs that comparison end to end through
``repro.experiments``:

1. look schemes and topologies up **by registry name** (the same names
   the CLI uses), inspecting their applicability predicates;
2. run a (topologies x schemes x failure model) grid on one shared
   ``ExperimentSession`` — every scheme faces identical seeded failure
   scenarios;
3. serialize the typed ``ExperimentRecord`` rows to a JSON result store
   (merge-don't-overwrite) and to CSV.

Run:  python examples/experiment_grid.py
"""

import pathlib
import tempfile

from repro.experiments import (
    ExperimentSession,
    ResultStore,
    list_schemes,
    run_grid,
    scheme,
    topology,
)


def main() -> None:
    # --- 1. the registries --------------------------------------------
    print("schemes tagged for congestion comparisons:")
    for spec in list_schemes(tag="congestion-default"):
        print(f"  {spec.name:<14} {spec.arity:<24} {spec.theorem}")

    ring = topology("ring").build(12)
    tour = scheme("tour")
    print(f"\ntour applicable on ring(12): {tour.applicable(ring)}")
    petersen = topology("petersen").build()
    print(f"tour applicable on petersen: {tour.applicable(petersen)} "
          f"(requires {tour.requires})")

    # --- 2. one session, one grid, identical scenarios per scheme -----
    session = ExperimentSession()
    result = run_grid(
        topologies=["ring(12)", "fattree"],
        schemes=["arborescence", "distance2", "distance3", "tour", "greedy"],
        failure_models=["random:sizes=0/1/2/4,samples=4,seed=0"],
        metrics=("resilience", "congestion", "stretch", "table_space"),
        matrix="permutation",
        session=session,
    )
    print("\nthe grid (one row per record):")
    print(result.table())
    for topology_name, scheme_name, reason in result.skipped:
        print(f"  skipped {scheme_name} on {topology_name}: {reason}")

    # --- 3. records persist: JSON store (merging) + CSV ---------------
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(pathlib.Path(tmp) / "results.json")
        store.merge(result.records)
        # a second run with different seeds merges alongside, not over
        rerun = run_grid(
            topologies=["ring(12)"],
            schemes=["arborescence"],
            failure_models=["random:sizes=0/2,samples=4,seed=7"],
            metrics=("congestion",),
            session=session,
            store=store,
        )
        merged = store.load_records()
        print(f"\nstore after merge: {len(result.records)} + {len(rerun.records)} "
              f"records -> {len(merged)} (same-key records replaced, others kept)")
        csv_path = pathlib.Path(tmp) / "results.csv"
        store.write_csv(csv_path)
        print(f"CSV export: {len(csv_path.read_text().splitlines()) - 1} rows")


if __name__ == "__main__":
    main()
