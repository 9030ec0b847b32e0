"""Engine speedup benchmark: naive vs scalar engine vs numpy mask walks.

Two workloads, both straight from the paper's experimental core:

* **gadget** — exhaustive destination-resilience checking of a 16-link
  outerplanar gadget (2^16 failure sets, every connected source), the
  shape of every Table 1 / impossibility verification.  This workload
  additionally times the vectorized numpy backend
  (``ExperimentSession(backend="numpy")``) against the scalar engine —
  the tracked ``numpy_vs_engine_speedup`` must stay above 1;
* **zoo** — the routing-bound component of the §VIII case study:
  exhaustively verifying Cor-5 ``TourToDestination`` patterns on the
  small Topology Zoo instances that support them;
* **multiword** — a 256-link fat-tree(8) arborescence sweep, four
  64-bit words past the old single-word mask ceiling: the multi-word
  vectorized backend against the warm scalar engine on a bounded
  failure-set family that stays resilient (so both backends sweep the
  whole family instead of early-exiting).  Pattern construction is
  backend-independent and excluded from the timing;
* **parallel_grid** — a small ``run_grid`` executed serially and with
  ``processes=2`` warm forked workers.  Byte-identity of the stitched
  records (wall clock normalised out) is asserted on every machine;
  the scaling ratio is only recorded where ``cpu_count > 1``, because
  on a single core the fork fan-out pays overhead for no parallelism;
* **sampled** — ``repro.failures`` Monte-Carlo estimation vs exhaustive
  enumeration of the same delivery probability (arborescence on
  grid(3,3) under iid failures).  The 95% Wilson CI must bracket the
  enumerated truth — the tracked speedup is only honest if the cheap
  answer is also a correct one.

Results are printed, written to ``benchmarks/results/`` like every other
benchmark, and additionally dumped machine-readable to
``BENCH_engine.json`` at the repo root so the perf trajectory can be
tracked across PRs.  Runnable standalone too::

    PYTHONPATH=src python benchmarks/bench_engine_speedup.py
"""

from __future__ import annotations

import os
import pathlib
import time

from repro.analysis import simple_table
from repro.core.model import touring_as_destination
from repro.core.resilience import check_pattern_resilience, check_perfect_resilience_destination
from repro.experiments import (
    ExperimentRecord,
    ExperimentSession,
    FailureModel,
    ResultStore,
    naive_session,
    run_grid,
    scheme,
    topology,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_engine.json"

#: the acceptance bar for the exhaustive 16-link gadget check
GADGET_MIN_SPEEDUP = 3.0
#: the vectorized backend must beat the scalar engine on the gadget
NUMPY_MIN_SPEEDUP = 1.0
#: multi-word masks must beat the warm scalar engine past 64 links
MULTIWORD_MIN_SPEEDUP = 1.5
#: telemetry-on must cost at most 3% over telemetry-off on the gadget
TELEMETRY_MAX_OVERHEAD = 1.03
#: Monte-Carlo estimation must beat exhaustive enumeration of the same truth
SAMPLED_MIN_SPEEDUP = 2.0
#: how many eligible zoo topologies to verify (bounds naive runtime)
ZOO_TOPOLOGY_CAP = 4


def sixteen_link_gadget(n: int = 10):
    """An outerplanar gadget with a perfectly resilient π^t scheme.

    Outerplanar so that right-hand-rule touring is perfectly resilient
    (Cor 6) — the check must sweep *all* ``2^links`` failure sets instead
    of stopping at an early counterexample.  The default ``n=10`` yields
    the benchmark's 16-link instance; ``--quick`` shrinks it.
    """
    graph = topology("maximal-outerplanar").build(n, 1)  # 2n - 3 links; drop one chord
    for u, v in sorted(graph.edges):
        if abs(u - v) not in (1, n - 1):
            graph.remove_edge(u, v)
            break
    assert graph.number_of_edges() == 2 * n - 4
    return graph


def _interleaved_best_pair(rounds: int, baseline, variant):
    """Best-of-N for two workloads with ALTERNATING runs.

    Container clock drift between back-to-back timing blocks runs ±8%,
    far above the 3% telemetry bar — timing all baseline runs before
    all variant runs folds that drift into the ratio.  Alternating
    baseline/variant within each round samples the same drift for both,
    so the minima stay comparable.
    """
    best_base = best_var = None
    result_base = result_var = None
    for _ in range(rounds):
        start = time.perf_counter()
        result_base = baseline()
        elapsed = time.perf_counter() - start
        best_base = elapsed if best_base is None else min(best_base, elapsed)
        start = time.perf_counter()
        result_var = variant()
        elapsed = time.perf_counter() - start
        best_var = elapsed if best_var is None else min(best_var, elapsed)
    return best_base, result_base, best_var, result_var


def bench_gadget(n: int = 10) -> dict:
    from repro import obs
    from repro.core.engine.vectorized import numpy_available

    graph = sixteen_link_gadget(n)
    algorithm = touring_as_destination(scheme("right-hand").instantiate())

    def engine_run():
        # a fresh session per run keeps every timing cold-cache
        return check_perfect_resilience_destination(
            graph, algorithm, destinations=[0], session=ExperimentSession()
        )

    telemetry = obs.Telemetry()  # metrics registry, no trace file

    def telemetry_run():
        with obs.installed(telemetry):
            return engine_run()

    engine_seconds, fast, telemetry_seconds, instrumented = _interleaved_best_pair(
        3, engine_run, telemetry_run
    )
    assert instrumented.resilient and instrumented.exhaustive
    assert instrumented.scenarios_checked == fast.scenarios_checked
    assert telemetry.registry.value("repro_engine_walks_total", kind="covers") > 0
    numpy_seconds = None
    if numpy_available():
        start = time.perf_counter()
        vectorized = check_perfect_resilience_destination(
            graph, algorithm, destinations=[0], session=ExperimentSession(backend="numpy")
        )
        numpy_seconds = time.perf_counter() - start
        assert vectorized.resilient and vectorized.exhaustive
        assert vectorized.scenarios_checked == fast.scenarios_checked
    start = time.perf_counter()
    slow = check_perfect_resilience_destination(
        graph, algorithm, destinations=[0], session=naive_session()
    )
    naive_seconds = time.perf_counter() - start
    assert fast.resilient and slow.resilient
    assert fast.scenarios_checked == slow.scenarios_checked
    assert fast.exhaustive and slow.exhaustive
    results = {
        "graph": f"maximal-outerplanar n={n} minus one chord",
        "links": graph.number_of_edges(),
        "failure_sets": 2 ** graph.number_of_edges(),
        "scenarios": fast.scenarios_checked,
        "naive_seconds": naive_seconds,
        "engine_seconds": engine_seconds,
        "speedup": naive_seconds / engine_seconds,
        "telemetry_seconds": telemetry_seconds,
        "telemetry_overhead": telemetry_seconds / engine_seconds,
    }
    if numpy_seconds is not None:
        # only ever recorded as real numbers: a no-numpy machine must
        # not overwrite the tracked speedup with nulls (the CI honesty
        # check reads these fields)
        results["numpy_seconds"] = numpy_seconds
        results["numpy_vs_engine_speedup"] = engine_seconds / numpy_seconds
    return results


def bench_zoo(cap: int = ZOO_TOPOLOGY_CAP) -> dict:
    """Exhaustive Cor-5 pattern verification on small zoo topologies."""
    from repro.graphs.zoo import generate_zoo

    router = scheme("tour").instantiate()
    jobs = []
    for zoo_member in generate_zoo(seed=2022):
        graph = zoo_member.graph
        if graph.number_of_edges() > 16 or graph.number_of_edges() < 6:
            continue
        destinations = [t for t in sorted(graph.nodes) if router.supports(graph, t)]
        if destinations:
            jobs.append((zoo_member.name, graph, destinations[:2]))
        if len(jobs) >= cap:
            break
    scenarios = 0
    engine_session = ExperimentSession()
    start = time.perf_counter()
    for _, graph, destinations in jobs:
        for destination in destinations:
            pattern = router.build(graph, destination)
            verdict = check_pattern_resilience(graph, pattern, destination, session=engine_session)
            assert verdict.resilient
            scenarios += verdict.scenarios_checked
    engine_seconds = time.perf_counter() - start
    start = time.perf_counter()
    for _, graph, destinations in jobs:
        for destination in destinations:
            pattern = router.build(graph, destination)
            verdict = check_pattern_resilience(
                graph, pattern, destination, session=naive_session()
            )
            assert verdict.resilient
    naive_seconds = time.perf_counter() - start
    return {
        "topologies": [name for name, _, _ in jobs],
        "patterns": sum(len(d) for _, _, d in jobs),
        "scenarios": scenarios,
        "naive_seconds": naive_seconds,
        "engine_seconds": engine_seconds,
        "speedup": naive_seconds / engine_seconds,
    }


def bench_multiword(samples: int = 400, rounds: int = 3) -> dict | None:
    """Fat-tree(8) arborescence sweep: multi-word numpy vs warm scalar.

    256 links means four 64-bit mask words — the workload the old
    single-word backend had to hand back to the scalar engine.  The
    failure-set family is bounded to ``max_failures=3`` so the pattern
    stays resilient and *both* backends sweep every set (an early
    counterexample would hand the scalar engine its early-exit win and
    measure nothing about mask walks).  Arborescence pattern
    construction dominates cold end-to-end time and is identical on
    both backends, so it is built once up front and excluded.
    """
    from repro import obs
    from repro.core.engine.vectorized import mask_words, numpy_available
    from repro.core.resilience import sampled_failure_sets
    from repro.experiments.registry import resolve_topology

    if not numpy_available():
        return None
    graph = resolve_topology("fattree(8)")
    links = graph.number_of_edges()
    assert links > 64, "the workload must live past the single-word ceiling"
    destination = sorted(graph.nodes, key=repr)[0]
    pattern = scheme("arborescence").instantiate().build(graph, destination)
    failure_sets = list(sampled_failure_sets(graph, samples=samples, max_failures=3, seed=0))

    scalar_session = ExperimentSession(backend="engine")
    numpy_session = ExperimentSession(backend="numpy")
    telemetry = obs.Telemetry()

    def scalar_run():
        return check_pattern_resilience(
            graph, pattern, destination, failure_sets=failure_sets, session=scalar_session
        )

    def numpy_run():
        with obs.installed(telemetry):
            return check_pattern_resilience(
                graph, pattern, destination, failure_sets=failure_sets, session=numpy_session
            )

    # warm both sessions' per-graph state so the timing isolates the sweep
    scalar_run()
    numpy_run()
    scalar_seconds, scalar_verdict, numpy_seconds, numpy_verdict = _interleaved_best_pair(
        rounds, scalar_run, numpy_run
    )
    assert scalar_verdict.resilient and numpy_verdict.resilient
    assert scalar_verdict.exhaustive == numpy_verdict.exhaustive
    assert scalar_verdict.scenarios_checked == numpy_verdict.scenarios_checked
    # a fallback would mean the "numpy" timing silently ran scalar code
    assert "repro_numpy_fallbacks_total" not in telemetry.registry.families()
    assert telemetry.registry.value("repro_numpy_chunks_total") > 0
    return {
        "graph": "fattree(8)",
        "links": links,
        "mask_words": mask_words(links),
        "failure_sets": len(failure_sets),
        "scenarios": numpy_verdict.scenarios_checked,
        "scalar_seconds": scalar_seconds,
        "numpy_seconds": numpy_seconds,
        "numpy_vs_scalar_speedup": scalar_seconds / numpy_seconds,
    }


def bench_parallel_grid(processes: int = 2) -> dict:
    """Warm-worker ``run_grid`` fan-out vs the serial loop.

    Byte-identity (records compared with ``runtime_seconds`` zeroed —
    wall clock is the only legal diff) is asserted unconditionally.
    The speedup ratio is only recorded on real multi-core hosts.
    """
    grid_kwargs = dict(
        topologies=["ring(12)"],
        schemes=["arborescence", "greedy"],
        failure_models=[FailureModel(sizes=(0, 1, 2), samples=3, seed=0)],
    )
    start = time.perf_counter()
    serial = run_grid(session=ExperimentSession(), **grid_kwargs)
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_grid(
        session=ExperimentSession(processes=processes), **grid_kwargs
    )
    parallel_seconds = time.perf_counter() - start

    def normalized(result):
        dicts = []
        for record in result.records:
            data = record.to_dict()
            data["runtime_seconds"] = 0.0  # wall clock is the only legal diff
            dicts.append(data)
        return dicts

    byte_identical = normalized(serial) == normalized(parallel)
    assert byte_identical, "parallel run_grid must stitch serial-identical records"
    results = {
        "grid": "ring(12) x [arborescence, greedy] x random(sizes=0/1/2,samples=3,seed=0)",
        "cells": len(serial.records),
        "processes": processes,
        "cpu_count": os.cpu_count(),
        "byte_identical": byte_identical,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
    }
    if (os.cpu_count() or 1) > 1:
        results["parallel_speedup"] = serial_seconds / parallel_seconds
    return results


def bench_sampled(samples: int = 400) -> dict:
    """Sampled estimation vs exhaustive enumeration of the same truth.

    The workload ``repro.failures`` exists for: arborescence routing on
    grid(3,3) under iid link failures (p = 0.15) sits mid-range
    (P[delivered] ~ 0.66), so the exact probability takes a full
    2^12-subset weighted enumeration while the Monte-Carlo estimator
    reaches a Wilson-bounded answer from ``samples`` draws.  Honesty is
    part of the workload: the estimate's 95% CI must bracket the
    enumerated truth, otherwise the speedup measures a wrong answer.
    """
    import itertools

    from repro.experiments.registry import resolve_topology
    from repro.failures import IIDModel, MaskEvaluator, estimate_resilience
    from repro.failures.models import canonical_links

    graph = resolve_topology("grid(3,3)")
    algorithm = scheme("arborescence").instantiate()
    model = IIDModel(p=0.15, samples=samples, seed=0)
    links = canonical_links(graph)

    evaluator = MaskEvaluator(graph, algorithm, session=ExperimentSession())
    start = time.perf_counter()
    truth = 0.0
    for size in range(len(links) + 1):
        weight = model.p**size * (1.0 - model.p) ** (len(links) - size)
        for combo in itertools.combinations(links, size):
            ok, _ = evaluator.delivered(frozenset(combo))
            if ok:
                truth += weight
    exhaustive_seconds = time.perf_counter() - start

    start = time.perf_counter()
    estimate = estimate_resilience(graph, algorithm, model, session=ExperimentSession())
    sampled_seconds = time.perf_counter() - start
    assert estimate.exhaustive and estimate.samples == samples
    assert (
        estimate.ci_low <= truth <= estimate.ci_high
    ), f"CI [{estimate.ci_low}, {estimate.ci_high}] misses enumerated truth {truth}"
    return {
        "graph": "grid(3,3)",
        "model": model.label,
        "subsets_enumerated": 2 ** len(links),
        "samples": estimate.samples,
        "truth": truth,
        "estimate": estimate.estimate,
        "ci_low": estimate.ci_low,
        "ci_high": estimate.ci_high,
        "ci_brackets_truth": True,
        "exhaustive_seconds": exhaustive_seconds,
        "sampled_seconds": sampled_seconds,
        "speedup": exhaustive_seconds / sampled_seconds,
    }


def bench_store() -> ResultStore:
    """The shared cross-PR performance record (both benches merge here)."""
    return ResultStore(BENCH_JSON)


def run_benchmark(quick: bool = False, deadline_seconds: float | None = None) -> dict:
    from repro.runtime import Deadline

    deadline = Deadline(deadline_seconds) if deadline_seconds is not None else None
    gadget = bench_gadget(n=8 if quick else 10)
    # workloads are the deadline's units here: once the budget is spent,
    # every remaining workload is skipped whole, never truncated
    partial = False
    zoo = multiword = parallel_grid = sampled = None
    if deadline is not None and deadline.expired():
        partial = True
    else:
        zoo = bench_zoo(cap=2 if quick else ZOO_TOPOLOGY_CAP)
    if not partial:
        if deadline is not None and deadline.expired():
            partial = True
        else:
            multiword = bench_multiword(
                samples=120 if quick else 400, rounds=1 if quick else 3
            )
    if not partial:
        if deadline is not None and deadline.expired():
            partial = True
        else:
            parallel_grid = bench_parallel_grid()
    if not partial:
        if deadline is not None and deadline.expired():
            partial = True
        else:
            sampled = bench_sampled(samples=120 if quick else 400)
    results = {
        "benchmark": "engine_speedup",
        "cpu_count": os.cpu_count(),
        "thresholds": {
            "gadget_min_speedup": GADGET_MIN_SPEEDUP,
            "numpy_min_speedup": NUMPY_MIN_SPEEDUP,
            "multiword_min_speedup": MULTIWORD_MIN_SPEEDUP,
            "telemetry_max_overhead": TELEMETRY_MAX_OVERHEAD,
            "sampled_min_speedup": SAMPLED_MIN_SPEEDUP,
        },
        "gadget": gadget,
        "zoo": zoo,
        "multiword": multiword,
        "parallel_grid": parallel_grid,
        "sampled": sampled,
    }
    if partial:
        results["partial"] = True
        # deadline-cut runs never masquerade as the tracked full record
        print("deadline cut the benchmark: partial results, skipping BENCH merge")
        return results
    if not quick:
        # --quick is a CI smoke on a smaller workload: never let its
        # numbers masquerade as the tracked full-benchmark record.
        # The store merges: top-level sections by key, records by
        # (experiment, topology, scheme, failure model) identity.
        store = bench_store()
        store.merge_raw(results)
        store.merge(
            [
                ExperimentRecord(
                    experiment="bench_engine_speedup",
                    topology=gadget["graph"],
                    scheme="tour (as destination)",
                    failure_model="exhaustive",
                    metrics={
                        "speedup": gadget["speedup"],
                        "naive_seconds": gadget["naive_seconds"],
                        "engine_seconds": gadget["engine_seconds"],
                        "telemetry_seconds": gadget["telemetry_seconds"],
                        "telemetry_overhead": gadget["telemetry_overhead"],
                        "scenarios": gadget["scenarios"],
                    },
                    runtime_seconds=gadget["naive_seconds"] + gadget["engine_seconds"],
                ),
                ExperimentRecord(
                    experiment="bench_engine_speedup",
                    topology="zoo-small-slice",
                    scheme="tour",
                    failure_model="exhaustive",
                    metrics={
                        "speedup": zoo["speedup"],
                        "naive_seconds": zoo["naive_seconds"],
                        "engine_seconds": zoo["engine_seconds"],
                        "scenarios": zoo["scenarios"],
                    },
                    runtime_seconds=zoo["naive_seconds"] + zoo["engine_seconds"],
                ),
            ]
        )
        if gadget.get("numpy_seconds") is not None:
            store.merge(
                [
                    ExperimentRecord(
                        experiment="bench_numpy_backend",
                        topology=gadget["graph"],
                        scheme="tour (as destination)",
                        failure_model="exhaustive",
                        metrics={
                            "numpy_vs_engine_speedup": gadget["numpy_vs_engine_speedup"],
                            "numpy_seconds": gadget["numpy_seconds"],
                            "engine_seconds": gadget["engine_seconds"],
                            "scenarios": gadget["scenarios"],
                        },
                        params={"backend": "numpy"},
                        runtime_seconds=gadget["numpy_seconds"],
                    )
                ]
            )
        if multiword is not None:
            store.merge(
                [
                    ExperimentRecord(
                        experiment="bench_multiword_masks",
                        topology=multiword["graph"],
                        scheme="arborescence",
                        failure_model="random(max_failures=3,samples=400,seed=0)",
                        metrics={
                            "numpy_vs_scalar_speedup": multiword["numpy_vs_scalar_speedup"],
                            "scalar_seconds": multiword["scalar_seconds"],
                            "numpy_seconds": multiword["numpy_seconds"],
                            "links": multiword["links"],
                            "mask_words": multiword["mask_words"],
                            "scenarios": multiword["scenarios"],
                        },
                        params={"backend": "numpy"},
                        runtime_seconds=multiword["scalar_seconds"]
                        + multiword["numpy_seconds"],
                    )
                ]
            )
        if sampled is not None:
            store.merge(
                [
                    ExperimentRecord(
                        experiment="bench_sampled_estimate",
                        topology=sampled["graph"],
                        scheme="arborescence",
                        failure_model=sampled["model"],
                        metrics={
                            "speedup": sampled["speedup"],
                            "exhaustive_seconds": sampled["exhaustive_seconds"],
                            "sampled_seconds": sampled["sampled_seconds"],
                            "truth": sampled["truth"],
                            "estimate": sampled["estimate"],
                            "ci_low": sampled["ci_low"],
                            "ci_high": sampled["ci_high"],
                            "ci_brackets_truth": sampled["ci_brackets_truth"],
                            "samples": sampled["samples"],
                        },
                        runtime_seconds=sampled["exhaustive_seconds"]
                        + sampled["sampled_seconds"],
                    )
                ]
            )
        if parallel_grid is not None:
            grid_metrics = {
                "byte_identical": parallel_grid["byte_identical"],
                "cells": parallel_grid["cells"],
                "serial_seconds": parallel_grid["serial_seconds"],
                "parallel_seconds": parallel_grid["parallel_seconds"],
            }
            if "parallel_speedup" in parallel_grid:
                grid_metrics["parallel_speedup"] = parallel_grid["parallel_speedup"]
            store.merge(
                [
                    ExperimentRecord(
                        experiment="bench_parallel_grid",
                        topology="ring(12)",
                        scheme="arborescence+greedy",
                        failure_model="random(sizes=0/1/2,samples=3,seed=0)",
                        metrics=grid_metrics,
                        params={
                            "processes": parallel_grid["processes"],
                            "cpu_count": parallel_grid["cpu_count"],
                        },
                        runtime_seconds=parallel_grid["serial_seconds"]
                        + parallel_grid["parallel_seconds"],
                    )
                ]
            )
    return results


def format_report(results: dict) -> str:
    gadget = results["gadget"]
    rows = [
        [
            name,
            f"{results[name]['scenarios']:,}",
            f"{results[name]['naive_seconds']:.2f}",
            f"{results[name]['engine_seconds']:.2f}",
            f"{results[name]['speedup']:.1f}x",
        ]
        if results.get(name) is not None
        else [name, "-", "-", "-", "- (deadline cut)"]
        for name in ("gadget", "zoo")
    ]
    if gadget.get("numpy_seconds") is not None:
        numpy_line = (
            f"numpy backend on the gadget sweep: {gadget['numpy_seconds']:.2f} s, "
            f"{gadget['numpy_vs_engine_speedup']:.1f}x over the scalar engine "
            f"(bar: >= {NUMPY_MIN_SPEEDUP:.0f}x)\n"
        )
    else:
        numpy_line = "numpy backend: not installed (scalar engine only)\n"
    numpy_line += (
        f"telemetry-on gadget sweep: {gadget['telemetry_seconds']:.2f} s, "
        f"{(gadget['telemetry_overhead'] - 1) * 100:+.1f}% vs telemetry-off "
        f"(bar: <= {(TELEMETRY_MAX_OVERHEAD - 1) * 100:.0f}%)\n"
    )
    multiword = results.get("multiword")
    if multiword is not None:
        numpy_line += (
            f"multi-word masks on {multiword['graph']} "
            f"({multiword['links']} links, {multiword['mask_words']} words): "
            f"scalar {multiword['scalar_seconds']:.2f} s, "
            f"numpy {multiword['numpy_seconds']:.2f} s, "
            f"{multiword['numpy_vs_scalar_speedup']:.1f}x "
            f"(bar: >= {MULTIWORD_MIN_SPEEDUP:.1f}x)\n"
        )
    sampled = results.get("sampled")
    if sampled is not None:
        numpy_line += (
            f"sampled estimate on {sampled['graph']} ({sampled['model']}): "
            f"{sampled['estimate']:.3f} [{sampled['ci_low']:.3f}, "
            f"{sampled['ci_high']:.3f}] brackets enumerated truth "
            f"{sampled['truth']:.3f}; {sampled['sampled_seconds']:.3f} s vs "
            f"{sampled['exhaustive_seconds']:.3f} s exhaustive, "
            f"{sampled['speedup']:.1f}x (bar: >= {SAMPLED_MIN_SPEEDUP:.1f}x)\n"
        )
    parallel_grid = results.get("parallel_grid")
    if parallel_grid is not None:
        scaling = (
            f"{parallel_grid['parallel_speedup']:.2f}x over serial"
            if "parallel_speedup" in parallel_grid
            else f"scaling not recorded ({parallel_grid['cpu_count']} core)"
        )
        numpy_line += (
            f"parallel run_grid ({parallel_grid['cells']} cells, "
            f"processes={parallel_grid['processes']}): byte-identical to "
            f"serial; {scaling}\n"
        )
    return (
        "Engine speedup: naive simulator vs indexed+memoized engine\n"
        f"(gadget = exhaustive {gadget['links']}-link destination check; "
        f"bar: >= {GADGET_MIN_SPEEDUP:.0f}x)\n"
        + numpy_line
        + simple_table(["workload", "scenarios", "naive s", "engine s", "speedup"], rows)
    )


def test_engine_speedup(report):
    results = run_benchmark()
    report("engine_speedup", format_report(results))
    assert results["gadget"]["speedup"] >= GADGET_MIN_SPEEDUP, results["gadget"]
    # zoo verification must never get slower than the naive path
    assert results["zoo"]["speedup"] >= 1.0, results["zoo"]
    assert (
        results["gadget"]["telemetry_overhead"] <= TELEMETRY_MAX_OVERHEAD
    ), results["gadget"]
    if results["gadget"].get("numpy_seconds") is not None:
        assert (
            results["gadget"]["numpy_vs_engine_speedup"] >= NUMPY_MIN_SPEEDUP
        ), results["gadget"]
    if results.get("multiword") is not None:
        assert (
            results["multiword"]["numpy_vs_scalar_speedup"] >= MULTIWORD_MIN_SPEEDUP
        ), results["multiword"]
    if results.get("parallel_grid") is not None:
        assert results["parallel_grid"]["byte_identical"], results["parallel_grid"]
    if results.get("sampled") is not None:
        assert results["sampled"]["ci_brackets_truth"], results["sampled"]
        assert results["sampled"]["speedup"] >= SAMPLED_MIN_SPEEDUP, results["sampled"]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: smaller gadget and zoo slice, no BENCH_engine.json write",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="skip workloads once this many seconds have elapsed; partial "
        "results are reported but never merged into BENCH_engine.json",
    )
    cli_args = parser.parse_args()
    results = run_benchmark(quick=cli_args.quick, deadline_seconds=cli_args.deadline)
    print(format_report(results))
    if not cli_args.quick and not results.get("partial"):
        print(f"machine-readable results: {BENCH_JSON}")
