"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``classify`` — §VIII classification of a graph (built-in family or
  edge-list file);
* ``route`` — route one packet under a failure set and print the walk;
* ``attack`` — run the constructive adversaries (Thm 1 / Thm 6 / Thm 7);
* ``tour`` — tour a graph with the right-hand rule or Hamiltonian cycles;
* ``zoo`` — regenerate the synthetic Topology Zoo and print the Fig. 7
  table for a slice of it;
* ``traffic`` — route a whole traffic matrix under sampled failure sets
  and print congestion curves (and, optionally, a greedy worst-case
  load attack);
* ``experiments`` — the unified grid runner: topologies × schemes ×
  failure models, resolved by registry name, emitting typed
  ``ExperimentRecord`` rows (JSON/CSV); ``--trace`` / bare ``--metrics``
  / ``--metrics-out`` turn on the telemetry layer and ``--progress``
  prints a per-cell heartbeat;
* ``stats`` — render a telemetry artifact (span trace JSONL or metrics
  snapshot JSON) as a human-readable hotspot report.

Schemes and topologies are resolved through
:mod:`repro.experiments.registry` — the CLI holds no private lists.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import networkx as nx

from .analysis import fig7_table, run_case_study
from .core import Network, route as simulate_route, tour as simulate_tour
from .core.adversary import attack_k44, attack_k7, attack_r_tolerance
from .core.classification import classify
from .experiments import (
    default_session,
    known_family,
    resolve_topology,
    scheme,
    scheme_names,
    topology_names,
)
from .graphs import generate_zoo
from .graphs.edges import edges


def _load_graph(spec: str) -> nx.Graph:
    if known_family(spec):
        # errors from inside a registered builder (bad zoo family, bad
        # size) propagate with their context instead of being mistaken
        # for a missing edge-list file
        return resolve_topology(spec)
    graph = nx.Graph()
    with open(spec) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v = line.split()[:2]
            graph.add_edge(_maybe_int(u), _maybe_int(v))
    return graph


def _maybe_int(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def _parse_failures(tokens: list[str]):
    pairs = []
    for token in tokens:
        u, dash, v = token.partition("-")
        if not (u and dash and v) or "-" in v:
            raise ValueError(f"link {token!r} is not of the form u-v")
        pairs.append((_maybe_int(u), _maybe_int(v)))
    return edges(pairs)


def _fail_option(tokens: list[str]):
    """The ``--fail`` links, or ``None`` after printing why they are
    malformed.  Links outside the graph are fine: they keep the naive
    semantics of a failure that touches nothing."""
    try:
        return _parse_failures(tokens)
    except ValueError as error:
        print(f"invalid --fail: {error}", file=sys.stderr)
        return None


def _cmd_classify(args) -> int:
    graph = _load_graph(args.graph)
    result = classify(graph, name=args.graph, minor_budget=args.budget)
    print(f"{result.name}: n={result.n} m={result.m} ({result.planarity})")
    print(f"  touring:            {result.touring.value}")
    print(f"  destination-based:  {result.destination.value}")
    print(f"  source-destination: {result.source_destination.value}")
    print(f"  good destinations:  {result.good_destination_fraction:.0%}")
    return 0


def _cmd_route(args) -> int:
    graph = _load_graph(args.graph)
    source = _maybe_int(args.source)
    destination = _maybe_int(args.destination)
    for role, node in (("source", source), ("destination", destination)):
        if node not in graph:
            print(f"{role} {node!r} is not a node of {args.graph}", file=sys.stderr)
            return 2
    failures = _fail_option(args.fail)
    if failures is None:
        return 2
    # preference order: exact small-graph tables, then tours, then the
    # distance-2 fallback — all resolved from the scheme registry
    for name in ("k5-source", "k33-source", None):
        if name is None:
            tour_router = scheme("tour").instantiate()
            if tour_router.supports(graph, destination):
                pattern = tour_router.build(graph, destination)
                chosen = tour_router.name
                break
            fallback = scheme("distance2").instantiate()
            pattern = fallback.build(graph, source, destination)
            chosen = fallback.name
            break
        algorithm = scheme(name).instantiate()
        try:
            pattern = algorithm.build(graph, source, destination)
            chosen = algorithm.name
            break
        except ValueError:
            continue
    result = simulate_route(Network(graph), pattern, source, destination, failures)
    print(f"algorithm: {chosen}")
    print(f"outcome:   {result.outcome.value}")
    print(f"walk:      {' -> '.join(map(str, result.path))}")
    return 0 if result.delivered else 1


def _cmd_attack(args) -> int:
    graph = _load_graph(args.graph)
    nodes = sorted(graph.nodes, key=repr)
    source, destination = nodes[0], nodes[-1]
    algorithm = (
        scheme("distance2").instantiate()
        if args.pattern == "distance2"
        else scheme("random-sd").instantiate(seed=args.seed)
    )
    try:
        if args.kind == "rtolerance":
            result = attack_r_tolerance(graph, algorithm, source, destination, r=args.r)
        elif args.kind == "k7":
            result = attack_k7(graph, algorithm, source, destination)
        else:
            result = attack_k44(graph, algorithm, source, destination)
    except ValueError as error:
        print(f"cannot attack this instance: {error}", file=sys.stderr)
        return 2
    if result is None:
        print("no witness found")
        return 1
    print(f"witness: |F| = {len(result.failures)} ({result.method})")
    for link in sorted(result.failures, key=repr):
        print(f"  fail {link[0]}-{link[1]}")
    return 0


def _cmd_tour(args) -> int:
    graph = _load_graph(args.graph)
    failures = _fail_option(args.fail)
    if failures is None:
        return 2
    try:
        router = scheme("right-hand").instantiate()
        pattern = router.build(graph)
    except Exception:
        router = scheme("hamiltonian").instantiate()
        pattern = router.build(graph)
    name = router.name
    start = sorted(graph.nodes, key=repr)[0]
    result = simulate_tour(Network(graph), pattern, start, failures)
    print(f"algorithm: {name}")
    print(f"toured forever: {sorted(result.recurrent, key=repr)}")
    return 0


def _cmd_zoo(args) -> int:
    suite = generate_zoo(seed=args.seed)[:: args.stride]
    result = run_case_study(suite=suite, minor_budget=args.budget)
    print(fig7_table(result))
    return 0


def _build_matrix(graph, args):
    # same dispatch (and same default all-to-one sink) as run_grid, so a
    # workload name labels the same matrix on every surface
    from .traffic.matrices import build_named_matrix

    destination = _maybe_int(args.destination) if args.destination else None
    return build_named_matrix(graph, args.matrix, seed=args.seed, destination=destination)


def _failure_model(spec: str | None, default: str):
    """The model ``--failure-model`` names, else the command's
    ``default`` spec; ``None`` after printing the error for a bad spec."""
    from .failures import parse_failure_model, spec_grammar

    try:
        return parse_failure_model(spec or default)
    except ValueError as error:
        print(f"invalid --failure-model: {error}", file=sys.stderr)
        print(f"spec grammar: {spec_grammar()}", file=sys.stderr)
        return None


def _cmd_traffic(args) -> int:
    from . import traffic

    graph = _load_graph(args.graph)
    try:
        demands, matrix_name = _build_matrix(graph, args)
    except ValueError as error:  # e.g. --destination not a node of the graph
        print(f"cannot build matrix: {error}", file=sys.stderr)
        return 2
    model = _failure_model(args.failure_model, f"random:samples=10,seed={args.seed}")
    if model is None:
        return 2
    session = default_session()
    try:
        if args.algorithm == "all":
            competitors = traffic.default_competitors()
            result = traffic.compare_congestion(
                graph,
                demands,
                algorithms=competitors,
                failure_model=model,
                graph_name=args.graph,
                matrix_name=matrix_name,
                session=session,
            )
            curves = result.curves
            for name, reason in result.skipped:
                print(f"[skipped] {name}: {reason}", file=sys.stderr)
        else:
            algorithm = scheme(args.algorithm).instantiate()
            curve, reason = traffic.preflight_congestion_curve(
                session.traffic_engine(graph, algorithm),
                algorithm,
                demands,
                model.grid(graph),
                graph_name=args.graph,
                matrix_name=matrix_name,
            )
            if curve is None:
                print(f"{algorithm.name} cannot run on this topology: {reason}", file=sys.stderr)
                return 2
            curves = [curve]
    except ValueError as error:  # e.g. a failure size beyond this topology's links
        print(f"cannot sweep: {error}", file=sys.stderr)
        return 2
    print(f"congestion sweep: {args.graph}, matrix {matrix_name}, {len(demands)} demands")
    print(traffic.congestion_table(curves))
    if args.attack:
        if args.algorithm == "all":
            # attack the first competitor that actually ran on this
            # topology (preference order = the registry's
            # congestion-default line-up)
            survivors = {curve.algorithm for curve in curves}
            algorithm = next((a for a in competitors if a.name in survivors), None)
            if algorithm is None:
                print("no supported algorithm to attack", file=sys.stderr)
                return 1
        attack = traffic.greedy_congestion_attack(
            graph, algorithm, demands, args.attack, session=session
        )
        print(
            f"worst-case load attack on {algorithm.name}: |F| = {attack.size}, "
            f"max load {attack.baseline_max_load} -> {attack.max_load} "
            f"({attack.amplification:.2f}x)"
        )
        for link in sorted(attack.failures, key=repr):
            print(f"  fail {link[0]}-{link[1]}")
    return 0 if curves else 1


def _build_session(backend: str | None, processes: int = 1):
    """An :class:`ExperimentSession` for ``--backend`` (and ``--processes``
    where the command has one), or ``None`` after printing the gating
    error (numpy requested but not installed)."""
    from .experiments import ExperimentSession

    if (backend is None or backend == "engine") and processes <= 1:
        return default_session()
    try:
        return ExperimentSession(backend=backend or "engine", processes=max(processes, 1))
    except (RuntimeError, ValueError) as error:
        print(f"cannot use backend {backend!r}: {error}", file=sys.stderr)
        return None


def _split_names(raw: str) -> list[str]:
    """Split a comma-separated name list, not splitting inside parens.

    ``"ring(12),torus(3,5)"`` -> ``["ring(12)", "torus(3,5)"]``.
    """
    names: list[str] = []
    depth = 0
    current = ""
    for char in raw:
        if char == "," and depth == 0:
            if current.strip():
                names.append(current.strip())
            current = ""
            continue
        depth += char == "("
        depth -= char == ")"
        current += char
    if current.strip():
        names.append(current.strip())
    return names


def _print_progress(info: dict) -> None:
    total = info["total"] if info["total"] is not None else "?"
    eta = f", eta {info['eta']:.0f}s" if info["eta"] is not None else ""
    replayed = f", {info['replayed']} replayed" if info["replayed"] else ""
    print(
        f"[grid] {info['done']}/{total} cells, {info['errors']} errors{replayed}{eta}",
        file=sys.stderr,
    )


def _cmd_experiments(args) -> int:
    from .experiments import (
        ResultStore,
        list_schemes,
        list_topologies,
        records_round_trip,
        run_grid,
        write_records_csv,
    )

    if args.list:
        from .analysis import simple_table

        print("registered schemes:")
        print(
            simple_table(
                ["name", "arity", "theorem", "requires"],
                [[s.name, s.arity, s.theorem, s.requires] for s in list_schemes()],
            )
        )
        print("\nregistered topologies:")
        print(
            simple_table(
                ["name", "signature", "source", "description"],
                [[t.name, t.signature, t.source, t.description] for t in list_topologies()],
            )
        )
        return 0

    # bare --metrics is the telemetry-dump flag (const=True); with a
    # value it is still the metric-family list
    dump_metrics = args.metrics is True
    metrics_spec = (
        "resilience,congestion,stretch,table_space" if dump_metrics else args.metrics
    )
    default_model = (
        "random:sizes=0/1,samples=2,seed=0" if args.quick else f"random:samples=5,seed={args.seed}"
    )
    model = _failure_model(args.failure_model, default_model)
    if model is None:
        return 2
    if args.quick:
        # CI smoke: a tiny fixed 2-topology x 3-scheme grid, every
        # metric, permutation matrix, seed 0 — only the failure model
        # is overridable (so CI can smoke the sampled estimator path)
        from .experiments import METRICS

        overridden = [
            flag
            for flag, given in (
                ("--topologies", args.topologies != "ring,fattree"),
                ("--schemes", args.schemes is not None),
                ("--metrics", metrics_spec != "resilience,congestion,stretch,table_space"),
                ("--matrix", args.matrix != "permutation"),
                ("--seed", args.seed != 0),
            )
            if given
        ]
        if overridden:
            print(
                f"[--quick] ignoring {', '.join(overridden)}: the smoke grid is fixed",
                file=sys.stderr,
            )
        topologies = ["ring", "grid"]
        schemes = ["arborescence", "distance2", "greedy"]
        metrics = list(METRICS)
        matrix = "permutation"
        seed = 0
    else:
        topologies = _split_names(args.topologies)
        schemes = _split_names(args.schemes) if args.schemes else None
        metrics = [token for token in metrics_spec.split(",") if token]
        matrix = args.matrix
        seed = args.seed
    session = _build_session(args.backend, args.processes)
    if session is None:
        return 2
    from pathlib import Path

    from .runtime import CellJournal, Deadline, FaultPlan, GridKill

    # both files are read before any cell runs: a store that is not a
    # JSON object, or a journal with a bad line before its last, stops
    # the run here and stays untouched
    if args.out and args.resume and Path(args.out).resolve() == Path(args.resume).resolve():
        print(f"--out and --resume name the same file: {args.out}", file=sys.stderr)
        return 2
    store = ResultStore(args.out) if args.out else None
    resume = None
    try:
        if store is not None:
            store.identities()
        if args.resume:
            resume = CellJournal(args.resume)
    except ValueError as error:
        print(f"cannot run grid: {error}", file=sys.stderr)
        return 2
    deadline = Deadline(args.deadline) if args.deadline is not None else None
    if resume is not None:
        staleness = resume.staleness_seconds()
        if len(resume) and staleness is not None:
            print(
                f"resuming from {args.resume}: {len(resume)} journaled cells, "
                f"newest {staleness:.0f}s old",
                file=sys.stderr,
            )
    if args.inject_faults:
        try:
            plan_context = FaultPlan.parse(args.inject_faults, seed=args.fault_seed).installed()
        except ValueError as error:
            print(f"invalid --inject-faults plan: {error}", file=sys.stderr)
            return 2
    else:
        plan_context = contextlib.nullcontext()
    from . import obs

    telemetry = None
    if args.trace or dump_metrics or args.metrics_out:
        telemetry = obs.Telemetry(trace_path=args.trace)
    install = obs.installed(telemetry) if telemetry is not None else contextlib.nullcontext()
    try:
        with install, plan_context:
            result = run_grid(
                topologies,
                schemes,
                failure_models=[model],
                metrics=metrics,
                matrix=matrix,
                matrix_seed=seed,
                session=session,
                store=store,
                deadline=deadline,
                resume=resume,
                progress=_print_progress if args.progress else None,
            )
    except (KeyError, ValueError) as error:
        print(f"cannot run grid: {error}", file=sys.stderr)
        return 2
    except GridKill as kill:
        print(f"grid killed by injected fault: {kill}", file=sys.stderr)
        if args.resume:
            print(
                f"journal kept at {args.resume}; rerun with --resume to continue",
                file=sys.stderr,
            )
        return 3
    finally:
        # flush the trace even when the grid dies (a torn tail is
        # tolerated by the reader, but dangling spans are closed here)
        if telemetry is not None:
            telemetry.close()
    print(
        f"experiment grid: {len(topologies)} topologies x "
        f"{'all' if schemes is None else len(schemes)} schemes, {model.label}"
    )
    print(result.table())
    for topology_name, scheme_name, reason in result.skipped:
        print(f"[skipped] {scheme_name} on {topology_name}: {reason}", file=sys.stderr)
    if result.resumed_cells:
        print(f"resumed {result.resumed_cells} cells from {args.resume}")
    errors = result.errors
    if errors:
        for record in errors:
            print(
                f"[error] {record.scheme} on {record.topology} "
                f"({record.failure_model}): {record.note}",
                file=sys.stderr,
            )
    if not result.exhaustive:
        print("deadline exhausted: partial grid (completed cells only)", file=sys.stderr)
    saved = {id(record) for record in result.saved}
    for record in result.records:
        if id(record) not in saved:
            print(
                f"[not stored] {record.experiment} of {record.scheme} on {record.topology} "
                f"({record.failure_model}): its estimate was cut short",
                file=sys.stderr,
            )
    if not records_round_trip(result.records):
        print("records failed the JSON round-trip", file=sys.stderr)
        return 1
    print(f"{len(result.records)} records (JSON round-trip ok)")
    if store is not None:
        print(f"merged {len(result.saved)} records into {store.path}")
    if args.csv:
        rows = write_records_csv(result.records, args.csv)
        print(f"wrote {rows} CSV rows to {args.csv}")
    if args.trace:
        print(f"trace written to {args.trace} (render with: repro stats {args.trace})")
    if args.metrics_out:
        telemetry.registry.write_snapshot(args.metrics_out)
        print(f"metrics snapshot written to {args.metrics_out}")
    if dump_metrics:
        print(telemetry.registry.render_prometheus(), end="")
    return 0 if result.records else 1


def _cmd_serve(args) -> int:
    session = _build_session(args.backend, args.processes)
    if session is None:
        return 2
    from . import obs
    from .experiments import ResultStore
    from .serve import QueryService
    from .serve.server import serve

    store = ResultStore(args.store) if args.store else None
    if store is not None:
        try:
            store.identities()  # a file that is not a store stops here, untouched
        except ValueError as error:
            print(f"invalid --store: {error}", file=sys.stderr)
            return 2
    service = QueryService(session=session, store=store)

    def ready(server) -> None:
        print(f"repro serve: listening on {args.host}:{server.bound_port}", flush=True)
        if server.bound_metrics_port is not None:
            print(
                f"repro serve: metrics on "
                f"http://{args.host}:{server.bound_metrics_port}/metrics",
                flush=True,
            )
        if store is not None:
            print(f"repro serve: answer cache at {store.path}", flush=True)

    # the same Telemetry install seam the experiments command uses: the
    # registry always exists (it feeds /metrics), the trace is opt-in
    telemetry = obs.Telemetry(trace_path=args.trace)
    try:
        with obs.installed(telemetry):
            return serve(
                service=service,
                host=args.host,
                port=args.port,
                metrics_port=args.metrics_port,
                ready=ready,
            )
    finally:
        telemetry.close()


def _json_failure_sets(tokens: list[str]) -> list:
    """``["0-1,1-2", "3-4"]`` -> protocol failure-set JSON (2 sets)."""
    from .serve.protocol import failure_set_to_json

    sets = []
    for token in tokens:
        sets.append(failure_set_to_json(_parse_failures(token.split(","))))
    return sets


def _cmd_query(args) -> int:
    import json as _json

    from .serve import QueryClient, RemoteError, ServeTimeout

    params: dict = {}
    budget = args.budget
    model = args.failure_model or f"random:samples=10,seed={args.seed}"
    if args.op in ("verdict", "load"):
        if not args.topology or not args.scheme:
            print(f"{args.op} needs --topology and --scheme", file=sys.stderr)
            return 2
        params = {"topology": args.topology, "scheme": args.scheme}
        if args.failures:
            params["failure_sets"] = _json_failure_sets(args.failures)
            if args.destination is not None and args.op == "verdict":
                params["destination"] = _maybe_int(args.destination)
        else:
            # the raw spec string travels; the service parses it with
            # the same grammar the CLI uses (one error surface)
            params["model"] = model
        if args.op == "load":
            params.update({"matrix": args.matrix, "matrix_seed": args.seed})
    elif args.op == "grid":
        if not args.topology:
            print("grid needs --topology (comma-separated names)", file=sys.stderr)
            return 2
        params = {
            "topologies": _split_names(args.topology),
            "schemes": _split_names(args.scheme) if args.scheme else None,
            "matrix": args.matrix,
            "matrix_seed": args.seed,
            "model": model,
        }
    client = QueryClient(
        host=args.host, port=args.port, timeout=args.timeout, retries=args.retries
    )
    try:
        reply = client.request(args.op, params, budget_seconds=budget)
    except RemoteError as error:
        print(f"service error: {error}", file=sys.stderr)
        return 1
    except (ServeTimeout, OSError) as error:
        print(f"cannot reach {args.host}:{args.port}: {error}", file=sys.stderr)
        return 3
    finally:
        client.close()
    if args.json:
        print(_json.dumps(reply, indent=2, sort_keys=True))
        return 0
    result = reply.get("result", {})
    flags = " [partial]" if reply.get("partial") else ""
    flags += " [cached]" if reply.get("cached") else ""
    if args.op == "ping":
        print(f"pong: uptime {result.get('uptime_seconds', 0):.1f}s")
    elif args.op in ("stats", "shutdown"):
        print(_json.dumps(result, indent=2, sort_keys=True))
    elif args.op == "verdict":
        verdict = result["verdict"]
        state = "resilient" if verdict["resilient"] else "NOT resilient"
        if verdict.get("sampled"):
            print(
                f"{args.scheme} on {args.topology}: {state} — "
                f"estimate {verdict['estimate']:.4f} "
                f"[{verdict['ci_low']:.4f}, {verdict['ci_high']:.4f}] 95% CI "
                f"({verdict['samples']}/{verdict['planned_samples']} samples, "
                f"exhaustive={verdict['exhaustive']}){flags}"
            )
        else:
            print(
                f"{args.scheme} on {args.topology}: {state} "
                f"({verdict['scenarios_checked']} scenarios, "
                f"exhaustive={verdict['exhaustive']}){flags}"
            )
        if verdict["counterexample"]:
            print(f"  counterexample: {verdict['counterexample']}")
    elif args.op == "load":
        record = result["record"]
        print(
            f"{args.scheme} on {args.topology} ({record['params']['matrix']}): "
            f"{record['metrics']['completed_sets']}/{record['metrics']['failure_sets']} "
            f"failure sets, worst max_load={record['metrics']['worst_max_load']}, "
            f"min delivered={record['metrics']['min_delivered_fraction']:.3f}{flags}"
        )
    elif args.op == "grid":
        from .experiments import ExperimentRecord, records_table

        records = [ExperimentRecord.from_dict(entry) for entry in result["records"]]
        print(records_table(records) + flags)
    return 0


def _cmd_stats(args) -> int:
    from . import obs

    try:
        if args.validate:
            events = obs.validate_trace(args.file)
            spans = sum(1 for event in events if event["event"] == "end")
            print(f"{args.file}: valid trace ({len(events)} events, {spans} spans)")
            return 0
        print(obs.render_report(args.file, top=args.top), end="")
    except obs.TraceError as error:
        print(f"invalid trace: {error}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as error:
        print(f"cannot render {args.file}: {error}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Static fast rerouting: the DSN'22 'Price of Locality' toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    families = ", ".join(topology_names())
    p = sub.add_parser("classify", help="classify a topology (§VIII)")
    p.add_argument("graph", help=f"family ({families}) or edge-list file")
    p.add_argument("--budget", type=int, default=20_000, help="minor-search budget")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("route", help="route one packet under failures")
    p.add_argument("graph")
    p.add_argument("source")
    p.add_argument("destination")
    p.add_argument("--fail", nargs="*", default=[], help="failed links, e.g. 0-1 2-3")
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("attack", help="run a constructive adversary")
    p.add_argument("kind", choices=["rtolerance", "k7", "k44"])
    p.add_argument("graph")
    p.add_argument("--pattern", choices=["distance2", "random"], default="distance2")
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("tour", help="tour a graph without header information")
    p.add_argument("graph")
    p.add_argument("--fail", nargs="*", default=[])
    p.set_defaults(func=_cmd_tour)

    p = sub.add_parser("zoo", help="run the §VIII case study on the synthetic Zoo")
    p.add_argument("--stride", type=int, default=10, help="use every k-th topology")
    p.add_argument("--seed", type=int, default=2022)
    p.add_argument("--budget", type=int, default=2_000)
    p.set_defaults(func=_cmd_zoo)

    p = sub.add_parser("traffic", help="congestion sweep: route a traffic matrix under failures")
    p.add_argument("graph", help=f"family ({families}) or edge-list file")
    p.add_argument(
        "--matrix",
        choices=["permutation", "all-to-one", "all-to-all", "hotspot", "gravity"],
        default="permutation",
    )
    p.add_argument("--destination", default=None, help="sink for --matrix all-to-one")
    p.add_argument(
        "--algorithm",
        choices=["all", *scheme_names()],
        default="all",
        help="one registered scheme, or 'all' for the comparison harness",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--failure-model",
        default=None,
        metavar="SPEC",
        help="failure-model spec, e.g. 'iid:p=0.01,samples=500,seed=0' (families: random, exhaustive, iid, srlg, regional); default 'random:samples=10' seeded by --seed",
    )
    p.add_argument(
        "--attack", type=int, default=0, metavar="K",
        help="also run a greedy worst-case load attack with up to K failures",
    )
    p.set_defaults(func=_cmd_traffic)

    p = sub.add_parser(
        "experiments",
        help="run a topologies x schemes x failure-models grid from the registries",
    )
    p.add_argument(
        "--topologies",
        default="ring,fattree",
        help="comma-separated registry names; size notation allowed, e.g. ring(12)",
    )
    p.add_argument(
        "--schemes",
        default=None,
        help="comma-separated scheme names (default: every registered scheme)",
    )
    p.add_argument(
        "--metrics",
        nargs="?",
        const=True,
        default="resilience,congestion,stretch,table_space",
        help="metric families to run (comma list); bare --metrics keeps the "
        "default families and additionally dumps the telemetry counters as "
        "Prometheus text after the run",
    )
    p.add_argument("--matrix", default="permutation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--failure-model",
        default=None,
        metavar="SPEC",
        help="failure-model spec, e.g. 'iid:p=0.01,samples=500,seed=0' "
        "(families: random, exhaustive, iid, srlg, regional); default "
        "'random:samples=5' seeded by --seed; sampled models stream "
        "estimates with 95%% CI bounds; honored even under --quick",
    )
    p.add_argument(
        "--backend",
        choices=["engine", "naive", "numpy"],
        default="engine",
        help="session backend: fast scalar engine, naive reference walks, "
        "or the vectorized numpy mask walker (identical verdicts; "
        "numpy needs the optional dependency installed)",
    )
    p.add_argument(
        "--processes",
        type=int,
        default=1,
        metavar="N",
        help="fan grid cells out across N forked workers sharing the "
        "parent's warm engine state (records are stitched in grid "
        "order, identical to a serial run); injected worker faults "
        "fire in this fan-out",
    )
    p.add_argument("--out", default=None, help="merge records into this JSON result store")
    p.add_argument("--csv", default=None, help="also write the records as CSV")
    p.add_argument("--list", action="store_true", help="list registered schemes/topologies")
    p.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: 2 topologies x 3 schemes, JSON round-trip validated",
    )
    p.add_argument(
        "--resume",
        default=None,
        metavar="JOURNAL",
        help="checkpoint/resume: journal each finished cell to this JSONL "
        "file and replay cells already journaled (a killed grid restarts "
        "where it left off)",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop the grid cleanly after this many seconds; completed "
        "cells are kept and the partial grid is flagged non-exhaustive",
    )
    p.add_argument(
        "--inject-faults",
        default=None,
        metavar="PLAN",
        help="deterministic fault injection, e.g. "
        "'cell-error:at=1;worker-crash:at=0' — kinds: cell-error, "
        "grid-kill, worker-crash, slow-chunk, torn-write; selectors: "
        "at=i+j (0-based), rate=0..1, attempts=i+j|all, seconds=s",
    )
    p.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for rate-based fault injection decisions",
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write telemetry spans (append-only JSONL) to PATH; render "
        "with 'repro stats PATH'",
    )
    p.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write a metrics snapshot (JSON) to PATH; render with "
        "'repro stats PATH'",
    )
    p.add_argument(
        "--progress",
        action="store_true",
        help="print a per-cell heartbeat (done/total, errors, ETA) to stderr",
    )
    p.set_defaults(func=_cmd_experiments)

    p = sub.add_parser(
        "serve",
        help="run the persistent resilience-query service (warm caches, "
        "batched sweeps, Lazy-Pirate request-reply)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421, help="TCP port (0 = ephemeral)")
    p.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve GET /metrics (Prometheus text) on this port (0 = ephemeral)",
    )
    p.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="disk-backed ResultStore used as the memoized answer cache "
        "(pre-populate it with 'repro experiments --out PATH')",
    )
    p.add_argument(
        "--backend",
        choices=["engine", "numpy"],
        default="engine",
        help="session backend for the warm engine caches (the naive "
        "reference keeps none, so the service refuses it)",
    )
    p.add_argument(
        "--processes",
        type=int,
        default=1,
        metavar="N",
        help="fan the cells of grid requests out across N forked "
        "workers (verdict and load requests always run in process)",
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write per-request telemetry spans (JSONL) to PATH",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "query",
        help="query a running 'repro serve' (reliable Lazy-Pirate client)",
    )
    p.add_argument(
        "op",
        choices=["ping", "stats", "verdict", "load", "grid", "shutdown"],
        help="operation to run against the service",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421)
    p.add_argument("--timeout", type=float, default=10.0, help="per-attempt reply timeout")
    p.add_argument("--retries", type=int, default=3, help="reconnect-and-resend attempts")
    p.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request compute budget; a cut sweep returns a partial answer",
    )
    p.add_argument("--topology", default=None, help="registry name (comma list for grid)")
    p.add_argument("--scheme", default=None, help="scheme name (comma list for grid)")
    p.add_argument(
        "--failures",
        action="append",
        default=None,
        metavar="SET",
        help="explicit failure set 'u-v,x-y' (repeat for several sets)",
    )
    p.add_argument(
        "--destination", default=None, help="destination node for explicit verdicts"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--failure-model",
        default=None,
        metavar="SPEC",
        help="failure-model spec, e.g. 'iid:p=0.01,samples=500,seed=0' (families: random, exhaustive, iid, srlg, regional); default 'random:samples=10' seeded by --seed",
    )
    p.add_argument("--matrix", default="permutation")
    p.add_argument("--json", action="store_true", help="print the raw reply envelope")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser(
        "stats",
        help="render a telemetry trace or metrics snapshot as a hotspot report",
    )
    p.add_argument(
        "file",
        help="trace JSONL (from experiments --trace) or metrics snapshot "
        "JSON (from experiments --metrics-out)",
    )
    p.add_argument("--top", type=int, default=20, help="span rows to show")
    p.add_argument(
        "--validate",
        action="store_true",
        help="only validate the trace against the event schema and exit",
    )
    p.set_defaults(func=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
