"""``run_grid``: topologies × schemes × failure models × metrics.

The grid runner is the repo's one surface for the paper's comparison:
resolve topologies and schemes *by registry name*, share one seeded
failure grid across every scheme (so competitors face identical
scenarios, exactly like :func:`repro.traffic.congestion.
compare_congestion` — the congestion numbers are differentially equal),
and emit typed :class:`~repro.experiments.results.ExperimentRecord`
rows that serialize to JSON/CSV and merge into a
:class:`~repro.experiments.results.ResultStore`.

Metrics:

* ``resilience`` — does the scheme deliver on every grid scenario that
  keeps source and destination connected (§II, per routing model);
* ``congestion`` — the load curve over failure-set sizes
  (max/mean/p99 link load, delivered fraction) for a traffic matrix;
* ``stretch`` — volume-weighted hop stretch of the delivered traffic,
  from the same load runs;
* ``table_space`` — the §VII analytic rule count of the scheme's
  routing model on the topology.

Schemes whose applicability predicate rejects a topology produce
``status="skipped"`` records instead of crashing the grid.
"""

from __future__ import annotations

import pathlib
import time
import traceback
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

import networkx as nx

from repro import obs as _obs

from ..core.resilience import check_resilience
from ..failures import FailureModel, RandomGridModel, parse_failure_model
from ..runtime.deadline import Budget, Deadline
from ..runtime.faults import GridKill, InjectedFault, fire
from ..runtime.journal import CellJournal
from .registry import (
    SchemeSpec,
    TopologySpec,
    list_schemes,
    resolve_topology,
    scheme as scheme_by_name,
)
from .results import ExperimentRecord, ResultStore, records_table
from .session import ExperimentSession, resolve_session

METRICS = ("resilience", "congestion", "stretch", "table_space")


@dataclass
class GridResult:
    """Everything one ``run_grid`` call produced.

    ``exhaustive`` is ``False`` when a deadline cut the grid before
    every cell ran or cut a cell's sampled estimate short;
    ``resumed_cells`` counts cells replayed from a journal instead of
    recomputed; :attr:`errors` views the cells that raised (typed
    ``status="error"`` records — the grid itself never aborts on a cell
    exception).  ``saved`` is what a store receives: every record but
    those of cells whose sampled estimate was cut short.
    """

    records: list[ExperimentRecord] = field(default_factory=list)
    skipped: list[tuple[str, str, str]] = field(default_factory=list)
    exhaustive: bool = True
    resumed_cells: int = 0
    saved: list[ExperimentRecord] = field(default_factory=list)

    def table(self) -> str:
        return records_table(self.records)

    def select(self, experiment: str) -> list[ExperimentRecord]:
        return [record for record in self.records if record.experiment == experiment]

    @property
    def errors(self) -> list[ExperimentRecord]:
        return [record for record in self.records if record.status == "error"]


def _resolve_topologies(
    topologies: Iterable,
) -> list[tuple[str, nx.Graph]]:
    resolved: list[tuple[str, nx.Graph]] = []
    for item in topologies:
        if isinstance(item, str):
            resolved.append((item, resolve_topology(item)))
        elif isinstance(item, TopologySpec):
            resolved.append((item.name, item.build()))
        elif isinstance(item, tuple) and len(item) == 2:
            resolved.append(item)
        elif isinstance(item, nx.Graph):
            resolved.append((f"graph(n={item.number_of_nodes()})", item))
        else:
            raise TypeError(f"not a topology name, spec, (name, graph) pair or graph: {item!r}")
    return resolved


def _resolve_schemes(schemes: Iterable | None) -> list[SchemeSpec]:
    if schemes is None:
        return list_schemes()
    resolved: list[SchemeSpec] = []
    for item in schemes:
        if isinstance(item, str):
            resolved.append(scheme_by_name(item))
        elif isinstance(item, SchemeSpec):
            resolved.append(item)
        else:
            raise TypeError(f"not a scheme name or SchemeSpec: {item!r}")
    return resolved


def _resolve_failure_models(models: Sequence | None) -> list[FailureModel]:
    """Models, spec strings, or ``None`` (the default random grid)."""
    if models is None:
        return [RandomGridModel()]
    resolved: list[FailureModel] = []
    for item in models:
        if isinstance(item, str):
            resolved.append(parse_failure_model(item))
        elif isinstance(item, FailureModel):
            resolved.append(item)
        else:
            raise TypeError(f"not a failure model or spec string: {item!r}")
    return resolved


def _cell_key(
    topology_name: str,
    scheme_name: str,
    model: FailureModel,
    matrix: str,
    matrix_seed: int,
    metrics: Sequence[str],
) -> str:
    """The journal identity of one grid cell.

    Everything that determines the cell's records is in the key, so a
    resumed run with different metrics, matrix or failure model never
    replays a stale cell.
    """
    return "|".join(
        [
            topology_name,
            scheme_name,
            model.label,
            f"matrix={matrix}:{matrix_seed}",
            "metrics=" + ",".join(metrics),
        ]
    )


@dataclass
class _Skip:
    """Plan item: a scheme whose applicability predicate rejects a
    topology.  Deterministic and instant: not a cell, never journaled."""

    topology_name: str
    scheme_name: str
    reason: str


@dataclass
class _Cell:
    """Plan item: one journaled (topology, scheme, failure model) unit.

    ``replay`` holds a journaled cell's records; ``None`` means the cell
    is computed.
    """

    key: str
    topology_name: str
    graph: nx.Graph
    spec: SchemeSpec
    model: FailureModel
    grid: dict | None
    demands: Any
    matrix_name: str
    include_static: bool
    replay: list[ExperimentRecord] | None = None


def _plan_grid(
    resolved_topologies: Sequence[tuple[str, nx.Graph]],
    resolved_schemes: Sequence[SchemeSpec],
    failure_models: Sequence[FailureModel],
    metrics: Sequence[str],
    matrix: str,
    matrix_seed: int,
    journal: CellJournal | None,
) -> Iterator[_Skip | _Cell]:
    """The grid in order: skip items and cells, journaled cells replayed.

    One seeded grid per (topology, failure model) and one demand matrix
    per topology, shared by every scheme — identical scenarios across
    competitors, no per-cell rebuilds.  Sampled models have no grid:
    their cells stream via the estimator.  Items are yielded lazily, so
    a consumer that stops early never builds the later topologies'
    grids, and only one topology's grids are alive at a time.
    """
    needs_matrix = "congestion" in metrics or "stretch" in metrics
    for topology_name, graph in resolved_topologies:
        grids = {
            model: None if model.sampled else model.grid(graph) for model in failure_models
        }
        demands = None
        matrix_name = ""
        if needs_matrix:
            from ..traffic.matrices import build_named_matrix

            demands, matrix_name = build_named_matrix(graph, matrix, seed=matrix_seed)
        for spec in resolved_schemes:
            if not spec.applicable(graph):
                yield _Skip(topology_name, spec.name, f"requires {spec.requires}")
                continue
            for index, model in enumerate(failure_models):
                key = _cell_key(topology_name, spec.name, model, matrix, matrix_seed, metrics)
                replay = None
                if journal is not None and key in journal:
                    replay = [ExperimentRecord.from_dict(entry) for entry in journal.payload(key)]
                yield _Cell(
                    key,
                    topology_name,
                    graph,
                    spec,
                    model,
                    grids[model],
                    demands,
                    matrix_name,
                    include_static=index == 0,
                    replay=replay,
                )


def run_grid(
    topologies: Iterable,
    schemes: Iterable | None = None,
    failure_models: Sequence | None = None,
    metrics: Sequence[str] = METRICS,
    matrix: str = "permutation",
    matrix_seed: int = 0,
    session: ExperimentSession | None = None,
    store: ResultStore | None = None,
    deadline: Deadline | None = None,
    resume: str | pathlib.Path | CellJournal | None = None,
    progress=None,
) -> GridResult:
    """Evaluate every (topology × scheme × failure model) cell.

    ``topologies`` and ``schemes`` are registry names (topologies also
    accept ``"name(args)"`` size notation, prebuilt graphs, or specs);
    ``schemes=None`` runs every registered scheme, skipping those whose
    applicability predicate rejects a topology.  ``failure_models``
    accepts :class:`repro.failures.FailureModel` instances or spec
    strings (``"iid:p=0.01,samples=500,seed=0"`` — see
    :func:`repro.failures.parse_failure_model`); grid models sweep their
    deterministic grids exactly as before, while sampled models stream
    through :mod:`repro.failures.estimate` and emit estimate/CI records
    (one deadline/budget unit charged per sample, on top of the one
    charged per cell).  Pass ``store`` to merge
    the records into a persistent :class:`ResultStore` on the way out.

    The run is plan → execute → stitch: one planning walk orders the
    skip records, journal replays and compute cells; an executor yields
    the computed cells' outputs; one stitch loop publishes everything
    in grid order.

    Robustness seams:

    * A cell that raises does not abort the grid — it becomes one
      ``status="error"`` record (exception summary in ``note``, full
      traceback in ``params["traceback"]``), visible via
      :attr:`GridResult.errors`.
    * ``resume`` names a :class:`CellJournal` (path or instance): every
      finished cell — including errored ones — is durably journaled as
      it completes, and cells already in the journal are replayed
      instead of recomputed, so a killed grid restarts where it left
      off and produces the identical record list.
    * ``deadline`` is checked before every cell, replayed or computed,
      and charged one unit after every computed cell; skip records are
      not cells.  On expiry the grid stops cleanly with
      ``exhaustive=False``.  Grid-model cells are always whole; a
      sampled cell whose estimate the deadline cut short is published
      (its records flagged ``exhaustive: false``) but never journaled,
      merged into ``store`` or listed in :attr:`GridResult.saved`, so a
      rerun recomputes it.
    * ``progress`` is an opt-in heartbeat: a callable invoked after
      every cell (computed or replayed) with a dict of ``done``,
      ``total``, ``errors``, ``replayed``, ``elapsed`` seconds and an
      ``eta`` estimate (``None`` until the first cell lands).  It never
      touches records — purely an observer.
    * The session's ``processes`` only picks the executor.
      With one process the plan is consumed lazily and each cell runs
      in process as the stitch loop reaches it.  With more, compute
      cells fan out across forked workers that adopt the parent's warm
      session state (engine indexes are pre-built per topology, so
      workers inherit them as copy-on-write pages instead of
      re-indexing); the checkers inside a cell run in process, so this
      is the grid's only fan-out.  There the wall clock is checked once
      before the fork and then by each worker as it starts a cell: the
      stitch loop stops at the first cell no worker started, and itself
      checks only the budget units it charges, so every cell a worker
      finished is published and journaled.  A pool still short of a
      cell ``HANG_GRACE_SECONDS`` past the deadline is abandoned as
      hung, however recently another cell finished: its lost cells
      count as not started.  Either way the same stitch loop publishes
      the output, so it is identical to a serial run apart from
      ``runtime_seconds`` wall-clock noise (and, under a wall-clock
      deadline, where the cut falls).
    * An installed fault plan decides in the parent under either
      executor: ``grid-kill`` and ``cell-error`` fire as the stitch
      loop reaches a cell (in a parallel run the parent builds the
      ``cell-error`` record in place of what the worker computed), and
      ``worker-crash`` / ``slow-chunk`` fire per computed cell in the
      fan-out, whose recovery leaves the records unchanged.
    """
    unknown = set(metrics) - set(METRICS)
    if unknown:
        raise ValueError(f"unknown metrics {sorted(unknown)}; known: {METRICS}")
    session = resolve_session(session)
    journal: CellJournal | None
    if resume is None or isinstance(resume, CellJournal):
        journal = resume
    else:
        journal = CellJournal(resume)
    failure_models = _resolve_failure_models(failure_models)
    resolved_schemes = _resolve_schemes(schemes)
    resolved_topologies = _resolve_topologies(topologies)
    plan: Iterable[_Skip | _Cell] = _plan_grid(
        resolved_topologies,
        resolved_schemes,
        failure_models,
        metrics,
        matrix,
        matrix_seed,
        journal,
    )
    # one algorithm instance per scheme: every cell of the scheme shares
    # the patterns the engine states cache for that instance
    algorithms: dict[int, Any] = {}

    def compute(cell: _Cell, injected: InjectedFault | None = None):
        start = time.perf_counter()
        with _obs.span(
            "grid_cell",
            topology=cell.topology_name,
            scheme=cell.spec.name,
            failure_model=cell.model.label,
        ):
            try:
                if injected is not None:
                    raise injected
                algorithm = algorithms.get(id(cell.spec))
                if algorithm is None:
                    algorithm = algorithms[id(cell.spec)] = cell.spec.instantiate()
                records = _run_cell(
                    session,
                    cell.topology_name,
                    cell.graph,
                    cell.spec,
                    algorithm,
                    cell.model,
                    cell.grid,
                    metrics,
                    cell.demands,
                    cell.matrix_name,
                    include_static=cell.include_static,
                    # wall-clock deadlines are fork-consistent; Budget
                    # units charged by a worker's sampler stay in the
                    # worker (unit budgets bound driver-side loops)
                    deadline=deadline,
                )
            except Exception as error:  # noqa: BLE001 - any cell bug becomes a record
                records = [
                    ExperimentRecord(
                        experiment="error",
                        topology=cell.topology_name,
                        scheme=cell.spec.name,
                        failure_model=cell.model.label,
                        status="error",
                        note=f"{type(error).__name__}: {error}",
                        params={"matrix": cell.matrix_name, "traceback": traceback.format_exc()},
                        runtime_seconds=time.perf_counter() - start,
                    )
                ]
        return records, time.perf_counter() - start

    grid_start = time.perf_counter()
    if session.processes > 1:
        from ..core.engine.sweep import HANG_GRACE_SECONDS, parallel_map

        plan = list(plan)
        tasks = [item for item in plan if isinstance(item, _Cell) and item.replay is None]
        outputs: Iterator = iter(())
        # the wall clock is checked once here, before the fork, and then
        # by each worker as it starts a cell; after the fork the parent
        # checks only what the workers cannot see: units it charges
        expired_at_fork = deadline is not None and deadline.expired()
        if not expired_at_fork:
            if session.use_engine:
                # pre-warm: build the index maps before the fork so every
                # worker inherits them instead of rebuilding per cell
                for _, graph in resolved_topologies:
                    session.state(graph)

            def start_cell(position: int):
                # items are plain indices: the cells (graphs, schemes,
                # demand matrices) ride into forked workers through this
                # closure via fork inheritance, never through pickling
                if deadline is not None and deadline.expired():
                    return None  # not started: the stitch loop stops here
                return compute(tasks[position])

            # a worker checks the wall clock only as it starts a cell:
            # a pool still busy past the deadline (plus a grace) is hung,
            # and the retry of each cell it lost finds the deadline expired
            remaining = deadline.remaining() if deadline is not None else None
            timeout = None if remaining is None else remaining + HANG_GRACE_SECONDS
            outputs = iter(
                parallel_map(start_cell, range(len(tasks)), session.processes, timeout=timeout)
            )

        def stopped() -> bool:
            return expired_at_fork or (
                isinstance(deadline, Budget) and not deadline.remaining_units()
            )

        def execute(cell: _Cell, injected: InjectedFault | None):
            output = next(outputs)
            if output is None or injected is None:
                return output
            # the parent decided this cell's fault: its error record
            # replaces what the worker computed, as in a serial run
            return compute(cell, injected)

    else:

        def stopped() -> bool:
            return deadline is not None and deadline.expired()

        execute = compute

    result = GridResult()
    telemetry = _obs.active()
    total_cells = 0
    if progress is not None:
        # the heartbeat's denominator: applicability predicates are
        # cheap and pure, so probing them ahead of the plan is safe
        total_cells = sum(
            len(failure_models)
            for _, graph in resolved_topologies
            for spec in resolved_schemes
            if spec.applicable(graph)
        )
    cell_index = 0  # cells published so far, replayed or computed
    error_cells = 0
    for item in plan:
        if isinstance(item, _Skip):
            result.skipped.append((item.topology_name, item.scheme_name, item.reason))
            if telemetry is not None:
                telemetry.count(
                    "repro_grid_cells_total",
                    len(failure_models),
                    help="grid cells by status",
                    status="skipped",
                )
            skips = [
                ExperimentRecord(
                    experiment="applicability",
                    topology=item.topology_name,
                    scheme=item.scheme_name,
                    failure_model=model.label,
                    status="skipped",
                    note=item.reason,
                )
                for model in failure_models
            ]
            result.records.extend(skips)
            result.saved.extend(skips)
            continue
        if stopped():
            result.exhaustive = False
            break
        if item.replay is not None:
            # replayed cells keep their grid position (and cell index)
            # so resumed output is identical to an uninterrupted run
            records = item.replay
            status = "replayed"
            result.resumed_cells += 1
            result.saved.extend(records)
        else:
            fault = fire("cell", cell_index)
            if fault is not None and fault.kind == "grid-kill":
                # BaseException: the per-cell recovery must not be able
                # to catch a simulated hard crash
                raise GridKill(f"injected grid kill at cell {cell_index}: {item.key}")
            injected = None
            if fault is not None and fault.kind == "cell-error":
                injected = InjectedFault(f"injected cell error at cell {cell_index}")
            output = execute(item, injected)
            if output is None:
                result.exhaustive = False
                break
            records, elapsed = output
            cell_failed = any(record.status == "error" for record in records)
            error_cells += cell_failed
            status = "error" if cell_failed else "ok"
            if telemetry is not None:
                telemetry.observe(
                    "repro_grid_cell_seconds",
                    elapsed,
                    help="wall-clock seconds per computed grid cell",
                )
            # decided from the records: a forked worker's budget charges
            # never reach this process's deadline
            if any(_cut_estimate(record) for record in records):
                # reported, never saved: a rerun must recompute the cell
                # rather than replay or serve a partial estimate
                result.exhaustive = False
            else:
                if journal is not None:
                    # journal before publishing: the invariant is that
                    # every cell whose records are visible is journaled,
                    # so a kill between the two costs one recomputation,
                    # never a lost cell
                    journal.append(item.key, [record.to_dict() for record in records])
                result.saved.extend(records)
        if telemetry is not None:
            telemetry.count("repro_grid_cells_total", help="grid cells by status", status=status)
        result.records.extend(records)
        cell_index += 1
        if progress is not None:
            running = time.perf_counter() - grid_start
            progress(
                {
                    "done": cell_index,
                    "total": total_cells,
                    "errors": error_cells,
                    "replayed": result.resumed_cells,
                    "elapsed": running,
                    "eta": running / cell_index * max(total_cells - cell_index, 0),
                }
            )
        if item.replay is None and deadline is not None:
            deadline.charge()
    if store is not None:
        store.merge(result.saved)
    return result


def _cut_estimate(record: ExperimentRecord) -> bool:
    """Is ``record`` a sampled estimate that stopped short of its plan?"""
    return bool(record.metrics.get("sampled")) and not record.metrics.get("exhaustive")


def _run_cell(
    session: ExperimentSession,
    topology_name: str,
    graph: nx.Graph,
    spec: SchemeSpec,
    algorithm,
    model: FailureModel,
    grid: dict | None,
    metrics: Sequence[str],
    demands,
    matrix_name: str,
    include_static: bool = True,
    deadline: Deadline | None = None,
) -> list[ExperimentRecord]:
    records: list[ExperimentRecord] = []
    base = dict(topology=topology_name, scheme=spec.name, failure_model=model.label)

    if model.sampled:
        _sampled_cell(
            records, session, graph, spec, algorithm, model, metrics,
            demands, matrix_name, base, deadline,
        )
    if "resilience" in metrics and not model.sampled:
        start = time.perf_counter()
        failure_sets = [failures for size in sorted(grid) for failures in grid[size]]
        verdict = check_resilience(graph, algorithm, failure_sets=failure_sets, session=session)
        records.append(
            ExperimentRecord(
                experiment="resilience",
                metrics={
                    "resilient": bool(verdict.resilient),
                    "scenarios_checked": verdict.scenarios_checked,
                    "exhaustive": bool(verdict.exhaustive),
                },
                params={"model": spec.arity},
                runtime_seconds=time.perf_counter() - start,
                note=str(verdict.counterexample) if verdict.counterexample else "",
                **base,
            )
        )

    needs_curve = ("congestion" in metrics or "stretch" in metrics) and not model.sampled
    if needs_curve:
        start = time.perf_counter()
        curve, error = _congestion_curve(
            session, graph, algorithm, grid, topology_name, demands, matrix_name
        )
        elapsed = time.perf_counter() - start
        if curve is None:
            for experiment in ("congestion", "stretch"):
                if experiment in metrics:
                    records.append(
                        ExperimentRecord(
                            experiment=experiment,
                            status="skipped",
                            note=error or "pattern construction failed",
                            # same merge identity as the ok record would
                            # have: a later ok run replaces this skip
                            params={"matrix": matrix_name},
                            runtime_seconds=elapsed,
                            **base,
                        )
                    )
        else:
            series = [
                {
                    "failures": point.failures,
                    "scenarios": point.scenarios,
                    "mean_max_load": point.mean_max_load,
                    "worst_max_load": point.worst_max_load,
                    "mean_p99_load": point.mean_p99_load,
                    "delivered_fraction": point.delivered_fraction,
                    "mean_stretch": point.mean_stretch,
                }
                for point in curve.points
            ]
            last = curve.points[-1]
            if "congestion" in metrics:
                records.append(
                    ExperimentRecord(
                        experiment="congestion",
                        metrics={
                            "worst_max_load": max(p.worst_max_load for p in curve.points),
                            "mean_max_load_at_max_failures": last.mean_max_load,
                            "delivered_fraction_at_max_failures": last.delivered_fraction,
                        },
                        series=series,
                        params={"matrix": curve.matrix, "samples": getattr(model, "samples", 0)},
                        runtime_seconds=elapsed,
                        **base,
                    )
                )
            if "stretch" in metrics:
                records.append(
                    ExperimentRecord(
                        experiment="stretch",
                        metrics={
                            "mean_stretch_at_max_failures": last.mean_stretch,
                            "max_mean_stretch": max(p.mean_stretch for p in curve.points),
                        },
                        series=[
                            {"failures": p["failures"], "mean_stretch": p["mean_stretch"]}
                            for p in series
                        ],
                        params={"matrix": curve.matrix},
                        # the curve is computed once; attribute its cost to
                        # the congestion record when both metrics ride it,
                        # so summed runtimes do not double-count
                        runtime_seconds=0.0 if "congestion" in metrics else elapsed,
                        **base,
                    )
                )

    if "table_space" in metrics and include_static:
        # failure-model independent: emitted once per (topology, scheme)
        from ..analysis.table_space import table_space
        from ..core.model import RoutingModel

        start = time.perf_counter()
        space = table_space(graph, name=topology_name)
        rules = {
            RoutingModel.SOURCE_DESTINATION: space.source_destination_rules,
            RoutingModel.DESTINATION: space.destination_rules,
            RoutingModel.PORT: space.touring_rules,
        }[spec.model]
        records.append(
            ExperimentRecord(
                experiment="table_space",
                metrics={
                    "rules": rules,
                    "touring_rules": space.touring_rules,
                    # blow-up factor: how many times MORE rules than touring
                    "rules_vs_touring": rules / space.touring_rules if space.touring_rules else 0.0,
                },
                params={"model": spec.arity, "analytic": True},
                runtime_seconds=time.perf_counter() - start,
                **dict(base, failure_model=""),  # not a failure-model metric
            )
        )
    return records


def _sampled_cell(
    records: list[ExperimentRecord],
    session: ExperimentSession,
    graph: nx.Graph,
    spec: SchemeSpec,
    algorithm,
    model: FailureModel,
    metrics: Sequence[str],
    demands,
    matrix_name: str,
    base: dict,
    deadline: Deadline | None,
) -> None:
    """The estimator path for sampled failure models.

    Same record identities as the grid path (``resilience`` /
    ``congestion`` / ``stretch`` under the model's label), but the
    metrics carry point estimates with Wilson CI bounds and the series
    holds running refinement checkpoints.  A deadline/budget cut leaves
    ``exhaustive=False`` on whatever samples completed.
    """
    from ..failures.estimate import estimate_congestion, estimate_resilience

    if "resilience" in metrics:
        start = time.perf_counter()
        estimate = estimate_resilience(
            graph, algorithm, model, session=session, deadline=deadline
        )
        records.append(
            ExperimentRecord(
                experiment="resilience",
                metrics=estimate.metrics(),
                series=list(estimate.series),
                params={"model": spec.arity},
                runtime_seconds=time.perf_counter() - start,
                note=estimate.note,
                **base,
            )
        )
    if "congestion" in metrics or "stretch" in metrics:
        start = time.perf_counter()
        estimate, error = estimate_congestion(
            graph, algorithm, demands, model, session=session, deadline=deadline
        )
        elapsed = time.perf_counter() - start
        if estimate is None:
            for experiment in ("congestion", "stretch"):
                if experiment in metrics:
                    records.append(
                        ExperimentRecord(
                            experiment=experiment,
                            status="skipped",
                            note=error or "pattern construction failed",
                            params={"matrix": matrix_name},
                            runtime_seconds=elapsed,
                            **base,
                        )
                    )
            return
        if "congestion" in metrics:
            records.append(
                ExperimentRecord(
                    experiment="congestion",
                    metrics=estimate.metrics(),
                    series=list(estimate.series),
                    params={"matrix": matrix_name, "samples": model.samples},
                    runtime_seconds=elapsed,
                    **base,
                )
            )
        if "stretch" in metrics:
            records.append(
                ExperimentRecord(
                    experiment="stretch",
                    metrics=estimate.stretch_metrics(),
                    series=[
                        {"samples": point["samples"], "mean_stretch": point["mean_stretch"]}
                        for point in estimate.series
                    ],
                    params={"matrix": matrix_name},
                    runtime_seconds=0.0 if "congestion" in metrics else elapsed,
                    **base,
                )
            )


def _congestion_curve(
    session: ExperimentSession,
    graph: nx.Graph,
    algorithm,
    grid,
    topology_name: str,
    demands,
    matrix_name: str,
):
    """The scheme's congestion curve on the shared grid, or a skip reason.

    This mirrors :func:`repro.traffic.congestion.compare_congestion`
    exactly — same pre-flight, same ``load_sweep`` on the session's load
    router — so grid records are differentially equal to the comparison
    harness.  On a ``backend="naive"`` session that router's state walks
    every demand with the reference simulator
    (:func:`repro.traffic.load.per_packet_loads`): the reference surface
    differential tests compare against.
    """
    from ..traffic.congestion import preflight_congestion_curve

    return preflight_congestion_curve(
        session.traffic_engine(graph, algorithm),
        algorithm,
        demands,
        grid,
        graph_name=topology_name,
        matrix_name=matrix_name,
    )
