"""The query engine behind ``repro serve`` (transport-independent).

:class:`QueryService` answers the protocol's compute ops — ``verdict``,
``load``, ``grid`` — against one long-lived, warm engine-backed
:class:`~repro.experiments.session.ExperimentSession` (a naive session
is refused: it keeps no warm state, and the explicit verdicts and loads
would not honour it):

* **One resolution per request.**  A ``verdict`` or ``load`` request is
  resolved once — topology, scheme, explicit failure sets or model,
  label, destination, matrix name and seed — into the identity fields of
  the record its answer will carry.  The answer-cache identity is that
  record's :meth:`~repro.experiments.results.ExperimentRecord.key`, and
  the computation completes the same record, so the two cannot drift.
  Resolving touches no engine state.
* **Warm caches.**  Topologies are resolved once per name and kept (a
  stable graph identity is what makes the session's fingerprint-keyed
  ``EngineState`` / ``TrafficEngine`` caches hit), and each scheme is
  instantiated once per name, so every request for it shares one
  algorithm instance — and with it the session state's pattern cache,
  which builds each forwarding pattern and decision table once per
  graph.  Every evaluated failure mask's outcome is memoized per
  (topology, scheme, destination) — a mask asked twice is never walked
  twice.
* **Answer cache.**  When constructed with a disk-backed
  :class:`~repro.experiments.results.ResultStore`, every computed
  answer is merged in as a typed
  :class:`~repro.experiments.results.ExperimentRecord` and every
  request first consults the store's O(1) identity index — a store
  pre-populated by an offline ``run_grid`` serves those answers without
  recomputation.  Partial (deadline-cut) answers are never cached.
* **Identical answers.**  The compute paths are the very seams
  ``run_grid`` and the checkers use (``sweep_resilience`` /
  ``TrafficEngine.load_sweep`` on session-owned state), so service
  answers are byte-identical to the offline surfaces — the differential
  tests pin this.
* **Batching.**  :meth:`run_batch` answers a group of concurrent
  requests in one go: identical queries compute once, and verdict
  queries for the same (topology, scheme, destination) share the cached
  pattern and the mask-outcome memo, so each distinct mask across the
  whole group is walked once.

Every envelope may carry ``budget_seconds``; it is threaded as a
:class:`~repro.runtime.deadline.Deadline` into the sweeps, and a cut
sweep comes back as a best-effort answer flagged ``partial``.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import OrderedDict
from dataclasses import dataclass, replace

import networkx as nx

from repro import obs as _obs

from ..core.engine.sweep import ScenarioGrid, sweep_resilience
from ..core.model import DestinationAlgorithm
from ..core.resilience import Verdict
from ..experiments.registry import SchemeNotApplicable, SchemeSpec, scheme as scheme_by_name
from ..experiments.results import ExperimentRecord, ResultStore
from ..experiments.runner import METRICS, run_grid
from ..experiments.session import ExperimentSession
from ..failures import estimate_resilience, parse_failure_model
from ..failures.models import FailureModel
from ..runtime.deadline import Deadline
from .protocol import (
    Request,
    error_response,
    failure_set_to_json,
    failure_sets_from_json,
    failure_sets_to_json,
    node_from_json,
    node_to_json,
    ok_response,
)

#: resolved topologies kept warm, per registry name (FIFO)
GRAPH_CACHE_LIMIT = 32
#: memoized per-mask outcomes kept (FIFO over all patterns)
MASK_MEMO_LIMIT = 65536
#: the params each compute op takes; a request naming any other is refused
OP_PARAMS = {
    "verdict": frozenset({"topology", "scheme", "failure_sets", "destination", "model"}),
    "load": frozenset(
        {"topology", "scheme", "failure_sets", "destination", "model", "matrix", "matrix_seed"}
    ),
    "grid": frozenset({"topologies", "schemes", "metrics", "model", "matrix", "matrix_seed"}),
}


class QueryError(ValueError):
    """A request whose params cannot be served (bad names, bad shapes)."""


def _require(params: dict, name: str) -> object:
    value = params.get(name)
    if value is None:
        raise QueryError(f"missing required param {name!r}")
    return value


def _check_params(op: str, params: dict) -> None:
    """Refuse a param the op does not take, rather than ignore it."""
    unknown = sorted(set(params) - OP_PARAMS[op])
    if unknown:
        raise QueryError(
            f"{op} does not take {', '.join(map(repr, unknown))}; "
            f"its params: {', '.join(sorted(OP_PARAMS[op]))}"
        )


def _failure_model(params: dict) -> FailureModel:
    """The request's ``model``, a spec string or label parsed by
    :func:`repro.failures.parse_failure_model` (the grammar of the CLI
    and ``run_grid``); ``random`` when absent or null."""
    spec = params.get("model")
    try:
        return parse_failure_model("random" if spec is None else spec)
    except ValueError as error:
        raise QueryError(str(error)) from None


def _explicit_label(masks, destination) -> str:
    """Deterministic failure-model label for an explicit mask list.

    The digest covers the canonical JSON of the masks (and the
    destination), so the same query from any process maps to the same
    answer-cache identity.
    """
    canonical = json.dumps(
        {"masks": failure_sets_to_json(masks), "destination": node_to_json(destination)},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
    return f"explicit(n={len(masks)},sha={digest})"


def serialize_report(report, failures) -> dict:
    """Canonical JSON form of one :class:`~repro.traffic.load.LoadReport`.

    Lossless on the accounting fields and the integer per-link loads;
    shared by the service and the differential tests, so "byte-identical
    to offline ``load_sweep``" is checked against one serializer.
    """
    return {
        "failures": failure_set_to_json(failures),
        "loads": [
            [node_to_json(u), node_to_json(v), load]
            for (u, v), load in sorted(report.loads.items(), key=lambda item: repr(item[0]))
        ],
        "demands": report.demands,
        "total_volume": report.total_volume,
        "delivered_volume": report.delivered_volume,
        "dropped_volume": report.dropped_volume,
        "looped_volume": report.looped_volume,
        "disconnected_volume": report.disconnected_volume,
        "delivered_hops": report.delivered_hops,
        "stretch_volume": report.stretch_volume,
        "max_load": report.max_load,
        "p99_load": report.p99_load,
        "delivered_fraction": report.delivered_fraction,
        "mean_stretch": report.mean_stretch,
    }


@dataclass
class _Query:
    """A ``verdict`` or ``load`` request, resolved once.

    ``record`` holds the identity fields of the record the answer will
    carry (its :meth:`~repro.experiments.results.ExperimentRecord.key`
    is the answer-cache identity); the computation completes it.
    ``masks`` are the explicit failure sets, else ``model`` supplies
    them; ``demands`` is the load request's traffic matrix.
    """

    record: ExperimentRecord
    spec: SchemeSpec
    graph: nx.Graph
    masks: list | None
    model: FailureModel | None
    destination: object
    demands: list | None

    def failure_sets(self) -> list:
        """The explicit masks, else the model's grid, smallest sets first."""
        if self.masks is not None:
            return self.masks
        grid = self.model.grid(self.graph)
        return [failures for size in sorted(grid) for failures in grid[size]]


class QueryService:
    """Evaluates protocol requests against one warm session (see module doc)."""

    def __init__(
        self,
        session: ExperimentSession | None = None,
        store: ResultStore | None = None,
    ):
        self.session = session if session is not None else ExperimentSession()
        if self.session.backend == "naive":
            raise ValueError(
                "the query service needs an engine-backed session: a naive "
                "session keeps no warm state for it to serve from"
            )
        self.store = store
        self.started = time.monotonic()
        self.stats_counters = {
            "store_hits": 0,
            "store_misses": 0,
            "mask_memo_hits": 0,
            "mask_memo_misses": 0,
            "batches": 0,
            "batched_requests": 0,
        }
        self._graphs: OrderedDict[str, object] = OrderedDict()
        #: scheme name -> its one algorithm instance
        self._algorithms: dict[str, object] = {}
        #: (topology, scheme, destination, mask) -> mask outcome
        self._outcomes: OrderedDict[tuple, tuple] = OrderedDict()

    # -- warm resolution ---------------------------------------------------

    def graph(self, topology: str):
        """The topology's graph, resolved once and kept (stable identity)."""
        cached = self._graphs.get(topology)
        if cached is not None:
            self._graphs.move_to_end(topology)
            return cached
        from ..experiments.registry import resolve_topology

        try:
            graph = resolve_topology(topology)
        except KeyError as error:
            raise QueryError(str(error).strip('"')) from None
        while len(self._graphs) >= GRAPH_CACHE_LIMIT:
            self._graphs.popitem(last=False)
        self._graphs[topology] = graph
        return graph

    def _scheme(self, name: str):
        try:
            return scheme_by_name(name)
        except KeyError as error:
            raise QueryError(str(error).strip('"')) from None

    def _algorithm(self, spec):
        """The scheme's one algorithm instance: the session states key
        their pattern caches on it, so every request shares its builds."""
        algorithm = self._algorithms.get(spec.name)
        if algorithm is None:
            algorithm = self._algorithms[spec.name] = spec.instantiate()
        return algorithm

    def _resolve(self, op: str, params: dict) -> _Query:
        """Parse a ``verdict`` or ``load`` request's params, once.

        Resolves the graph (kept warm) and, for a load, builds the
        traffic matrix with its name from :mod:`repro.traffic.matrices`;
        builds nothing on the engine, so the server can answer a hot
        query straight off the store index.
        """
        from ..traffic.matrices import build_named_matrix

        _check_params(op, params)
        topology = str(_require(params, "topology"))
        spec = self._scheme(str(_require(params, "scheme")))
        graph = self.graph(topology)
        explicit = params.get("failure_sets")
        masks = failure_sets_from_json(explicit) if explicit is not None else None
        model = _failure_model(params) if masks is None else None
        destination = params.get("destination")
        if destination is not None:
            destination = node_from_json(destination)
        demands = None
        if op == "verdict":
            experiment = "resilience"
            record_params = {"model": spec.arity}
            if masks is None:
                destination = None  # a model verdict covers every destination
            else:
                if destination is not None and destination not in graph:
                    raise QueryError(f"destination {destination!r} is not a node of {topology}")
                record_params["destination"] = node_to_json(destination)
        else:
            experiment = "load"
            matrix_seed = params.get("matrix_seed", 0)
            try:
                demands, matrix_name = build_named_matrix(
                    graph,
                    params.get("matrix", "permutation"),
                    seed=matrix_seed,
                    destination=destination,
                )
            except ValueError as error:
                raise QueryError(str(error)) from None
            record_params = {"matrix": matrix_name, "matrix_seed": matrix_seed}
        if masks is None:
            label = model.label
        else:
            # a load's destination is already part of its matrix name
            label = _explicit_label(masks, destination if op == "verdict" else None)
        record = ExperimentRecord(
            experiment=experiment,
            topology=topology,
            scheme=spec.name,
            failure_model=label,
            params=record_params,
        )
        return _Query(record, spec, graph, masks, model, destination, demands)

    def _applicable_algorithm(self, query: _Query):
        if not query.spec.applicable(query.graph):
            raise SchemeNotApplicable(f"{query.spec.name} requires {query.spec.requires}")
        return self._algorithm(query.spec)

    # -- the batched mask walk --------------------------------------------

    def _masked_verdict(self, query: _Query) -> Verdict:
        """Fold memoized per-mask outcomes into the sweep's exact verdict.

        Each mask's outcome — ``(scenarios checked, Counterexample |
        None)`` from the engine's :meth:`~repro.core.engine.sweep.
        EngineState.mask_outcome`, the same per-mask check the sweeps
        run — is memoized per (topology, scheme, destination, mask): the
        coalescing seam that lets concurrent queries share walks.
        """
        destination = query.destination
        state = self.session.state(query.graph)
        memo = state.pattern(self._algorithm(query.spec), destination)
        checked = 0
        for failures in query.masks:
            key = (query.record.topology, query.spec.name, destination, failures)
            outcome = self._outcomes.get(key)
            if outcome is None:
                self.stats_counters["mask_memo_misses"] += 1
                outcome = state.mask_outcome(memo, destination, failures)
                while len(self._outcomes) >= MASK_MEMO_LIMIT:
                    self._outcomes.popitem(last=False)
                self._outcomes[key] = outcome
            else:
                self.stats_counters["mask_memo_hits"] += 1
            count, counterexample = outcome
            checked += count
            if counterexample is not None:
                return Verdict(False, checked, counterexample, exhaustive=False)
        return Verdict(True, checked, exhaustive=False)

    # -- ops ---------------------------------------------------------------

    def verdict(self, params: dict, deadline: Deadline | None = None):
        """One resilience verdict; returns ``(record, partial)``.

        With a failure-model spec this is exactly ``run_grid``'s
        resilience cell (same grid, same checker path, same record
        shape); with an explicit ``failure_sets`` list it is exactly
        ``sweep_resilience`` over those masks.  A *sampled* model
        (``"iid:p=0.02,samples=500"``) answers with a point estimate
        and Wilson CI bounds via :func:`repro.failures.
        estimate_resilience`; a deadline-cut estimate is ``partial``
        (and never cached).
        """
        return self._verdict(self._resolve("verdict", params), deadline)

    def _verdict(self, query: _Query, deadline: Deadline | None):
        graph = query.graph
        algorithm = self._applicable_algorithm(query)
        start = time.perf_counter()
        if query.masks is None and query.model.sampled:
            # Monte-Carlo models stream through the estimator and
            # answer with a point estimate plus Wilson CI bounds —
            # the exact shape run_grid's sampled cells record
            estimate = estimate_resilience(
                graph, algorithm, query.model, session=self.session, deadline=deadline
            )
            record = replace(
                query.record,
                metrics=estimate.metrics(),
                series=list(estimate.series),
                runtime_seconds=time.perf_counter() - start,
                note=estimate.note,
            )
            return record, not estimate.exhaustive
        destination = query.destination
        if (
            destination is not None
            and isinstance(algorithm, DestinationAlgorithm)
            and deadline is None
        ):
            # the coalescing fast path: per-mask outcomes are
            # memoized, so repeated/overlapping queries share walks
            verdict = self._masked_verdict(query)
        else:
            # the exact seam run_grid's resilience metric uses (the
            # checkers reduce to this sweep on engine backends), plus
            # the per-request deadline
            grid = ScenarioGrid(
                destinations=[destination] if destination is not None else None,
                failure_sets=query.failure_sets(),
            )
            verdict = sweep_resilience(
                graph,
                algorithm,
                grid,
                state=self.session.state(graph),
                backend=self.session.backend,
                deadline=deadline,
            ).verdict
        record = replace(
            query.record,
            metrics={
                "resilient": bool(verdict.resilient),
                "scenarios_checked": verdict.scenarios_checked,
                "exhaustive": bool(verdict.exhaustive),
            },
            runtime_seconds=time.perf_counter() - start,
            note=str(verdict.counterexample) if verdict.counterexample else "",
        )
        return record, deadline is not None and deadline.expired()

    def load(self, params: dict, deadline: Deadline | None = None):
        """Per-failure-set load reports for one (topology, scheme, matrix).

        Exactly ``TrafficEngine.load_sweep`` on the session's cached
        engine; a deadline cut returns the completed prefix (partial).
        """
        return self._load(self._resolve("load", params), deadline)

    def _load(self, query: _Query, deadline: Deadline | None):
        algorithm = self._applicable_algorithm(query)
        sets = query.failure_sets()
        engine = self.session.traffic_engine(query.graph, algorithm)
        start = time.perf_counter()
        reports = engine.load_sweep(query.demands, sets, deadline=deadline)
        elapsed = time.perf_counter() - start
        record = replace(
            query.record,
            metrics={
                "failure_sets": len(sets),
                "completed_sets": len(reports),
                "worst_max_load": max((r.max_load for r in reports), default=0),
                "min_delivered_fraction": min(
                    (r.delivered_fraction for r in reports), default=0.0
                ),
            },
            series=[
                serialize_report(report, failures) for report, failures in zip(reports, sets)
            ],
            runtime_seconds=elapsed,
        )
        return record, len(reports) < len(sets)

    def grid(self, params: dict, deadline: Deadline | None = None):
        """A small ``run_grid`` (records returned, optional store merge)."""
        _check_params("grid", params)
        topologies = _require(params, "topologies")
        if not isinstance(topologies, list) or not topologies:
            raise QueryError("topologies must be a non-empty list of registry names")
        schemes = params.get("schemes")
        if schemes is not None and not isinstance(schemes, list):
            raise QueryError("schemes must be a list of registry names (or omitted)")
        metrics = params.get("metrics", list(METRICS))
        if not isinstance(metrics, list):
            raise QueryError("metrics must be a list")
        model = _failure_model(params)
        try:
            result = run_grid(
                topologies,
                schemes,
                failure_models=[model],
                metrics=metrics,
                matrix=params.get("matrix", "permutation"),
                matrix_seed=params.get("matrix_seed", 0),
                session=self.session,
                store=self.store,
                deadline=deadline,
            )
        except (KeyError, ValueError) as error:
            raise QueryError(str(error)) from None
        return result

    # -- answer cache ------------------------------------------------------

    def cached_record(self, identity: tuple) -> ExperimentRecord | None:
        if self.store is None:
            return None
        record = self.store.lookup(identity)
        if record is None:
            self.stats_counters["store_misses"] += 1
            return None
        self.stats_counters["store_hits"] += 1
        telemetry = _obs.active()
        if telemetry is not None:
            telemetry.count(
                "repro_serve_cache_hits_total",
                help="answers served from the ResultStore without recomputation",
                tier="store",
            )
        return record

    def remember(self, record: ExperimentRecord) -> None:
        if self.store is not None:
            self.store.merge([record])

    # -- request execution -------------------------------------------------

    def result_from_record(self, op: str, record: ExperimentRecord) -> dict:
        """The response ``result`` object for a record (fresh or cached).

        One constructor for both paths, so a cache hit and a fresh
        compute produce the same answer shape.
        """
        if op == "verdict":
            if "estimate" in record.metrics:
                # a sampled model's answer: estimate + CI, not a sweep
                return {
                    "verdict": {
                        "resilient": record.metrics["resilient"],
                        "estimate": record.metrics["estimate"],
                        "ci_low": record.metrics["ci_low"],
                        "ci_high": record.metrics["ci_high"],
                        "samples": record.metrics["samples"],
                        "planned_samples": record.metrics["planned_samples"],
                        "exhaustive": record.metrics["exhaustive"],
                        "sampled": True,
                        "counterexample": record.note or None,
                    },
                    "record": record.to_dict(),
                }
            return {
                "verdict": {
                    "resilient": record.metrics["resilient"],
                    "scenarios_checked": record.metrics["scenarios_checked"],
                    "exhaustive": record.metrics["exhaustive"],
                    "counterexample": record.note or None,
                },
                "record": record.to_dict(),
            }
        if op == "load":
            return {"reports": record.series, "record": record.to_dict()}
        raise ValueError(f"no record-backed result for op {op!r}")

    def execute(self, request: Request) -> dict:
        """Answer one request (no cross-request batching): a response dict."""
        return self.run_batch([request])[0]

    def run_batch(self, requests: list[Request]) -> list[dict]:
        """Answer a coalesced group of compute requests in one pass.

        Identical requests are deduplicated; verdict groups share the
        warm pattern/mask-memo path.  Per-request failures become
        per-request error envelopes — one bad request never poisons its
        batch siblings.
        """
        telemetry = _obs.active()
        if telemetry is not None and len(requests) > 1:
            telemetry.count(
                "repro_serve_batches_total", help="coalesced request batches executed"
            )
            telemetry.count(
                "repro_serve_batched_requests_total",
                len(requests),
                help="requests answered via a coalesced batch",
            )
        if len(requests) > 1:
            self.stats_counters["batches"] += 1
            self.stats_counters["batched_requests"] += len(requests)
        responses: list[dict] = []
        #: canonical params -> response (identical queries compute once)
        seen: dict[str, dict] = {}
        for request in requests:
            fingerprint = json.dumps(
                {"op": request.op, "params": request.params, "b": request.budget_seconds},
                sort_keys=True,
                separators=(",", ":"),
            )
            duplicate = seen.get(fingerprint)
            if duplicate is not None:
                responses.append(dict(duplicate, id=request.id))
                continue
            # per-request tracing lives here, on the (single) compute
            # thread, where the TraceWriter's span stack is sequential
            with _obs.span("serve_request", op=request.op, request=request.id):
                response = self._execute_one(request)
            seen[fingerprint] = response
            responses.append(response)
        return responses

    def _execute_one(self, request: Request) -> dict:
        deadline = (
            Deadline(request.budget_seconds) if request.budget_seconds is not None else None
        )
        try:
            if request.op in ("verdict", "load"):
                query = self._resolve(request.op, request.params)
                if deadline is None:
                    record = self.cached_record(query.record.key())
                    if record is not None:
                        return ok_response(
                            request.id,
                            self.result_from_record(request.op, record),
                            cached=True,
                        )
                compute = self._verdict if request.op == "verdict" else self._load
                record, partial = compute(query, deadline)
                if not partial:
                    self.remember(record)
                return ok_response(
                    request.id, self.result_from_record(request.op, record), partial=partial
                )
            if request.op == "grid":
                result = self.grid(request.params, deadline)
                return ok_response(
                    request.id,
                    {
                        "records": [record.to_dict() for record in result.records],
                        "skipped": [list(entry) for entry in result.skipped],
                        "exhaustive": bool(result.exhaustive),
                    },
                    partial=not result.exhaustive,
                )
            raise QueryError(f"op {request.op!r} is not a compute op")
        except Exception as error:  # noqa: BLE001 - bad params and compute bugs alike
            return error_response(request.id, type(error).__name__, str(error))

    # -- stats -------------------------------------------------------------

    def stats(self) -> dict:
        counters = dict(self.stats_counters)
        patterns = self.session.pattern_stats()
        counters.update(
            {
                "uptime_seconds": time.monotonic() - self.started,
                "backend": self.session.backend,
                "session": dict(self.session.stats),
                "graphs_cached": len(self._graphs),
                "patterns_cached": patterns["patterns"],
                "pattern_hits": patterns["hits"],
                "pattern_misses": patterns["misses"],
                "masks_memoized": len(self._outcomes),
                "store_path": str(self.store.path) if self.store is not None else None,
                "store_records": len(self.store.identities()) if self.store is not None else 0,
            }
        )
        return counters
