"""Per-layer attribution from outside the package.

:func:`install` wraps each layer's public entry points — module
functions wherever they are bound, and methods on their classes — with a
:class:`LayerClock` that counts calls and keeps inclusive and exclusive
(self) time.  Nothing in ``src/`` changes; the package's own counters
are read from the ``repro.obs`` registry of an installed ``Telemetry``.

Times are inclusive unless named ``self``: ``arborescences.pack_s``
contains the edge-connectivity calls made while packing, and
``runner.self_s`` is ``run_grid`` wall time minus every wrapped layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: layer name -> public functions ("module:function") or methods
#: ("module:Class.method") that make up the layer
FUNCTION_LAYERS = {
    "registry.resolve": ["repro.experiments.registry:resolve_topology"],
    "arborescences.pack": ["repro.graphs.arborescences:arc_disjoint_in_arborescences"],
    "connectivity.edge_connectivity": ["repro.graphs.connectivity:global_edge_connectivity"],
    "engine.index": ["repro.core.engine.sweep:EngineState.__init__"],
    "engine.sweep": [
        "repro.core.engine.sweep:sweep_resilience",
        "repro.core.engine.sweep:sweep_pattern_resilience",
    ],
    "resilience.check": [
        "repro.core.resilience:check_perfect_resilience_destination",
        "repro.core.resilience:check_perfect_resilience_source_destination",
        "repro.core.resilience:check_perfect_touring",
    ],
    "traffic.load_sweep": ["repro.traffic.load:TrafficEngine.load_sweep"],
    "estimate.resilience": ["repro.failures.estimate:estimate_resilience"],
    "estimate.congestion": ["repro.failures.estimate:estimate_congestion"],
    "results.merge": ["repro.experiments.results:ResultStore.merge"],
    "journal.append": ["repro.runtime.journal:CellJournal.append"],
    "runner": ["repro.experiments.runner:run_grid"],
}


class LayerClock:
    """Calls, inclusive seconds and self seconds per layer.

    Single-threaded by design: the grid child and the serve replay call
    layers from one thread.  A layer re-entered while already running
    (one checker calling another) counts once, at its outermost call.
    """

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Zero every tally (the wrappers stay installed)."""
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)
        #: child seconds accumulated by each open outermost call
        self._stack: list[float] = []
        #: (graph id, scheme, build args) of every pattern build
        self.patterns: set = set()

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._depth[layer]:
                return fn(*args, **kwargs)
            self._depth[layer] += 1
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._stack.pop()
                self._depth[layer] -= 1
                self.calls[layer] += 1
                self.inclusive[layer] += elapsed
                self.self_time[layer] += elapsed - children
                if self._stack:
                    self._stack[-1] += elapsed

        return wrapper

    def wrap_builds(self, spec_cls) -> None:
        """Wrap every scheme's ``build`` through ``SchemeSpec.instantiate``."""
        instantiate = spec_cls.instantiate
        clock = self

        def instantiate_wrapped(spec, **kwargs):
            algorithm = instantiate(spec, **kwargs)
            build = clock.wrap("algorithms.build", algorithm.build)

            def counted_build(graph, *args, **kw):
                clock.patterns.add((id(graph), spec.name, repr(args), repr(sorted(kw.items()))))
                return build(graph, *args, **kw)

            algorithm.build = counted_build
            return algorithm

        spec_cls.instantiate = instantiate_wrapped


def _rebind(original, wrapper) -> None:
    """Point every ``repro`` module binding of ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install() -> LayerClock:
    """Wrap every layer of :data:`FUNCTION_LAYERS`; returns the clock.

    Call once per process, after nothing but imports: bindings made by
    ``from x import f`` are found by identity in every loaded ``repro``
    module, so every module the layers live in is imported first.
    """
    clock = LayerClock()
    targets = []
    for layer, paths in FUNCTION_LAYERS.items():
        for path in paths:
            module_name, qualname = path.split(":")
            targets.append((layer, importlib.import_module(module_name), qualname))
    # load the rest of the package so every `from x import f` binding exists
    for name in ("repro.cli", "repro.serve", "repro.experiments", "repro.failures", "repro.traffic"):
        importlib.import_module(name)
    for layer, module, qualname in targets:
        if "." in qualname:
            cls_name, method = qualname.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, clock.wrap(layer, getattr(cls, method)))
        else:
            original = getattr(module, qualname)
            _rebind(original, clock.wrap(layer, original))
    from repro.experiments.registry import SchemeSpec

    clock.wrap_builds(SchemeSpec)
    return clock


# -- reading the package's own counters ---------------------------------------


def counter_total(snapshot: dict, name: str) -> float:
    """Sum of a counter (or gauge) family over all its label sets."""
    family = snapshot.get("families", {}).get(name)
    if family is None:
        return 0.0
    if family["kind"] == "histogram":
        return float(sum(sample["sum"] for sample in family["samples"]))
    return float(sum(sample["value"] for sample in family["samples"]))


def gauge_max(snapshot: dict, name: str) -> float:
    family = snapshot.get("families", {}).get(name)
    if family is None:
        return 0.0
    return float(max((sample["value"] for sample in family["samples"]), default=0.0))


def ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(clock: LayerClock, snapshot: dict, session_stats: dict) -> dict:
    """The per-layer metrics one traced process measured."""
    c, t = clock.calls, clock.inclusive
    builds = c["algorithms.build"]
    patterns = len(clock.patterns)
    hits = counter_total(snapshot, "repro_engine_memo_hits_total")
    misses = counter_total(snapshot, "repro_engine_memo_misses_total")
    return {
        "registry.resolve_s": t["registry.resolve"],
        "algorithms.build_calls": builds,
        "algorithms.build_s": t["algorithms.build"],
        "algorithms.builds_per_pattern": builds / patterns if patterns else 0.0,
        "arborescences.pack_calls": c["arborescences.pack"],
        "arborescences.pack_s": t["arborescences.pack"],
        "connectivity.edge_connectivity_calls": c["connectivity.edge_connectivity"],
        "connectivity.edge_connectivity_s": t["connectivity.edge_connectivity"],
        "session.state_misses": session_stats["state_misses"],
        "session.traffic_hits": session_stats["traffic_hits"],
        "session.traffic_misses": session_stats["traffic_misses"],
        "engine.index_s": t["engine.index"],
        "engine.sweep_calls": c["engine.sweep"],
        "engine.sweep_s": t["engine.sweep"],
        "engine.walks": counter_total(snapshot, "repro_engine_walks_total"),
        "engine.walk_steps": counter_total(snapshot, "repro_engine_walk_steps_total"),
        "engine.memo_hit_ratio": ratio(hits, misses),
        "engine.table_entries_max": gauge_max(snapshot, "repro_engine_memo_table_entries_max"),
        "resilience.check_calls": c["resilience.check"],
        "resilience.check_s": t["resilience.check"],
        "vectorized.chunks": counter_total(snapshot, "repro_numpy_chunks_total"),
        "vectorized.masks": counter_total(snapshot, "repro_numpy_masks_total"),
        "vectorized.table_entries": counter_total(snapshot, "repro_numpy_table_entries_total"),
        "vectorized.lane_steps": counter_total(snapshot, "repro_numpy_lane_steps_total"),
        "vectorized.fallbacks": counter_total(snapshot, "repro_numpy_fallbacks_total"),
        "traffic.load_sweep_calls": c["traffic.load_sweep"],
        "traffic.load_sweep_s": t["traffic.load_sweep"],
        "traffic.load_reports": counter_total(snapshot, "repro_traffic_load_reports_total"),
        "estimate.resilience_s": t["estimate.resilience"],
        "estimate.congestion_s": t["estimate.congestion"],
        "estimate.samples": counter_total(snapshot, "repro_failure_samples_total"),
        "results.merge_calls": c["results.merge"],
        "results.merge_s": t["results.merge"],
        "journal.appends": counter_total(snapshot, "repro_journal_appends_total"),
        "journal.append_s": t["journal.append"],
        "runner.cell_s": counter_total(snapshot, "repro_grid_cell_seconds"),
        "runner.self_s": clock.self_time["runner"],
    }


#: per-layer metrics that count work: two traced runs at one seed must
#: agree on every one of them exactly
COUNT_METRICS = (
    "algorithms.build_calls",
    "algorithms.builds_per_pattern",
    "arborescences.pack_calls",
    "connectivity.edge_connectivity_calls",
    "session.state_misses",
    "session.traffic_hits",
    "session.traffic_misses",
    "engine.sweep_calls",
    "engine.walks",
    "engine.walk_steps",
    "engine.memo_hit_ratio",
    "engine.table_entries_max",
    "resilience.check_calls",
    "vectorized.chunks",
    "vectorized.masks",
    "vectorized.table_entries",
    "vectorized.lane_steps",
    "vectorized.fallbacks",
    "traffic.load_sweep_calls",
    "traffic.load_reports",
    "estimate.samples",
    "results.merge_calls",
    "journal.appends",
)


def traced_summary(first: dict, second: dict, wall: float) -> tuple[dict, list[str]]:
    """The first traced sample's metrics plus layer shares of ``wall``,
    and the count metrics on which the second traced sample disagrees."""
    values = dict(first)
    for layer in ("arborescences.pack", "traffic.load_sweep", "results.merge"):
        values[f"{layer}_share"] = first[f"{layer}_s"] / wall
    return values, [name for name in COUNT_METRICS if first[name] != second[name]]
